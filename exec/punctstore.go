package exec

import (
	"punctsafe/stream"
)

// punctEntry is one stored punctuation together with its §5.1 lifecycle
// metadata. Constant slot i of its scheme is the punctuation's i-th
// constant. For an ordered (watermark) scheme the entry is the compacted
// representative of every instantiation seen for its equality constants:
// only the widest bound needs keeping, since a <=T promise subsumes every
// <=T' with T' <= T.
//
// Entries are recycled (punctStore.free), so nothing may hold a
// *punctEntry across calls into the operator. The holders, audited: a
// punctVictim lives in purgeScratch.victims for one §5.1 pass, cleared
// after it; pushPunct holds add's entry through its own purge round (which
// may remove it) into emitPunct; snapshots, Sweep and the §5.1 sweep
// reach entries through each() inside the call; pendingPunct holds the
// punctuation, not its entry.
type punctEntry struct {
	punct stream.Punctuation
	// key is the entry's key in its scheme's container.
	key mapKey
	// arrived is the operator clock value when the punctuation arrived
	// (or was last widened).
	arrived uint64
	// expires is the clock value after which the punctuation no longer
	// holds (§5.1 lifespans, e.g. TCP sequence-number wraparound); zero
	// means it holds forever.
	expires uint64
	// propagated records that the punctuation's input no longer stores a
	// tuple matching it: its output punctuation went out (once, so tree
	// plans see no duplicates), and §5.1 may retire it. Widening a
	// watermark bound resets it: the wider promise is news.
	propagated bool
	// round is the last §5.1 purge round that evaluated the entry, so a
	// round evaluates each candidate once. Not serialized.
	round uint64
}

// punctStore holds the punctuations received on one operator input,
// organized per scheme and keyed by the constants assigned to the
// scheme's equality attributes, so the chained purge machinery can answer
// "is the punctuation P(v1..vm) present?" in one lookup. Watermark
// schemes compare the ordered slot against the stored bound instead.
type punctStore struct {
	schemes []stream.Scheme
	// idx[k] are schemes[k]'s punctuatable positions: constant slot i of
	// an instantiation sits at attribute idx[k][i].
	idx [][]int
	// ordSlot[k] is the slot of schemes[k]'s ordered attribute, or -1. The
	// ordered constant is a bound, not part of the key.
	ordSlot []int
	// eqSlot[k] is schemes[k]'s only equality slot when that attribute is
	// numeric — entries are then keyed by the constant's bits — or -1 when
	// entries are keyed by the encoding of all equality constants. A
	// scheme with none keeps its one entry in a zero keyMap, no map.
	eqSlot []int
	// entries[k] holds the stored instantiations of schemes[k].
	entries []*keyMap[*punctEntry]
	size    int
	// keyBuf is the reusable encoded-key buffer: probing with it allocates
	// nothing, so the coverage checks inside purge chains cost no
	// allocations. constBuf is add's constant scratch.
	keyBuf   []byte
	constBuf []stream.Value
	// retired holds the entries removed (remove, expire) since the last
	// add, untouched: pushPunct still reads the entry its own purge round
	// may have removed. add zeroes them onto free, whose entries it reuses
	// before allocating, so the store's entries number at most its
	// high-water size.
	retired, free []*punctEntry
}

func newPunctStore(sc *stream.Schema, schemes []stream.Scheme) *punctStore {
	ps := &punctStore{schemes: schemes}
	for _, s := range schemes {
		idx := s.PunctuatableIndexes()
		ord, eq, nEq := -1, -1, 0
		for slot, a := range idx {
			if a == s.OrderedIndex() {
				ord = slot
			} else {
				eq = slot
				nEq++
			}
		}
		if nEq != 1 || sc.Attr(idx[eq]).Kind == stream.KindString {
			eq = -1
		}
		entries := new(keyMap[*punctEntry]) // a watermark: one entry at most
		if nEq > 0 {
			entries = newKeyMap[*punctEntry](eq >= 0)
		}
		ps.idx = append(ps.idx, idx)
		ps.ordSlot = append(ps.ordSlot, ord)
		ps.eqSlot = append(ps.eqSlot, eq)
		ps.entries = append(ps.entries, entries)
	}
	return ps
}

// constants copies the values of p's constants, in slot order, into the
// store's scratch: valid until the next call.
func (ps *punctStore) constants(p stream.Punctuation) []stream.Value {
	ps.constBuf = ps.constBuf[:0]
	for k := range p.ConstIndexes() {
		ps.constBuf = append(ps.constBuf, constant(p, k))
	}
	return ps.constBuf
}

// eqKeyBuf encodes the equality constants (the ordered slot, if any, is
// dropped) into the store's reusable buffer. The result is valid until
// the next eqKeyBuf call.
func (ps *punctStore) eqKeyBuf(schemeIdx int, consts []stream.Value) []byte {
	ps.keyBuf = ps.keyBuf[:0]
	for i, v := range consts {
		if i != ps.ordSlot[schemeIdx] {
			ps.keyBuf = stream.AppendKey(ps.keyBuf, v)
		}
	}
	return ps.keyBuf
}

// find returns the stored entry — live or expired — whose equality
// constants equal those of consts.
func (ps *punctStore) find(schemeIdx int, consts []stream.Value) (*punctEntry, bool) {
	if slot := ps.eqSlot[schemeIdx]; slot >= 0 {
		return ps.entries[schemeIdx].get(mapKey{bits: consts[slot].Bits()})
	}
	return ps.entries[schemeIdx].getEncoded(ps.eqKeyBuf(schemeIdx, consts))
}

// put stores a fresh entry under the constants' equality part, replacing
// whatever was there.
func (ps *punctStore) put(schemeIdx int, consts []stream.Value, e *punctEntry) {
	if slot := ps.eqSlot[schemeIdx]; slot >= 0 {
		e.key = mapKey{bits: consts[slot].Bits()}
	} else {
		e.key = mapKey{s: string(ps.eqKeyBuf(schemeIdx, consts))}
	}
	ps.entries[schemeIdx].put(e.key, e)
}

// schemeIndex returns the index of the scheme the punctuation
// instantiates, or -1 when it matches none (the punctuation is then
// irrelevant to this operator and is dropped).
func (ps *punctStore) schemeIndex(p stream.Punctuation) int {
	for i, s := range ps.schemes {
		if s.Instantiates(p) {
			return i
		}
	}
	return -1
}

// indexOfScheme returns the store's index for a registered scheme value.
func (ps *punctStore) indexOfScheme(s stream.Scheme) int {
	for i, have := range ps.schemes {
		if have.Equal(s) {
			return i
		}
	}
	return -1
}

// lookup returns the live entry for the scheme with the given constants'
// equality part, or nil.
func (ps *punctStore) lookup(schemeIdx int, consts []stream.Value, now uint64) *punctEntry {
	e, ok := ps.find(schemeIdx, consts)
	if !ok || e.expired(now) {
		return nil
	}
	return e
}

// add stores a punctuation. It returns the entry and the index of the
// scheme it instantiates when the punctuation is new information (fresh
// entry, or a widened watermark bound), or nil when it instantiates no
// registered scheme or adds nothing.
func (ps *punctStore) add(p stream.Punctuation, now, lifespan uint64) (*punctEntry, int) {
	ps.reclaim()
	si := ps.schemeIndex(p)
	if si < 0 {
		return nil, -1
	}
	consts := ps.constants(p)
	e, ok := ps.find(si, consts)
	switch {
	case ok && !e.expired(now):
		slot := ps.ordSlot[si]
		if slot < 0 {
			return nil, -1 // exact duplicate
		}
		// Watermark: keep only the widest bound.
		if le, cmp := stream.LessEq(consts[slot], constant(e.punct, slot)); cmp && le {
			return nil, -1 // not wider than what we hold
		}
		e.punct = p
		e.propagated = false
	case ok: // an expired entry is replaced in place, under its own key
		*e = punctEntry{punct: p, key: e.key}
	default:
		ps.size++
		if e, ok = popLast(&ps.free); !ok {
			e = new(punctEntry)
		}
		e.punct = p
		ps.put(si, consts, e)
	}
	e.arrived = now
	if lifespan > 0 {
		e.expires = now + lifespan
	}
	return e, si
}

func (e *punctEntry) expired(now uint64) bool {
	return e.expires != 0 && now > e.expires
}

// covering returns the live stored punctuation that guarantees the given
// constants — for equality slots an exact match, for the ordered slot a
// stored bound at or above the value — or nil.
func (ps *punctStore) covering(schemeIdx int, consts []stream.Value, now uint64) *punctEntry {
	e := ps.lookup(schemeIdx, consts, now)
	if slot := ps.ordSlot[schemeIdx]; e != nil && slot >= 0 {
		if le, ok := stream.LessEq(consts[slot], constant(e.punct, slot)); !ok || !le {
			return nil
		}
	}
	return e
}

// reclaim zeroes the entries retired since the last add onto free: no
// punctuation stays pinned and no propagated, round or expires mark leaks
// into the entry's next use.
func (ps *punctStore) reclaim() {
	for _, e := range ps.retired {
		*e = punctEntry{}
	}
	ps.free = append(ps.free, ps.retired...)
	clear(ps.retired)
	ps.retired = ps.retired[:0]
}

// remove deletes a stored entry; it reports whether it was still stored.
// The entry stays intact until the next add (see retired).
func (ps *punctStore) remove(schemeIdx int, e *punctEntry) bool {
	if _, ok := ps.entries[schemeIdx].get(e.key); !ok {
		return false
	}
	ps.entries[schemeIdx].del(e.key)
	ps.size--
	ps.retired = append(ps.retired, e)
	return true
}

// expire removes entries whose lifespan has elapsed and returns the count.
func (ps *punctStore) expire(now uint64) int {
	n := len(ps.retired)
	for _, m := range ps.entries {
		m.each(func(k mapKey, e *punctEntry) {
			if e.expired(now) {
				m.del(k)
				ps.retired = append(ps.retired, e)
			}
		})
	}
	removed := len(ps.retired) - n
	ps.size -= removed
	return removed
}

// each visits every live entry until fn returns false. Entries are
// visited per scheme in sorted key order (not Go map order) so sweep-time
// punctuation emission is deterministic across runs.
func (ps *punctStore) each(now uint64, fn func(schemeIdx int, e *punctEntry) bool) {
	more := true
	for si, m := range ps.entries {
		m.eachSorted(func(e *punctEntry) bool {
			more = e.expired(now) || fn(si, e)
			return more
		})
		if !more {
			return
		}
	}
}
