package exec

import (
	"sort"

	"punctsafe/stream"
)

// punctEntry is one stored punctuation together with its §5.1 lifecycle
// metadata. For an ordered (watermark) scheme the entry is the compacted
// representative of every instantiation seen for its equality constants:
// only the widest bound needs keeping, since a <=T promise subsumes every
// <=T' with T' <= T.
type punctEntry struct {
	punct stream.Punctuation
	// consts are the constant values in punctuatable-attribute order
	// (the ordered slot, if any, holds the current bound).
	consts []stream.Value
	// idx are the positions consts sit at: the punctuatable positions of
	// the scheme the punctuation instantiates (shared with the scheme).
	idx []int
	// arrived is the operator clock value when the punctuation arrived
	// (or was last widened).
	arrived uint64
	// expires is the clock value after which the punctuation no longer
	// holds (§5.1 lifespans, e.g. TCP sequence-number wraparound); zero
	// means it holds forever.
	expires uint64
	// emitted records whether the operator already propagated this
	// punctuation to its output (so tree plans do not emit duplicates).
	// Widening a watermark bound resets it: the wider promise is news.
	emitted bool
}

// punctStore holds the punctuations received on one operator input,
// organized per scheme and keyed by the constants assigned to the
// scheme's equality attributes, so the chained purge machinery can answer
// "is the punctuation P(v1..vm) present?" in one lookup. Watermark
// schemes compare the ordered slot against the stored bound instead.
type punctStore struct {
	schemes []stream.Scheme
	// ordSlot[k] is the position of schemes[k]'s ordered attribute within
	// its punctuatable-attribute order, or -1.
	ordSlot []int
	// entries[k] holds the stored instantiations of schemes[k], keyed by
	// the equality constants.
	entries []map[string]*punctEntry
	size    int
	// keyBuf is the reusable composite-key buffer: probes go through
	// m[string(keyBuf)], which the compiler compiles without a string
	// allocation, so the coverage checks inside purge chains cost no
	// allocations.
	keyBuf []byte
	// keysBuf is each()'s reusable sort buffer.
	keysBuf []string
}

func newPunctStore(schemes []stream.Scheme) *punctStore {
	ps := &punctStore{
		schemes: schemes,
		ordSlot: make([]int, len(schemes)),
		entries: make([]map[string]*punctEntry, len(schemes)),
	}
	for i, s := range schemes {
		ps.entries[i] = make(map[string]*punctEntry)
		ps.ordSlot[i] = -1
		oi := s.OrderedIndex()
		for slot, a := range s.PunctuatableIndexes() {
			if a == oi {
				ps.ordSlot[i] = slot
			}
		}
	}
	return ps
}

// appendEqKey drops the ordered slot (if any) from the constant list and
// appends the key encoding of the rest to dst.
func (ps *punctStore) appendEqKey(dst []byte, schemeIdx int, consts []stream.Value) []byte {
	slot := ps.ordSlot[schemeIdx]
	for i, v := range consts {
		if i == slot {
			continue
		}
		dst = stream.AppendKey(dst, v)
	}
	return dst
}

// eqKeyBuf encodes the equality key into the store's reusable buffer.
// The result is valid until the next eqKeyBuf call.
func (ps *punctStore) eqKeyBuf(schemeIdx int, consts []stream.Value) []byte {
	ps.keyBuf = ps.appendEqKey(ps.keyBuf[:0], schemeIdx, consts)
	return ps.keyBuf
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
	e, ok := ps.entries[schemeIdx][string(ps.eqKeyBuf(schemeIdx, consts))]
	if !ok || e.expired(now) {
		return nil
	}
	return e
}

// add stores a punctuation. It returns the entry when the punctuation is
// new information (fresh entry, or a widened watermark bound), or nil
// when it instantiates no registered scheme or adds nothing.
func (ps *punctStore) add(p stream.Punctuation, now, lifespan uint64) *punctEntry {
	si := ps.schemeIndex(p)
	if si < 0 {
		return nil
	}
	consts := constsOf(p)
	slot := ps.ordSlot[si]
	if old, ok := ps.entries[si][string(ps.eqKeyBuf(si, consts))]; ok && !old.expired(now) {
		if slot < 0 {
			return nil // exact duplicate
		}
		// Watermark: keep only the widest bound.
		le, cmp := stream.LessEq(consts[slot], old.consts[slot])
		if cmp && le {
			return nil // not wider than what we hold
		}
		old.punct = p
		old.consts = consts
		old.arrived = now
		if lifespan > 0 {
			old.expires = now + lifespan
		}
		old.emitted = false
		return old
	} else if ok {
		ps.size-- // replace an expired entry
	}
	e := &punctEntry{punct: p, consts: consts, idx: ps.schemes[si].PunctuatableIndexes(), arrived: now}
	if lifespan > 0 {
		e.expires = now + lifespan
	}
	ps.entries[si][string(ps.eqKeyBuf(si, consts))] = e
	ps.size++
	return e
}

func (e *punctEntry) expired(now uint64) bool {
	return e.expires != 0 && now > e.expires
}

// covered reports whether a live stored punctuation guarantees the given
// constants: for equality slots an exact match, for the ordered slot a
// stored bound at or above the value.
func (ps *punctStore) covered(schemeIdx int, consts []stream.Value, now uint64) bool {
	e := ps.lookup(schemeIdx, consts, now)
	if e == nil {
		return false
	}
	slot := ps.ordSlot[schemeIdx]
	if slot < 0 {
		return true
	}
	le, ok := stream.LessEq(consts[slot], e.consts[slot])
	return ok && le
}

// coveredSimple reports whether a live stored punctuation constrains
// exactly the single attribute attr so as to forbid the value v — the
// guarantee "no future tuple carries v at attr" needed by plain
// purge-chain steps.
func (ps *punctStore) coveredSimple(attr int, v stream.Value, now uint64) bool {
	for si, s := range ps.schemes {
		idx := s.PunctuatableIndexes()
		if len(idx) != 1 || idx[0] != attr {
			continue
		}
		if ps.covered(si, []stream.Value{v}, now) {
			return true
		}
	}
	return false
}

// remove deletes the stored entry matching the constants' equality part;
// it reports whether an entry was removed.
func (ps *punctStore) remove(schemeIdx int, consts []stream.Value) bool {
	key := ps.eqKeyBuf(schemeIdx, consts)
	if _, ok := ps.entries[schemeIdx][string(key)]; !ok {
		return false
	}
	delete(ps.entries[schemeIdx], string(key))
	ps.size--
	return true
}

// expire removes entries whose lifespan has elapsed and returns the count.
func (ps *punctStore) expire(now uint64) int {
	removed := 0
	for _, m := range ps.entries {
		for k, e := range m {
			if e.expired(now) {
				delete(m, k)
				removed++
			}
		}
	}
	ps.size -= removed
	return removed
}

// each visits every live entry until fn returns false. Entries are
// visited per scheme in sorted key order (not Go map order) so sweep-time
// punctuation emission is deterministic across runs.
func (ps *punctStore) each(now uint64, fn func(schemeIdx int, e *punctEntry) bool) {
	for si, m := range ps.entries {
		keys := ps.keysBuf[:0]
		for k := range m {
			keys = append(keys, k)
		}
		ps.keysBuf = keys
		sort.Strings(keys)
		for _, k := range keys {
			e, ok := m[k]
			if !ok || e.expired(now) {
				continue
			}
			if !fn(si, e) {
				return
			}
		}
	}
}

// constsOf extracts the constant values of a punctuation in ascending
// attribute order (bounds included).
func constsOf(p stream.Punctuation) []stream.Value {
	var out []stream.Value
	for _, pat := range p.Patterns {
		if !pat.IsWildcard() {
			out = append(out, pat.Value())
		}
	}
	return out
}
