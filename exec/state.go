package exec

import (
	"sort"

	"punctsafe/stream"
)

// tupleID identifies a stored tuple within one join state.
type tupleID uint64

// joinState is the stored input of one stream inside a join operator
// (the Υ_S of §2.2): tuples plus a hash index per join attribute, so both
// probing (for result emission) and purging (for punctuation matching)
// are value lookups rather than scans.
//
// Layout: tupleIDs are assigned monotonically, so the id/tuple columns
// are append-only sorted slices and every deterministic-iteration
// requirement (probe expansion, purge cascades, sweeps all walk in
// arrival order) is a linear walk instead of a collect-and-sort over map
// keys. Removal tombstones the row; compaction rewrites the columns once
// tombstones dominate. The per-attribute hash index (stateIndex) stores
// sorted []tupleID buckets — appends keep them sorted for free, and
// candidate iteration and intersection need no per-probe allocation.
// The state is two-tiered (coldtier.go): rows older than the freeze
// watermark compact into an immutable-layout cold segment, keeping the
// hot columns short under long-lived state. Every cold id < frozenBound
// <= every hot id, so id-based dispatch and per-tier intersection are a
// single comparison.
type joinState struct {
	ids     []tupleID      // sorted ascending (monotonic assignment)
	tups    []stream.Tuple // parallel to ids
	dead    []bool         // parallel tombstones
	index   stateIndex
	nDead   int
	nextID  tupleID
	walkers int // >0 while each() iterates; defers compaction & freezing

	// cold is the frozen tier, nil until the first freeze moves rows.
	cold *coldSegment
	// frozenBound separates the tiers: ids below it live in cold (or are
	// gone), ids at or above it live in the hot columns.
	frozenBound tupleID
	// freezeAt is the pending watermark: the next freeze() moves live hot
	// rows with id < freezeAt. advanceFreeze bumps it to nextID after.
	freezeAt tupleID
}

// compactMinDead bounds how small a state bothers compacting; below it
// tombstones cost less than the rewrite.
const compactMinDead = 64

// stateIndex is the hash index of one tier of a joinState, by attribute
// position: index[attr] maps the attribute's values to the sorted ids of
// the live tuples holding them. Only join attributes are indexed; the
// other positions are nil. Each attribute's container is keyed by the
// attribute's schema kind (keymap.go).
type stateIndex []*keyMap[[]tupleID]

func newJoinState(sc *stream.Schema, joinAttrs []int) *joinState {
	index := make(stateIndex, sc.Arity())
	for _, a := range joinAttrs {
		index[a] = newKeyMap[[]tupleID](sc.Attr(a).Kind != stream.KindString)
	}
	return &joinState{index: index}
}

// emptyLike returns an empty index over the same attributes.
func (ix stateIndex) emptyLike() stateIndex {
	out := make(stateIndex, len(ix))
	for a, idx := range ix {
		if idx != nil {
			out[a] = newKeyMap[[]tupleID](idx.num != nil)
		}
	}
	return out
}

// add indexes a tuple under an id above every id already present, so the
// buckets stay sorted by construction.
func (ix stateIndex) add(t stream.Tuple, id tupleID) {
	for a, idx := range ix {
		if idx != nil {
			k := idx.keyOf(t.Values[a])
			bucket, _ := idx.get(k)
			idx.put(k, append(bucket, id))
		}
	}
}

// drop unindexes a tuple.
func (ix stateIndex) drop(t stream.Tuple, id tupleID) {
	for a, idx := range ix {
		if idx == nil {
			continue
		}
		k := idx.keyOf(t.Values[a])
		if bucket, ok := idx.get(k); ok {
			if b := deleteSorted(bucket, id); len(b) == 0 {
				idx.del(k)
			} else {
				idx.put(k, b)
			}
		}
	}
}

// lookup returns the sorted live ids whose attribute attr equals v.
func (ix stateIndex) lookup(attr int, v stream.Value) []tupleID {
	idx := ix[attr]
	if idx == nil {
		return nil
	}
	bucket, _ := idx.get(idx.keyOf(v))
	return bucket
}

// insert stores a tuple and indexes its join attributes.
func (st *joinState) insert(t stream.Tuple) tupleID {
	id := st.nextID
	st.nextID++
	st.ids = append(st.ids, id)
	st.tups = append(st.tups, t)
	st.dead = append(st.dead, false)
	st.index.add(t, id)
	return id
}

// pos returns the row of id in the sorted id column, or -1. Removals
// tombstone in place, so the column is usually a gap-free id run and the
// guess row id-ids[0] resolves in O(1); compaction introduces gaps and
// falls back to binary search.
func (st *joinState) pos(id tupleID) int {
	n := len(st.ids)
	if n == 0 || id < st.ids[0] || id > st.ids[n-1] {
		return -1
	}
	if d := id - st.ids[0]; d < tupleID(n) && st.ids[d] == id {
		return int(d)
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && st.ids[lo] == id {
		return lo
	}
	return -1
}

// get returns the stored tuple for id, if live, from whichever tier
// owns the id.
func (st *joinState) get(id tupleID) (stream.Tuple, bool) {
	if id < st.frozenBound {
		if st.cold == nil {
			return stream.Tuple{}, false
		}
		return st.cold.get(id)
	}
	p := st.pos(id)
	if p < 0 || st.dead[p] {
		return stream.Tuple{}, false
	}
	return st.tups[p], true
}

// remove deletes a stored tuple and unindexes it. It reports whether the
// id was present (and live).
func (st *joinState) remove(id tupleID) bool {
	if id < st.frozenBound {
		if st.cold == nil || !st.cold.remove(id) {
			return false
		}
		// Recompact once tombstones dominate, and release a fully-dead
		// segment immediately — below the threshold its tombstones would
		// otherwise linger forever.
		if st.walkers == 0 && (st.cold.size() == 0 ||
			(st.cold.nDead >= compactMinDead && st.cold.nDead*2 >= len(st.cold.ids))) {
			st.cold.compact()
			if len(st.cold.ids) == 0 {
				st.cold = nil
			}
		}
		return true
	}
	p := st.pos(id)
	if p < 0 || st.dead[p] {
		return false
	}
	t := st.tups[p]
	st.dead[p] = true
	st.tups[p] = stream.Tuple{} // release the value storage now
	st.nDead++
	st.index.drop(t, id)
	if st.walkers == 0 && st.nDead >= compactMinDead && st.nDead*2 >= len(st.ids) {
		st.compact()
	}
	return true
}

// compact rewrites the columns without tombstoned rows. Index buckets
// hold only live ids, so they are untouched.
func (st *joinState) compact() {
	w := 0
	for r := range st.ids {
		if st.dead[r] {
			continue
		}
		st.ids[w] = st.ids[r]
		st.tups[w] = st.tups[r]
		st.dead[w] = false
		w++
	}
	clearTuples(st.tups[w:])
	st.ids = st.ids[:w]
	st.tups = st.tups[:w]
	st.dead = st.dead[:w]
	st.nDead = 0
}

func clearTuples(ts []stream.Tuple) {
	for i := range ts {
		ts[i] = stream.Tuple{}
	}
}

// deleteSorted removes id from a sorted bucket by binary search.
func deleteSorted(b []tupleID, id tupleID) []tupleID {
	i := sort.Search(len(b), func(i int) bool { return b[i] >= id })
	if i == len(b) || b[i] != id {
		return b
	}
	copy(b[i:], b[i+1:])
	return b[:len(b)-1]
}

// size returns the number of stored (live) tuples across both tiers.
func (st *joinState) size() int { return len(st.ids) - st.nDead + st.coldSize() }

// coldSize returns the live tuples resident in the frozen tier.
func (st *joinState) coldSize() int {
	if st.cold == nil {
		return 0
	}
	return st.cold.size()
}

// lookup2 returns the per-tier sorted ids of stored tuples whose
// attribute attr equals v. The buckets are owned by the state; callers
// must not modify or retain them across inserts, removes, or freezes.
func (st *joinState) lookup2(attr int, v stream.Value) tierBuckets {
	tb := tierBuckets{hot: st.index.lookup(attr, v)}
	if st.cold != nil {
		tb.cold = st.cold.index.lookup(attr, v)
	}
	return tb
}

// each calls fn for every stored tuple until fn returns false. Tuples are
// visited in tupleID (arrival) order — a linear walk over the ordered
// columns — so every downstream effect (probe expansion, purge cascades,
// punctuation re-emission) is deterministic across runs. Rows removed by
// fn mid-walk are tombstoned in place (compaction is deferred while the
// walk runs), so removal during iteration is safe.
func (st *joinState) each(fn func(tupleID, stream.Tuple) bool) {
	st.walkers++
	defer func() { st.walkers-- }()
	if c := st.cold; c != nil {
		// Cold ids all precede hot ids, so cold-then-hot is arrival order.
		for r := 0; r < len(c.ids); r++ {
			if c.dead[r] {
				continue
			}
			if !fn(c.ids[r], c.tups[r]) {
				return
			}
		}
	}
	for r := 0; r < len(st.ids); r++ {
		if st.dead[r] {
			continue
		}
		if !fn(st.ids[r], st.tups[r]) {
			return
		}
	}
}

// intersectSorted writes the intersection of two ascending id slices into
// dst (galloping through the longer side) and returns it. dst may be
// a[:0] only if the caller no longer needs a; typically it is a reusable
// scratch buffer.
func intersectSorted(dst, a, b []tupleID) []tupleID {
	if len(a) > len(b) {
		a, b = b, a
	}
	dst = dst[:0]
	lo := 0
	for _, id := range a {
		// Gallop: exponential probe then binary search within b[lo:].
		step := 1
		for lo+step < len(b) && b[lo+step] < id {
			step <<= 1
		}
		hi := lo + step
		if hi > len(b) {
			hi = len(b)
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if b[mid] < id {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(b) {
			break
		}
		if b[lo] == id {
			dst = append(dst, id)
			lo++
		}
	}
	return dst
}
