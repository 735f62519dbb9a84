package exec

import (
	"slices"

	"punctsafe/stream"
)

// tupleID identifies a stored tuple within one join state. Ids are
// assigned monotonically and travel in snapshots; nothing resolves an id
// back to its tuple — stored tuples are addressed by row.
type tupleID uint64

// row is a position in a joinState's columns. A row stays valid until
// the state compacts, which a holder defers with pin.
type row uint32

// joinState is the stored input of one stream inside a join operator
// (the Υ_S of §2.2): the stored tuples as append-only columns in arrival
// order plus a hash index per join attribute, so both probing (for result
// emission) and purging (for punctuation matching) are value lookups
// rather than scans, and every deterministic-iteration requirement (probe
// expansion, purge cascades, sweeps all walk in arrival order) is a
// linear walk. The index buckets hold ROW POSITIONS: ascending row =
// ascending id = arrival order, appends keep them sorted for free, and the
// hop from a bucket entry to its tuple is tuple(row) whatever the
// compaction history. A stored tuple's values are the state's own: append
// copies them into fixed-size pages, so the caller may reuse what it
// stored. Removal tombstones the row and leaves its values in place;
// compaction rewrites the columns once tombstones dominate, clears the
// slots it vacates, and renumbers the buckets through an old-row→new-row
// table.
type joinState struct {
	ids  []tupleID // sorted ascending (monotonic assignment)
	dead []bool    // parallel tombstones
	// pages hold the rows' values, pageRows rows of arity values each: row
	// r is pages[r/pageRows] at (r%pageRows)*arity. A page is allocated
	// whole when the rows outgrow the pages; compaction keeps the pages it
	// empties for new rows, and every slot past the last row is zero.
	pages [][]stream.Value
	arity int
	// mark is a scratch word per row: a purge round stamps the rows it has
	// queued (purge.go); compact, which never runs inside a round, borrows
	// it as its old-row→new-row table and leaves it zeroed.
	mark  []uint32
	index stateIndex
	// spare holds the buckets of keys that left the index, emptied with
	// their capacity kept; the next new key of any attribute starts from
	// one (bucket). No live key shares their arrays, and there are at most
	// as many as the index held keys at once.
	spare  [][]row
	nDead  int
	head   int // every row below head is dead (oldest)
	nextID tupleID
	// walkers counts the holders of rows into this state (each, a purge
	// round); compaction waits until it drops to zero.
	walkers int
}

// pageRows is how many rows one value page holds.
const pageRows = 128

// compactMinDead bounds how small a state bothers compacting; below it
// tombstones cost less than the rewrite.
const compactMinDead = 64

// stateIndex is a joinState's hash index by attribute position:
// index[attr] maps the attribute's values to the ascending rows of the
// live tuples holding them. Only join attributes are indexed; the other
// positions are nil. Each attribute's container is keyed by the
// attribute's schema kind (keymap.go).
type stateIndex []*keyMap[[]row]

// lookup returns the ascending live rows whose attribute attr equals v.
// The bucket is owned by the state; callers must not modify it, or
// retain it across inserts or past a pin.
func (ix stateIndex) lookup(attr int, v stream.Value) []row {
	idx := ix[attr]
	if idx == nil {
		return nil
	}
	bucket, _ := idx.get(idx.keyOf(v))
	return bucket
}

func newJoinState(sc *stream.Schema, joinAttrs []int) *joinState {
	index := make(stateIndex, sc.Arity())
	for _, a := range joinAttrs {
		index[a] = newKeyMap[[]row](sc.Attr(a).Kind != stream.KindString)
	}
	return &joinState{index: index, arity: sc.Arity()}
}

// tuple returns row r's tuple: a view into the state's page, valid until
// the state compacts (which a holder defers with pin). Its values are
// capacity-clamped, so no append through the view reaches the next row.
func (st *joinState) tuple(r row) stream.Tuple {
	return stream.Tuple{Values: st.slot(r)}
}

// slot returns row r's values in its page.
func (st *joinState) slot(r row) []stream.Value {
	i := int(r%pageRows) * st.arity
	return st.pages[r/pageRows][i : i+st.arity : i+st.arity]
}

// insert stores a tuple under the next id.
func (st *joinState) insert(t stream.Tuple) {
	st.append(st.nextID, t)
	st.nextID++
}

// append stores a copy of a tuple under an id above every id present and
// indexes its join attributes; the new row is the highest, so buckets stay
// sorted by construction.
func (st *joinState) append(id tupleID, t stream.Tuple) {
	r := row(len(st.ids))
	if int(r) == len(st.pages)*pageRows {
		st.pages = append(st.pages, make([]stream.Value, pageRows*st.arity))
	}
	copy(st.slot(r), t.Values)
	st.ids = append(st.ids, id)
	st.dead = append(st.dead, false)
	st.mark = append(st.mark, 0)
	for a, idx := range st.index {
		if idx != nil {
			k := idx.keyOf(t.Values[a])
			idx.put(k, append(st.bucket(idx, k), r))
		}
	}
}

// bucket returns idx's bucket for k or, for a key idx does not hold, a
// spare one (nil when none is kept).
func (st *joinState) bucket(idx *keyMap[[]row], k mapKey) []row {
	if b, ok := idx.get(k); ok {
		return b
	}
	b, _ := popLast(&st.spare)
	return b
}

// popLast removes the last element of a pool and returns it, clearing
// its slot so the pool's array keeps nothing it handed out.
func popLast[T any](pool *[]T) (T, bool) {
	var v T
	n := len(*pool)
	if n == 0 {
		return v, false
	}
	v, (*pool)[n-1] = (*pool)[n-1], v
	*pool = (*pool)[:n-1]
	return v, true
}

// remove tombstones the live row r, unindexes it, and compacts by the
// policy once nothing holds a row. The row's values stay in its page until
// compaction, so a tuple taken from it under a pin stays readable.
func (st *joinState) remove(r row) {
	t := st.tuple(r)
	st.dead[r] = true
	st.nDead++
	for a, idx := range st.index {
		if idx == nil {
			continue
		}
		k := idx.keyOf(t.Values[a])
		bucket, _ := idx.get(k)
		if len(bucket) == 1 {
			// The key's last row leaves: keep its bucket as a spare.
			idx.del(k)
			st.spare = append(st.spare, bucket[:0])
			continue
		}
		i, _ := slices.BinarySearch(bucket, r)
		idx.put(k, slices.Delete(bucket, i, i+1))
	}
	st.tidy()
}

// removeOldest deletes the earliest-arrived stored tuple, if any. The
// dead prefix is skipped once: head only moves forward between
// compactions.
func (st *joinState) removeOldest() {
	for st.head < len(st.ids) && st.dead[st.head] {
		st.head++
	}
	if st.head < len(st.ids) {
		st.remove(row(st.head))
	}
}

// pin defers compaction until the matching unpin, so rows taken in
// between stay valid across removals (which tombstone in place).
func (st *joinState) pin() { st.walkers++ }

func (st *joinState) unpin() {
	st.walkers--
	st.tidy()
}

// tombstoned reports whether tombstones dominate the columns.
func (st *joinState) tombstoned() bool {
	return st.nDead >= compactMinDead && st.nDead*2 >= len(st.ids)
}

// tidy compacts once nothing holds a row and tombstones dominate.
func (st *joinState) tidy() {
	if st.walkers == 0 && st.tombstoned() {
		st.compact()
	}
}

// compact rewrites the columns without tombstoned rows, clears the value
// slots it vacates (keeping their pages), and renumbers the index buckets
// (which hold only live rows): one pass over the columns and one over the
// buckets, paid for by the tombstones that triggered it.
func (st *joinState) compact() {
	w := 0
	for r := range st.ids {
		if st.dead[r] {
			continue
		}
		st.mark[r] = uint32(w)
		st.ids[w], st.dead[w] = st.ids[r], false
		if w != r {
			copy(st.slot(row(w)), st.slot(row(r)))
		}
		w++
	}
	for r := w; r < len(st.ids); r++ {
		clear(st.slot(row(r)))
	}
	for _, idx := range st.index {
		if idx != nil {
			idx.each(func(_ mapKey, bucket []row) {
				for i, r := range bucket {
					bucket[i] = row(st.mark[r])
				}
			})
		}
	}
	clear(st.mark)
	st.ids, st.dead, st.mark = st.ids[:w], st.dead[:w], st.mark[:w]
	st.nDead, st.head = 0, 0
}

// size returns the number of stored (live) tuples.
func (st *joinState) size() int { return len(st.ids) - st.nDead }

// each calls fn for every stored tuple until fn returns false. Tuples are
// visited in arrival order — a linear walk over the columns — so every
// downstream effect (purge cascades, punctuation re-emission) is
// deterministic across runs. The state is pinned for the walk, so fn may
// remove the row it is visiting or any other.
func (st *joinState) each(fn func(row, stream.Tuple) bool) {
	st.pin()
	defer st.unpin()
	for r := range st.ids {
		if !st.dead[r] && !fn(row(r), st.tuple(row(r))) {
			return
		}
	}
}

// intersectSorted writes the intersection of two ascending row slices
// into dst (galloping through the longer side) and returns it. dst may be
// a[:0] only if the caller no longer needs a; typically it is a reusable
// scratch buffer.
func intersectSorted(dst, a, b []row) []row {
	if len(a) > len(b) {
		a, b = b, a
	}
	dst = dst[:0]
	lo := 0
	for _, r := range a {
		// Gallop: exponential probe then binary search within b[lo:].
		step := 1
		for lo+step < len(b) && b[lo+step] < r {
			step <<= 1
		}
		hi := lo + step
		if hi > len(b) {
			hi = len(b)
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if b[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(b) {
			break
		}
		if b[lo] == r {
			dst = append(dst, r)
			lo++
		}
	}
	return dst
}
