package exec

import "slices"

// The frozen tier of a joinState is a second rowStore holding the tuples
// whose ids fell below the freeze watermark, moved out of the hot columns.
// Nothing is ever inserted into it — punctuation purges still remove
// frozen tuples (tombstone + deferred recompaction, like the hot tier) —
// so the segment carries no tombstones at freeze time, and its buckets
// are ascending row runs that the probe intersects exactly as it does the
// hot ones.
//
// The tier invariant is held by the owning joinState: every cold id <
// frozenBound <= every hot id. That disjointness is what lets the probe
// intersect cold-with-cold and hot-with-hot independently and walk the
// two runs back to back — the concatenation is still in arrival order.

// advanceFreeze runs one freeze generation: hot rows older than the
// current watermark (id < freezeAt) move into the cold segment, then the
// watermark advances to nextID. Rows therefore spend at least one full
// inter-freeze interval in the hot tier before freezing. Freezing is
// skipped while the state is pinned (it renumbers rows); the next
// generation picks the rows up. Returns the number of rows frozen.
func (st *joinState) advanceFreeze() int {
	moved := st.freeze()
	st.freezeAt = st.nextID
	return moved
}

// freezeAll freezes every currently stored hot row regardless of age —
// the pressure-driven path: once purging has done what it can, whatever
// survives is long-lived by definition.
func (st *joinState) freezeAll() int {
	st.freezeAt = st.nextID
	return st.freeze()
}

// freeze moves the hot prefix below freezeAt into the cold segment. The
// hot tier compacts first, so the prefix is tombstone-free and moves as
// one run: hot row r becomes cold row base+r, the rest shift down by the
// cut. Hot index buckets are split at the cut the same way — the prefix
// of each bucket (ascending, so a contiguous run) is appended to the cold
// bucket, whose existing rows are all smaller, so every bucket stays
// sorted with no per-row hashing.
func (st *joinState) freeze() int {
	if st.walkers > 0 || st.freezeAt <= st.frozenBound {
		return 0
	}
	st.frozenBound = st.freezeAt
	hot := &st.hot
	if hot.nDead > 0 {
		hot.compact()
	}
	cut, _ := slices.BinarySearch(hot.ids, st.freezeAt)
	if cut == 0 {
		return 0
	}
	if st.cold == nil {
		st.cold = &rowStore{index: hot.index.emptyLike()}
	}
	c := st.cold
	base := row(len(c.ids))
	c.ids = append(c.ids, hot.ids[:cut]...)
	c.tups = append(c.tups, hot.tups[:cut]...)
	c.dead = append(c.dead, hot.dead[:cut]...)
	c.mark = append(c.mark, hot.mark[:cut]...)
	for a, idx := range hot.index {
		if idx == nil {
			continue
		}
		frozen := c.index[a]
		idx.each(func(k mapKey, bucket []row) {
			i, _ := slices.BinarySearch(bucket, row(cut))
			if i > 0 {
				run := c.bucket(frozen, k)
				for _, r := range bucket[:i] {
					run = append(run, base+r)
				}
				frozen.put(k, run)
			}
			if i == len(bucket) {
				hot.unindex(idx, k, bucket)
				return
			}
			rest := bucket[:copy(bucket, bucket[i:])]
			for j := range rest {
				rest[j] -= row(cut)
			}
			idx.put(k, rest)
		})
	}
	// A mass freeze leaves the hot columns nearly empty: keeping the old
	// backing arrays would hold live-heap (and GC scan work) at hot+cold ≈
	// 2× the stored rows. Re-allocate right-sized columns then, so the
	// frozen bulk is resident once, in the segment.
	fresh := cap(hot.ids) >= 64 && (len(hot.ids)-cut)*4 <= cap(hot.ids)
	hot.ids = dropPrefix(hot.ids, cut, fresh)
	hot.tups = dropPrefix(hot.tups, cut, fresh)
	hot.dead = dropPrefix(hot.dead, cut, fresh)
	hot.mark = dropPrefix(hot.mark, cut, fresh)
	return cut
}

// dropPrefix removes col[:cut], in place or into a fresh array with room
// to double.
func dropPrefix[T any](col []T, cut int, fresh bool) []T {
	if fresh {
		return append(make([]T, 0, 2*(len(col)-cut)), col[cut:]...)
	}
	n := copy(col, col[cut:])
	clear(col[n:])
	return col[:n]
}
