package exec

import (
	"sort"

	"punctsafe/stream"
)

// coldSegment is the frozen tier of a joinState: tuples whose ids fell
// below the freeze watermark, compacted out of the hot columns into an
// immutable-layout segment. "Immutable" refers to the rows, not the
// membership — punctuation purges still remove frozen tuples (tombstone
// + deferred recompaction, like the hot tier) — but nothing is ever
// inserted, so the segment carries no tombstones at freeze time, its id
// runs stay sorted for free, and the per-attribute buckets intersect
// directly with hot buckets under the same galloping probe.
//
// The tier invariant is held by the owning joinState: every cold id <
// frozenBound <= every hot id. That disjointness is what lets the probe
// intersect cold-with-cold and hot-with-hot independently and
// concatenate — the concatenation is still sorted.
type coldSegment struct {
	ids   []tupleID      // sorted ascending, all < owner's frozenBound
	tups  []stream.Tuple // parallel to ids
	dead  []bool         // parallel tombstones (purges after freezing)
	index stateIndex     // sorted live ids, mirroring the hot index
	nDead int
}

// pos returns the row of id in the sorted id column, or -1. Segments are
// usually gap-free (a frozen arrival prefix, born tombstone-free), so the
// guess row id-ids[0] hits exactly and the probe's per-candidate id
// resolution is O(1); compaction after purges introduces gaps and falls
// back to binary search.
func (c *coldSegment) pos(id tupleID) int {
	n := len(c.ids)
	if n == 0 || id < c.ids[0] || id > c.ids[n-1] {
		return -1
	}
	if d := id - c.ids[0]; d < tupleID(n) && c.ids[d] == id {
		return int(d)
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && c.ids[lo] == id {
		return lo
	}
	return -1
}

// get returns the frozen tuple for id, if live. The gap-free guess (see
// pos) is duplicated here so the probe's per-candidate resolution stays
// a single inlinable branch on the common dense-segment path.
func (c *coldSegment) get(id tupleID) (stream.Tuple, bool) {
	if n := len(c.ids); n > 0 && id >= c.ids[0] {
		if d := id - c.ids[0]; d < tupleID(n) && c.ids[d] == id {
			if c.dead[d] {
				return stream.Tuple{}, false
			}
			return c.tups[d], true
		}
	}
	return c.getSlow(id)
}

func (c *coldSegment) getSlow(id tupleID) (stream.Tuple, bool) {
	p := c.pos(id)
	if p < 0 || c.dead[p] {
		return stream.Tuple{}, false
	}
	return c.tups[p], true
}

// remove tombstones a frozen tuple and unindexes it. Recompaction policy
// lives with the owning joinState (it knows about active walkers).
func (c *coldSegment) remove(id tupleID) bool {
	p := c.pos(id)
	if p < 0 || c.dead[p] {
		return false
	}
	t := c.tups[p]
	c.dead[p] = true
	c.tups[p] = stream.Tuple{}
	c.nDead++
	c.index.drop(t, id)
	return true
}

// compact rewrites the columns without tombstoned rows.
func (c *coldSegment) compact() {
	w := 0
	for r := range c.ids {
		if c.dead[r] {
			continue
		}
		c.ids[w] = c.ids[r]
		c.tups[w] = c.tups[r]
		c.dead[w] = false
		w++
	}
	clearTuples(c.tups[w:])
	c.ids = c.ids[:w]
	c.tups = c.tups[:w]
	c.dead = c.dead[:w]
	c.nDead = 0
}

// size returns the number of live frozen tuples.
func (c *coldSegment) size() int { return len(c.ids) - c.nDead }

// appendRow adds one frozen row. The caller guarantees ids arrive in
// ascending order and above every id already present, so the columns stay
// sorted by construction; the caller indexes the row.
func (c *coldSegment) appendRow(id tupleID, t stream.Tuple) {
	c.ids = append(c.ids, id)
	c.tups = append(c.tups, t)
	c.dead = append(c.dead, false)
}

// tierBuckets is a two-tier candidate set: the cold and hot index
// buckets for one (attribute, value) pair. Ids in cold are all below
// ids in hot (the frozenBound invariant), so per-tier intersections
// concatenate into a single sorted candidate run. Returned by value —
// probing allocates nothing for the split.
type tierBuckets struct {
	cold, hot []tupleID
}

func (tb tierBuckets) empty() bool { return len(tb.cold) == 0 && len(tb.hot) == 0 }

func (tb tierBuckets) total() int { return len(tb.cold) + len(tb.hot) }

// runs returns the tiers as an iterable pair, cold first: walking runs
// in order visits candidate ids in ascending (arrival) order.
func (tb tierBuckets) runs() [2][]tupleID { return [2][]tupleID{tb.cold, tb.hot} }

// advanceFreeze runs one freeze generation: live hot rows older than the
// current watermark (id < freezeAt) move into the cold segment, then the
// watermark advances to nextID. Rows therefore spend at least one full
// inter-freeze interval in the hot tier before freezing. Freezing is
// skipped while a walker iterates (the walk would see moved rows twice
// or not at all); the next generation picks the rows up. Returns the
// number of rows frozen.
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

// freeze moves the live hot prefix below freezeAt into the cold segment.
// Tombstoned prefix rows are dropped outright — the segment is born
// tombstone-free. Hot index buckets are split at the watermark: the
// prefix of each bucket (sorted, so a contiguous run) moves wholesale to
// the cold bucket, whose existing ids are all smaller — appends keep
// every bucket sorted with no per-id work.
func (st *joinState) freeze() int {
	if st.walkers > 0 || st.freezeAt <= st.frozenBound {
		return 0
	}
	cut := sort.Search(len(st.ids), func(i int) bool { return st.ids[i] >= st.freezeAt })
	if cut == 0 {
		st.frozenBound = st.freezeAt
		return 0
	}
	if st.cold == nil {
		st.cold = &coldSegment{index: st.index.emptyLike()}
	}
	c := st.cold
	moved := 0
	for r := 0; r < cut; r++ {
		if st.dead[r] {
			continue
		}
		c.appendRow(st.ids[r], st.tups[r])
		moved++
	}
	for a, idx := range st.index {
		if idx == nil {
			continue
		}
		frozen := c.index[a]
		idx.each(func(k mapKey, bucket []tupleID) {
			i := sort.Search(len(bucket), func(i int) bool { return bucket[i] >= st.freezeAt })
			if i == 0 {
				return
			}
			// The frozen bucket's ids are all below the run: it stays sorted.
			run, _ := frozen.get(k)
			frozen.put(k, append(run, bucket[:i]...))
			if i == len(bucket) {
				idx.del(k)
				return
			}
			idx.put(k, bucket[:copy(bucket, bucket[i:])])
		})
	}
	n := len(st.ids) - cut
	if cap(st.ids) >= 64 && n*4 <= cap(st.ids) {
		// A mass freeze leaves the hot columns nearly empty: keeping the
		// old backing arrays would hold live-heap (and GC scan work) at
		// hot+cold ≈ 2× the stored rows. Re-allocate right-sized columns
		// so the frozen bulk is resident once, in the segment.
		st.ids = append(make([]tupleID, 0, 2*n), st.ids[cut:]...)
		st.tups = append(make([]stream.Tuple, 0, 2*n), st.tups[cut:]...)
		st.dead = append(make([]bool, 0, 2*n), st.dead[cut:]...)
	} else {
		copy(st.ids, st.ids[cut:])
		st.ids = st.ids[:n]
		copy(st.tups, st.tups[cut:])
		clearTuples(st.tups[n:])
		st.tups = st.tups[:n]
		copy(st.dead, st.dead[cut:])
		st.dead = st.dead[:n]
	}
	st.nDead -= cut - moved
	st.frozenBound = st.freezeAt
	if moved == 0 && c.size() == 0 {
		st.cold = nil
	}
	return moved
}
