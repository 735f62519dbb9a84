package exec

import (
	"slices"

	"punctsafe/stream"
)

// tupleID identifies a stored tuple within one join state. Ids are
// assigned monotonically and travel in snapshots; nothing resolves an id
// back to its tuple — stored tuples are addressed by row.
type tupleID uint64

// row is a position in one tier's columns.
type row uint32

// rowRef addresses one stored tuple of a joinState across both tiers: its
// row, with hotBit set when the row is in the hot tier. Cold rows precede
// hot rows in arrival order, so ascending rowRef = ascending tupleID. A
// rowRef stays valid until its tier compacts or freezes, which a holder
// defers with pin (a tier holds fewer than 2^31 rows).
type rowRef uint32

const (
	coldTier = 0
	hotTier  = 1
	hotBit   = rowRef(1) << 31
)

func mkRef(tier int, r row) rowRef { return rowRef(tier)*hotBit | rowRef(r) }

// rowStore is one tier of a joinState: the stored tuples as append-only
// columns in arrival order plus a hash index per join attribute, so both
// probing (for result emission) and purging (for punctuation matching)
// are value lookups rather than scans, and every deterministic-iteration
// requirement (probe expansion, purge cascades, sweeps all walk in arrival
// order) is a linear walk. The index buckets hold ROW POSITIONS: ascending
// row = ascending id = arrival order, appends keep them sorted for free,
// and the hop from a bucket entry to its tuple is tups[row] whatever the
// compaction history. Removal tombstones the row; compaction rewrites the
// columns once tombstones dominate and renumbers the buckets through an
// old-row→new-row table.
type rowStore struct {
	ids  []tupleID      // sorted ascending (monotonic assignment)
	tups []stream.Tuple // parallel to ids
	dead []bool         // parallel tombstones
	// mark is a scratch word per row: a purge round stamps the rows it has
	// queued (purge.go); compact, which never runs inside a round, borrows
	// it as its old-row→new-row table and leaves it zeroed.
	mark  []uint32
	index stateIndex
	// spare holds the buckets of keys that left the index, emptied with
	// their capacity kept; the next new key of any attribute starts from
	// one (bucket). No live key shares their arrays, and there are at most
	// as many as the tier's index held keys at once.
	spare [][]row
	nDead int
	head  int // every row below head is dead (oldest)
}

// compactMinDead bounds how small a tier bothers compacting; below it
// tombstones cost less than the rewrite.
const compactMinDead = 64

// stateIndex is the hash index of one tier, by attribute position:
// index[attr] maps the attribute's values to the ascending rows of the
// live tuples holding them. Only join attributes are indexed; the other
// positions are nil. Each attribute's container is keyed by the
// attribute's schema kind (keymap.go).
type stateIndex []*keyMap[[]row]

// emptyLike returns an empty index over the same attributes.
func (ix stateIndex) emptyLike() stateIndex {
	out := make(stateIndex, len(ix))
	for a, idx := range ix {
		if idx != nil {
			out[a] = newKeyMap[[]row](idx.num != nil)
		}
	}
	return out
}

// lookup returns the ascending live rows whose attribute attr equals v.
func (ix stateIndex) lookup(attr int, v stream.Value) []row {
	idx := ix[attr]
	if idx == nil {
		return nil
	}
	bucket, _ := idx.get(idx.keyOf(v))
	return bucket
}

// append stores a tuple under an id above every id present and indexes
// its join attributes; the new row is the highest, so buckets stay sorted
// by construction.
func (rs *rowStore) append(id tupleID, t stream.Tuple) {
	r := row(len(rs.ids))
	rs.ids = append(rs.ids, id)
	rs.tups = append(rs.tups, t)
	rs.dead = append(rs.dead, false)
	rs.mark = append(rs.mark, 0)
	for a, idx := range rs.index {
		if idx != nil {
			k := idx.keyOf(t.Values[a])
			idx.put(k, append(rs.bucket(idx, k), r))
		}
	}
}

// bucket returns idx's bucket for k or, for a key idx does not hold, a
// spare one (nil when none is kept).
func (rs *rowStore) bucket(idx *keyMap[[]row], k mapKey) []row {
	if b, ok := idx.get(k); ok {
		return b
	}
	b, _ := popLast(&rs.spare)
	return b
}

// unindex deletes key k from idx as its last row leaves, keeping the
// key's bucket b as a spare.
func (rs *rowStore) unindex(idx *keyMap[[]row], k mapKey, b []row) {
	idx.del(k)
	rs.spare = append(rs.spare, b[:0])
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

// remove tombstones the live row r and unindexes it.
func (rs *rowStore) remove(r row) {
	t := rs.tups[r]
	rs.dead[r] = true
	rs.tups[r] = stream.Tuple{} // release the value storage now
	rs.nDead++
	for a, idx := range rs.index {
		if idx == nil {
			continue
		}
		k := idx.keyOf(t.Values[a])
		bucket, _ := idx.get(k)
		if len(bucket) == 1 {
			rs.unindex(idx, k, bucket)
			continue
		}
		i, _ := slices.BinarySearch(bucket, r)
		idx.put(k, slices.Delete(bucket, i, i+1))
	}
}

// tombstoned reports whether tombstones dominate the tier.
func (rs *rowStore) tombstoned() bool {
	return rs.nDead >= compactMinDead && rs.nDead*2 >= len(rs.ids)
}

// compact rewrites the columns without tombstoned rows and renumbers the
// index buckets (which hold only live rows): one pass over the columns
// and one over the buckets, paid for by the tombstones that triggered it.
func (rs *rowStore) compact() {
	w := 0
	for r := range rs.ids {
		if rs.dead[r] {
			continue
		}
		rs.mark[r] = uint32(w)
		rs.ids[w], rs.tups[w], rs.dead[w] = rs.ids[r], rs.tups[r], false
		w++
	}
	for _, idx := range rs.index {
		if idx != nil {
			idx.each(func(_ mapKey, bucket []row) {
				for i, r := range bucket {
					bucket[i] = row(rs.mark[r])
				}
			})
		}
	}
	clear(rs.tups[w:])
	clear(rs.mark)
	rs.ids, rs.tups, rs.dead, rs.mark = rs.ids[:w], rs.tups[:w], rs.dead[:w], rs.mark[:w]
	rs.nDead, rs.head = 0, 0
}

// size returns the number of live rows.
func (rs *rowStore) size() int { return len(rs.ids) - rs.nDead }

// oldest returns the first live row. The dead prefix is skipped once:
// head only moves forward between compactions.
func (rs *rowStore) oldest() (row, bool) {
	for rs.head < len(rs.ids) && rs.dead[rs.head] {
		rs.head++
	}
	return row(rs.head), rs.head < len(rs.ids)
}

// joinState is the stored input of one stream inside a join operator
// (the Υ_S of §2.2), in two tiers (coldtier.go): rows older than the
// freeze watermark move from the hot row store into the cold one, keeping
// the hot columns short under long-lived state. Every cold id <
// frozenBound <= every hot id, so cold-then-hot is arrival order and
// per-tier intersections concatenate.
type joinState struct {
	hot rowStore
	// cold is the frozen tier, nil while nothing is frozen.
	cold   *rowStore
	nextID tupleID
	// walkers counts the holders of rowRefs into this state (each, a purge
	// round); compaction and freezing wait until it drops to zero.
	walkers int
	// frozenBound separates the tiers: ids below it live in cold (or are
	// gone), ids at or above it live in the hot columns.
	frozenBound tupleID
	// freezeAt is the pending watermark: the next freeze() moves hot rows
	// with id < freezeAt. advanceFreeze bumps it to nextID after.
	freezeAt tupleID
}

func newJoinState(sc *stream.Schema, joinAttrs []int) *joinState {
	index := make(stateIndex, sc.Arity())
	for _, a := range joinAttrs {
		index[a] = newKeyMap[[]row](sc.Attr(a).Kind != stream.KindString)
	}
	return &joinState{hot: rowStore{index: index}}
}

// insert stores a tuple in the hot tier.
func (st *joinState) insert(t stream.Tuple) {
	st.hot.append(st.nextID, t)
	st.nextID++
}

// tiers returns the row stores in arrival order, indexed by tier; the
// cold one is nil while nothing is frozen.
func (st *joinState) tiers() [2]*rowStore { return [2]*rowStore{st.cold, &st.hot} }

// at resolves a rowRef to its tier and row.
func (st *joinState) at(ref rowRef) (*rowStore, row) {
	if ref&hotBit != 0 {
		return &st.hot, row(ref &^ hotBit)
	}
	return st.cold, row(ref)
}

// remove deletes the live stored tuple at ref and unindexes it.
func (st *joinState) remove(ref rowRef) {
	rs, r := st.at(ref)
	rs.remove(r)
	st.tidy()
}

// removeOldest deletes the earliest-arrived stored tuple, if any.
func (st *joinState) removeOldest() {
	for ti, rs := range st.tiers() {
		if rs == nil {
			continue
		}
		if r, ok := rs.oldest(); ok {
			st.remove(mkRef(ti, r))
			return
		}
	}
}

// pin defers compaction and freezing until the matching unpin, so rowRefs
// taken in between stay valid across removals (which tombstone in place).
func (st *joinState) pin() { st.walkers++ }

func (st *joinState) unpin() {
	st.walkers--
	st.tidy()
}

// tidy applies the compaction policy once nothing holds a rowRef: a tier
// compacts when tombstones dominate it, and a fully-dead cold segment is
// released at once — below the threshold its tombstones would otherwise
// linger forever.
func (st *joinState) tidy() {
	if st.walkers > 0 {
		return
	}
	if st.hot.tombstoned() {
		st.hot.compact()
	}
	if c := st.cold; c != nil {
		if c.size() == 0 {
			st.cold = nil
		} else if c.tombstoned() {
			c.compact()
		}
	}
}

// size returns the number of stored (live) tuples across both tiers.
func (st *joinState) size() int { return st.hot.size() + st.coldSize() }

// coldSize returns the live tuples resident in the frozen tier.
func (st *joinState) coldSize() int {
	if st.cold == nil {
		return 0
	}
	return st.cold.size()
}

// tierBuckets is a two-tier candidate set, indexed by tier: the cold and
// hot index buckets for one (attribute, value) pair. Walking the cold run
// and then the hot run visits candidates in arrival order. Returned by
// value — probing allocates nothing for the split.
type tierBuckets [2][]row

func (tb tierBuckets) empty() bool { return len(tb[coldTier]) == 0 && len(tb[hotTier]) == 0 }

func (tb tierBuckets) total() int { return len(tb[coldTier]) + len(tb[hotTier]) }

// lookup2 returns the per-tier rows of the stored tuples whose attribute
// attr equals v. The buckets are owned by the state; callers must not
// modify them, or retain them across inserts or past a pin.
func (st *joinState) lookup2(attr int, v stream.Value) tierBuckets {
	tb := tierBuckets{hotTier: st.hot.index.lookup(attr, v)}
	if st.cold != nil {
		tb[coldTier] = st.cold.index.lookup(attr, v)
	}
	return tb
}

// each calls fn for every stored tuple until fn returns false. Tuples are
// visited in arrival order — a linear walk over the cold and then the hot
// columns — so every downstream effect (purge cascades, punctuation
// re-emission) is deterministic across runs. The state is pinned for the
// walk, so fn may remove the row it is visiting or any other.
func (st *joinState) each(fn func(rowRef, stream.Tuple) bool) {
	st.pin()
	defer st.unpin()
	for ti, rs := range st.tiers() {
		if rs == nil {
			continue
		}
		for r := range rs.ids {
			if !rs.dead[r] && !fn(mkRef(ti, row(r)), rs.tups[r]) {
				return
			}
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
