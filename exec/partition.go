package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/stream"
)

// PartitionedTree executes one query as P independent replicas of its plan
// tree, each holding the join state of the keys hash-routed to it by the
// query's co-partitioning attribute class (plan.FindCoPartition). Tuples
// go to exactly one replica; punctuations go to all of them, so Theorem
// 1's purge guarantee holds replica-locally (a replica's state is the full
// state restricted to the keys it owns, and the punctuations it sees are
// the full punctuation stream).
//
// Output punctuations pass through an alignment gate: replica p emits a
// propagated punctuation once ITS state holds no matching tuple, which
// says nothing about the other replicas, so the merged output may carry a
// punctuation only after every replica has emitted it. The gate counts
// emissions per punctuation identity and releases one merged emission per
// full set, keeping the output stream's promises sound.
//
// Like Tree, a PartitionedTree is single-threaded: one goroutine drives
// Push/PushBatch/Flush/Sweep. The engine's partitioned shard instead
// drives the replicas from a worker pool through PushPartitionEnds +
// MergeOutputs, scatter-gathering so that at most one worker touches a
// replica at a time and the merge runs on the routing goroutine.
// Routing is a two-level map: the co-partition value hashes into one of
// plan.PartitionBuckets fixed buckets, and an immutable owner table
// (plan.PartitionSpec) maps buckets to replicas. The spec is held behind
// an atomic pointer so producers may hash without locks; a live split
// (Split) publishes a new spec wholesale. Everything else about a split
// — cloning the hot replica, filtering both sides, growing the gate —
// runs under the engine's control barrier with every worker parked, so
// only the routing pointer needs atomicity.
type PartitionedTree struct {
	q     *query.CJQ
	parts []*Tree
	route *plan.CoPartition
	desc  string
	// gate[punct identity] counts, per replica, output-punctuation
	// emissions not yet released into the merged stream. The identity is
	// the punctuation's text, appended into gateKey for lookups; released
	// entries leave their counts in spareCounts for the next new key.
	gate        map[string][]uint32
	gateKey     []byte
	spareCounts [][]uint32
	// routing is the current bucket→replica owner table.
	routing atomic.Pointer[plan.PartitionSpec]
	// base and root rebuild replica trees on Split and on restore of a
	// post-split snapshot. base.OnPressure holds the caller's original
	// (unserialized) callback; replicaConfig wraps it per replica.
	base Config
	root *plan.Node
	// pressMu serializes the shared pressure callback across replicas
	// driven by concurrent workers.
	pressMu sync.Mutex
}

// maxPartitions bounds P; the snapshot format and the engine's worker
// pool assume a sane small fan-out.
const maxPartitions = 64

// NewPartitionedTree compiles P replicas of the plan for Config's query.
// It fails with an error wrapping plan.ErrNotCoPartitionable when the join
// graph has no attribute class spanning every stream; callers fall back to
// the unpartitioned Tree.
func NewPartitionedTree(base Config, root *plan.Node, p int) (*PartitionedTree, error) {
	if p < 1 || p > maxPartitions {
		return nil, fmt.Errorf("exec: partition count %d out of range [1,%d]", p, maxPartitions)
	}
	if base.Query == nil {
		return nil, fmt.Errorf("exec: Config.Query is nil")
	}
	cp, err := plan.FindCoPartition(base.Query)
	if err != nil {
		return nil, err
	}
	pt := &PartitionedTree{
		q:     base.Query,
		parts: make([]*Tree, p),
		route: cp,
		desc:  cp.Describe(base.Query),
		gate:  make(map[string][]uint32),
		base:  base,
		root:  root,
	}
	pt.routing.Store(plan.NewPartitionSpec(p))
	for i := range pt.parts {
		t, err := NewTree(pt.replicaConfig(i), root)
		if err != nil {
			return nil, err
		}
		pt.parts[i] = t
	}
	return pt, nil
}

// replicaConfig derives replica part's operator Config: the shared base
// with the pressure callback wrapped to stamp the replica index (so the
// engine's split watcher can target the hot replica) and serialized
// across replicas driven by concurrent workers.
func (pt *PartitionedTree) replicaConfig(part int) Config {
	cfg := pt.base
	if orig := pt.base.OnPressure; orig != nil {
		cfg.OnPressure = func(ev PressureEvent) {
			pt.pressMu.Lock()
			defer pt.pressMu.Unlock()
			ev.Partition = part
			orig(ev)
		}
	}
	return cfg
}

// Partitions returns P.
func (pt *PartitionedTree) Partitions() int { return len(pt.parts) }

// Routing describes the co-partitioning attribute class, e.g.
// "item.itemid = bid.itemid".
func (pt *PartitionedTree) Routing() string { return pt.desc }

// Partition returns replica i. The engine's worker pool drives replicas
// directly; any other use must respect the one-driver-at-a-time rule.
func (pt *PartitionedTree) Partition(i int) *Tree { return pt.parts[i] }

// PartitionOf routes a tuple of stream streamIdx by the hash of its
// co-partitioning attribute through the current owner table. A tuple too
// short to carry the attribute (malformed; it will fail schema
// validation) routes to replica 0 so that rejection happens
// deterministically in exactly one replica. Safe to call from producer
// goroutines: the owner table is an immutable snapshot (see
// RoutingSpec for callers that must detect concurrent splits).
func (pt *PartitionedTree) PartitionOf(streamIdx int, t stream.Tuple) int {
	return pt.PartitionOfSpec(pt.routing.Load(), streamIdx, t)
}

// PartitionOfSpec is PartitionOf against a caller-held routing snapshot.
// The engine's ingestion front-end hashes whole runs outside its lock,
// then re-validates the snapshot pointer under the lock (RoutingSpec)
// and rehashes if a split replaced the table in between.
func (pt *PartitionedTree) PartitionOfSpec(spec *plan.PartitionSpec, streamIdx int, t stream.Tuple) int {
	if spec.Parts == 1 {
		return 0
	}
	a := pt.route.Attrs[streamIdx]
	if a >= len(t.Values) {
		return 0
	}
	return spec.OwnerOf(t.Values[a].Hash())
}

// RoutingSpec returns the current immutable owner table.
func (pt *PartitionedTree) RoutingSpec() *plan.PartitionSpec { return pt.routing.Load() }

// MergeOutputs folds one replica's output run into dst: result tuples
// pass through, output punctuations pass the alignment gate and are
// released only once every replica has emitted them. Call it on the
// routing goroutine, in a deterministic replica order, to keep the merged
// stream deterministic.
func (pt *PartitionedTree) MergeOutputs(dst []stream.Element, part int, outs []stream.Element) []stream.Element {
	for _, e := range outs {
		if !e.IsPunct() {
			dst = append(dst, e)
			continue
		}
		pt.gateKey = e.Punct().AppendTo(pt.gateKey[:0])
		counts := pt.gate[string(pt.gateKey)]
		if counts == nil {
			counts = pt.newCounts()
			pt.gate[string(pt.gateKey)] = counts
		}
		counts[part]++
		ready := true
		for _, c := range counts {
			if c == 0 {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		allZero := true
		for i := range counts {
			counts[i]--
			if counts[i] != 0 {
				allZero = false
			}
		}
		if allZero {
			delete(pt.gate, string(pt.gateKey))
			pt.spareCounts = append(pt.spareCounts, counts)
		}
		dst = append(dst, e)
	}
	return dst
}

// newCounts returns zeroed per-replica counts for a new gate key: the
// counts of a released key when one of the current length is kept (Split
// lengthens the live ones; kept ones of the old length are dropped).
func (pt *PartitionedTree) newCounts() []uint32 {
	for {
		c, ok := popLast(&pt.spareCounts)
		if !ok {
			return make([]uint32, len(pt.parts))
		}
		if len(c) == len(pt.parts) {
			return c // all zero: released at zero
		}
	}
}

// PushPartitionEnds drives one replica over a run of already-routed
// elements, appending outputs and per-element boundaries into the
// caller's buffers (see Tree.PushBatchEnds). It is the engine worker
// entry point; outputs must subsequently pass MergeOutputs on the routing
// goroutine.
func (pt *PartitionedTree) PushPartitionEnds(part, streamIdx int, out []stream.Element, ends []int, elems []stream.Element) ([]stream.Element, []int, int, error) {
	return pt.parts[part].PushBatchEnds(streamIdx, out, ends, elems)
}

// Push feeds one raw element sequentially: a tuple to the replica owning
// its key, a punctuation to every replica in order. Outputs are merged
// through the alignment gate. This is the reference semantics the engine's
// worker pool must match element-for-element.
func (pt *PartitionedTree) Push(streamIdx int, e stream.Element) ([]stream.Element, error) {
	if streamIdx < 0 || streamIdx >= pt.q.N() {
		return nil, fmt.Errorf("exec: stream %d out of range", streamIdx)
	}
	if e.IsPunct() {
		var out []stream.Element
		var firstErr error
		for p := range pt.parts {
			outs, err := pt.parts[p].Push(streamIdx, e)
			if err != nil {
				// Validation is deterministic, so every replica rejects the
				// same element before mutating state; keep broadcasting so
				// replica clocks stay aligned.
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			out = pt.MergeOutputs(out, p, outs)
		}
		if firstErr != nil {
			return nil, firstErr
		}
		return out, nil
	}
	p := pt.PartitionOf(streamIdx, e.Tuple())
	outs, err := pt.parts[p].Push(streamIdx, e)
	if err != nil {
		return nil, err
	}
	return pt.MergeOutputs(nil, p, outs), nil
}

// PushBatch feeds a run of elements from one stream with Tree.PushBatch's
// offender semantics: on error the offender is elems[n] and preceding
// outputs are kept.
func (pt *PartitionedTree) PushBatch(streamIdx int, elems []stream.Element) ([]stream.Element, int, error) {
	var out []stream.Element
	for i := range elems {
		outs, err := pt.Push(streamIdx, elems[i])
		if err != nil {
			return out, i, err
		}
		out = append(out, outs...)
	}
	return out, len(elems), nil
}

// Flush forces pending lazy purge rounds in every replica, merging their
// outputs in replica order.
func (pt *PartitionedTree) Flush() ([]stream.Element, error) {
	var out []stream.Element
	for p := range pt.parts {
		outs, err := pt.parts[p].Flush()
		if err != nil {
			return out, err
		}
		out = pt.MergeOutputs(out, p, outs)
	}
	return out, nil
}

// Sweep runs a clean-up pass over every replica, returning the total
// tuples removed plus merged outputs.
func (pt *PartitionedTree) Sweep() (int, []stream.Element, error) {
	removed := 0
	var out []stream.Element
	for p := range pt.parts {
		n, outs, err := pt.parts[p].Sweep()
		if err != nil {
			return 0, nil, err
		}
		removed += n
		out = pt.MergeOutputs(out, p, outs)
	}
	return removed, out, nil
}

// StatsSnapshot returns one aggregate Stats per operator position (the
// Tree.Operators order), summing across replicas via Stats.Add. Note
// PunctsIn counts every broadcast copy (P× the ingested punctuations) and
// the Max* watermarks sum per-replica peaks.
func (pt *PartitionedTree) StatsSnapshot() []*Stats {
	agg := pt.parts[0].StatsSnapshot()
	for p := 1; p < len(pt.parts); p++ {
		for i, s := range pt.parts[p].StatsSnapshot() {
			agg[i].Add(s)
		}
	}
	return agg
}

// TotalState sums stored tuples across replicas and operators.
func (pt *PartitionedTree) TotalState() int {
	total := 0
	for _, t := range pt.parts {
		total += t.TotalState()
	}
	return total
}

// TotalPunctStore sums stored punctuations across replicas and operators.
func (pt *PartitionedTree) TotalPunctStore() int {
	total := 0
	for _, t := range pt.parts {
		total += t.TotalPunctStore()
	}
	return total
}

// MaxState sums the per-replica high-water marks.
func (pt *PartitionedTree) MaxState() int {
	total := 0
	for _, t := range pt.parts {
		total += t.MaxState()
	}
	return total
}

// OutputSchema is the (replica-independent) root output schema.
func (pt *PartitionedTree) OutputSchema() *stream.Schema { return pt.parts[0].OutputSchema() }

// coValueCol returns the column holding the co-partition value inside
// the stored tuples of one operator input (= one plan child). A child's
// output schema concatenates its leaf schemas in subtree order, so the
// first leaf's columns start at offset 0 and the routing attribute of
// that leaf IS the column. (An intermediate tuple can carry differing
// co-values across its leaves only if it can never complete a join
// result — the predicates equate the class on every result — so
// assigning by the first leaf is both safe and deterministic.)
func (pt *PartitionedTree) coValueCol(node *plan.Node, child int) int {
	return pt.route.Attrs[node.Children[child].Leaves()[0]]
}

// bucketLoad accumulates a replica's stored-tuple count per hash bucket
// — the skew histogram SplitOwner balances against.
func (pt *PartitionedTree) bucketLoad(t *Tree, load *[plan.PartitionBuckets]uint64) {
	for _, op := range t.ops {
		m := op.join
		for ci, st := range m.states {
			col := pt.coValueCol(op.node, ci)
			st.each(func(_ rowRef, u stream.Tuple) bool {
				if col < len(u.Values) {
					load[u.Values[col].Hash()%plan.PartitionBuckets]++
				}
				return true
			})
		}
	}
}

// Split carves replica hot's key range in two: a new replica (index
// Partitions()) is cloned from hot's full state — join columns,
// punctuation stores, pending punctuations, clocks — via the snapshot
// codec, both sides drop the stored tuples the new owner table routes
// away from them, and the new table is published. The caller must hold
// the tree quiesced (no worker driving any replica, no producer
// enqueuing): the engine runs Split inside its control barrier.
//
// The returned elements are gate-merged outputs the split itself
// unblocked: a stored punctuation whose last matching tuples were
// filtered to the sibling becomes emittable on the side that lost them,
// and without re-testing it there the alignment gate would starve and
// the merged stream would never carry it. The caller must deliver them
// in stream position (the engine's merge stage does so at the barrier).
//
// Split fails without touching the tree when the replica bound is
// reached or when hot's load sits in a single hash bucket (one
// pathological key cannot be separated by bucket routing).
func (pt *PartitionedTree) Split(hot int) (int, []stream.Element, error) {
	spec := pt.routing.Load()
	if hot < 0 || hot >= len(pt.parts) {
		return -1, nil, fmt.Errorf("exec: split of unknown partition %d (have %d)", hot, len(pt.parts))
	}
	if len(pt.parts) >= maxPartitions {
		return -1, nil, fmt.Errorf("exec: partition bound %d reached; cannot split further", maxPartitions)
	}
	var load [plan.PartitionBuckets]uint64
	pt.bucketLoad(pt.parts[hot], &load)
	next, err := spec.SplitOwner(hot, load)
	if err != nil {
		return -1, nil, err
	}
	newPart := next.Parts - 1
	// Clone hot through the snapshot codec: the round-trip is the proven
	// state copier (checkpoint equivalence rests on it), and it rebuilds
	// the clone's index tiers born-sorted.
	var blob bytes.Buffer
	if err := pt.parts[hot].WriteState(&blob); err != nil {
		return -1, nil, fmt.Errorf("exec: snapshotting hot partition %d: %w", hot, err)
	}
	clone, err := NewTree(pt.replicaConfig(newPart), pt.root)
	if err != nil {
		return -1, nil, err
	}
	if err := clone.ReadState(bytes.NewReader(blob.Bytes())); err != nil {
		return -1, nil, fmt.Errorf("exec: cloning hot partition %d: %w", hot, err)
	}
	pt.filterReplica(pt.parts[hot], hot, next)
	pt.filterReplica(clone, newPart, next)
	resetCumulativeStats(clone)
	// The clone inherited hot's emitted-punctuation history (it will
	// never re-emit those), so credit it with hot's outstanding gate
	// counts; punctuations neither side has emitted yet will be emitted
	// by both as their filtered states drain.
	for k, counts := range pt.gate {
		pt.gate[k] = append(counts, counts[hot])
	}
	pt.parts = append(pt.parts, clone)
	pt.routing.Store(next)
	// Filtering removed tuples without the purge machinery; re-test each
	// side's stored punctuations so emissions unblocked by the move reach
	// the gate. The side still owning a punctuation's keys declines (it
	// has the matches), so the merged release keeps the single-tree
	// position.
	var out []stream.Element
	for _, p := range []int{hot, newPart} {
		outs, err := pt.parts[p].emitUnblocked()
		if err != nil {
			return -1, nil, fmt.Errorf("exec: re-testing punctuations after split of %d: %w", hot, err)
		}
		out = pt.MergeOutputs(out, p, outs)
	}
	return newPart, out, nil
}

// filterReplica drops every stored tuple the owner table routes away
// from replica part, across all operators and tiers, and refreshes the
// size gauges. Removals bypass the purge counters: the tuples move to
// the sibling replica, they do not leave the query's state.
func (pt *PartitionedTree) filterReplica(t *Tree, part int, spec *plan.PartitionSpec) {
	for _, op := range t.ops {
		m := op.join
		for ci, st := range m.states {
			col := pt.coValueCol(op.node, ci)
			st.each(func(ref rowRef, u stream.Tuple) bool {
				if col < len(u.Values) && spec.OwnerOf(u.Values[col].Hash()) != part {
					st.remove(ref)
				}
				return true
			})
			m.stats.StateSize[ci] = st.size()
			m.stats.ColdSize[ci] = st.coldSize()
		}
	}
}

// resetCumulativeStats zeroes a cloned replica's lifetime counters so
// replica sums stay exact across a split: the clone keeps only the
// gauges describing what it now holds (state and store sizes), with its
// watermarks restarted from them. Everything cumulative — inputs,
// results, purges — already lives in the parent's counters.
func resetCumulativeStats(t *Tree) {
	for _, op := range t.ops {
		s := op.join.stats
		for i := range s.TuplesIn {
			s.TuplesIn[i] = 0
			s.PunctsIn[i] = 0
			s.TuplesPurged[i] = 0
			s.PunctsPurged[i] = 0
		}
		s.Results = 0
		s.OutPuncts = 0
		s.PurgeChecks = 0
		s.PressureEvents = 0
		s.Freezes = 0
		s.MaxStateSize = s.TotalState()
		s.MaxPunctStoreSize = s.TotalPunctStore()
	}
}

// Partitioned state serialization: a "PTP2" wrapper holding the owner
// table, P length-prefixed Tree snapshots (the PTR1 format of
// snapshot.go), and the alignment-gate counters, so a restored
// PartitionedTree resumes emission exactly where the checkpoint left it.
// Unlike PTP1, the partition count is data, not shape: a snapshot taken
// after live splits restores into a tree registered with the original
// partition count by growing it to match (InstallState appends the
// staged extra replicas before committing).

const partTreeStateMagic = "PTP2"

// PartitionedTreeState is a decoded, validated snapshot of a partitioned
// tree, detached until InstallState commits it.
type PartitionedTreeState struct {
	spec  *plan.PartitionSpec
	parts []*TreeState
	// extra holds freshly built replica trees for snapshot partitions
	// beyond the live tree's current count (post-split snapshots);
	// parts[len(pt.parts)+i] installs into extra[i].
	extra []*Tree
	gate  map[string][]uint32
}

// WriteState serializes the owner table, all replica states and the
// alignment gate. Same quiescence rule as Tree.WriteState.
func (pt *PartitionedTree) WriteState(w io.Writer) error {
	buf := make([]byte, 0, 4096)
	buf = append(buf, partTreeStateMagic...)
	spec := pt.routing.Load()
	buf = binary.AppendUvarint(buf, uint64(spec.Parts))
	for _, o := range spec.Owner {
		buf = append(buf, byte(o))
	}
	buf = binary.AppendUvarint(buf, uint64(len(pt.parts)))
	var blob bytes.Buffer
	for _, t := range pt.parts {
		blob.Reset()
		if err := t.WriteState(&blob); err != nil {
			return err
		}
		buf = binary.AppendUvarint(buf, uint64(blob.Len()))
		buf = append(buf, blob.Bytes()...)
	}
	keys := make([]string, 0, len(pt.gate))
	for k := range pt.gate {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		for _, c := range pt.gate[k] {
			buf = binary.AppendUvarint(buf, uint64(c))
		}
	}
	_, err := w.Write(buf)
	return err
}

// DecodeState parses a WriteState snapshot against this tree's shape (same
// P, same plan) without modifying it; failures wrap ErrCorruptState.
func (pt *PartitionedTree) DecodeState(r io.Reader) (*PartitionedTreeState, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading state: %v", ErrCorruptState, err)
	}
	d := &stateDec{buf: buf}
	magic, err := d.take(len(partTreeStateMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != partTreeStateMagic {
		return nil, fmt.Errorf("%w: unsupported partitioned state version %q", ErrCorruptState, magic)
	}
	specParts, err := d.count("routing partition count")
	if err != nil {
		return nil, err
	}
	if specParts < 1 || specParts > maxPartitions {
		return nil, fmt.Errorf("%w: routing partition count %d out of range [1,%d]", ErrCorruptState, specParts, maxPartitions)
	}
	owners, err := d.take(plan.PartitionBuckets)
	if err != nil {
		return nil, err
	}
	spec := &plan.PartitionSpec{Parts: specParts}
	for b, o := range owners {
		if int(o) >= specParts {
			return nil, fmt.Errorf("%w: bucket %d owned by partition %d of %d", ErrCorruptState, b, o, specParts)
		}
		spec.Owner[b] = int32(o)
	}
	p, err := d.count("partition count")
	if err != nil {
		return nil, err
	}
	if p != specParts {
		return nil, fmt.Errorf("%w: snapshot holds %d partitions but routes over %d", ErrCorruptState, p, specParts)
	}
	if p < len(pt.parts) {
		return nil, fmt.Errorf("%w: snapshot holds %d partitions, tree has %d", ErrCorruptState, p, len(pt.parts))
	}
	st := &PartitionedTreeState{
		spec:  spec,
		parts: make([]*TreeState, p),
		gate:  make(map[string][]uint32),
	}
	for i := 0; i < p; i++ {
		blobLen, err := d.count("partition blob length")
		if err != nil {
			return nil, err
		}
		blob, err := d.take(blobLen)
		if err != nil {
			return nil, err
		}
		// Snapshot partitions beyond the live tree (post-split snapshots)
		// decode against — and later install into — freshly built replicas.
		tree := (*Tree)(nil)
		if i < len(pt.parts) {
			tree = pt.parts[i]
		} else {
			if tree, err = NewTree(pt.replicaConfig(i), pt.root); err != nil {
				return nil, fmt.Errorf("partition %d: %w", i, err)
			}
			st.extra = append(st.extra, tree)
		}
		ts, err := tree.DecodeState(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", i, err)
		}
		st.parts[i] = ts
	}
	nGate, err := d.count("gate entry count")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nGate; i++ {
		keyLen, err := d.count("gate key length")
		if err != nil {
			return nil, err
		}
		key, err := d.take(keyLen)
		if err != nil {
			return nil, err
		}
		if _, dup := st.gate[string(key)]; dup {
			return nil, fmt.Errorf("%w: duplicate gate entry %q", ErrCorruptState, key)
		}
		counts := make([]uint32, p)
		for j := range counts {
			v, err := d.uvarint("gate count")
			if err != nil {
				return nil, err
			}
			if v > 1<<31 {
				return nil, fmt.Errorf("%w: gate count %d out of range", ErrCorruptState, v)
			}
			counts[j] = uint32(v)
		}
		st.gate[string(key)] = counts
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes after partitioned state", ErrCorruptState, len(d.buf)-d.off)
	}
	return st, nil
}

// InstallState commits a snapshot previously decoded against this tree,
// growing the replica set when the snapshot was taken after live splits.
func (pt *PartitionedTree) InstallState(s *PartitionedTreeState) error {
	if len(s.parts) != len(pt.parts)+len(s.extra) {
		return fmt.Errorf("%w: snapshot holds %d partitions, tree has %d (+%d staged)",
			ErrCorruptState, len(s.parts), len(pt.parts), len(s.extra))
	}
	for i, t := range pt.parts {
		if err := t.InstallState(s.parts[i]); err != nil {
			return err
		}
	}
	for j, t := range s.extra {
		if err := t.InstallState(s.parts[len(pt.parts)+j]); err != nil {
			return err
		}
	}
	pt.parts = append(pt.parts, s.extra...)
	pt.routing.Store(s.spec)
	pt.gate = s.gate
	return nil
}
