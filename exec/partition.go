package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"

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
// Routing is a fixed function of the co-partition value's hash
// (plan.PartitionOf), so producers may route without locks.
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
	}
	for i := range pt.parts {
		// The pressure callback is stamped with the replica index and
		// serialized across replicas driven by concurrent workers.
		cfg := base
		if orig := base.OnPressure; orig != nil {
			cfg.OnPressure = func(ev PressureEvent) {
				pt.pressMu.Lock()
				defer pt.pressMu.Unlock()
				ev.Partition = i
				orig(ev)
			}
		}
		t, err := NewTree(cfg, root)
		if err != nil {
			return nil, err
		}
		pt.parts[i] = t
	}
	return pt, nil
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
// co-partitioning attribute (plan.PartitionOf). A tuple too short to
// carry the attribute (malformed; it will fail schema validation) routes
// to replica 0 so that rejection happens deterministically in exactly one
// replica. Safe to call from producer goroutines.
func (pt *PartitionedTree) PartitionOf(streamIdx int, t stream.Tuple) int {
	if len(pt.parts) == 1 {
		return 0
	}
	a := pt.route.Attrs[streamIdx]
	if a >= len(t.Values) {
		return 0
	}
	return plan.PartitionOf(t.Values[a].Hash(), len(pt.parts))
}

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
// counts of a released key (all zero again) when one is kept.
func (pt *PartitionedTree) newCounts() []uint32 {
	if c, ok := popLast(&pt.spareCounts); ok {
		return c
	}
	return make([]uint32, len(pt.parts))
}

// PushPartitionEnds drives one replica over a run of already-routed
// elements, appending outputs and per-element boundaries into the
// caller's buffers and carving result tuples out of vals (see
// Tree.PushBatchEnds). It is the engine worker entry point; outputs must
// subsequently pass MergeOutputs on the routing goroutine, and the
// results' Values are valid until the caller writes vals again.
func (pt *PartitionedTree) PushPartitionEnds(part, streamIdx int, out []stream.Element, ends []int, vals []stream.Value, elems []stream.Element) ([]stream.Element, []int, []stream.Value, int, error) {
	return pt.parts[part].PushBatchEnds(streamIdx, out, ends, vals, elems)
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

// Partitioned state serialization: a "PTP2" wrapper holding the routing
// table, P length-prefixed Tree snapshots (the PTR1 format of
// snapshot.go), and the alignment-gate counters, so a restored
// PartitionedTree resumes emission exactly where the checkpoint left it.
// The routing table is the partition count and one owner byte per hash
// bucket; routing is fixed, so the owners are always plan.PartitionOf's
// round-robin, and a snapshot routing any other way (one written after a
// live split, which this code no longer performs) or over another
// partition count is rejected.

const partTreeStateMagic = "PTP2"

// PartitionedTreeState is a decoded, validated snapshot of a partitioned
// tree, detached until InstallState commits it.
type PartitionedTreeState struct {
	parts []*TreeState
	gate  map[string][]uint32
}

// WriteState serializes the routing table, all replica states and the
// alignment gate. Same quiescence rule as Tree.WriteState.
func (pt *PartitionedTree) WriteState(w io.Writer) error {
	buf := make([]byte, 0, 4096)
	buf = append(buf, partTreeStateMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(pt.parts)))
	for b := range plan.PartitionBuckets {
		buf = append(buf, byte(plan.PartitionOf(uint64(b), len(pt.parts))))
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
	p := len(pt.parts)
	routed, err := d.count("routing partition count")
	if err != nil {
		return nil, err
	}
	if routed != p {
		return nil, fmt.Errorf("%w: snapshot routes over %d partitions, tree has %d", ErrCorruptState, routed, p)
	}
	owners, err := d.take(plan.PartitionBuckets)
	if err != nil {
		return nil, err
	}
	for b, o := range owners {
		if want := plan.PartitionOf(uint64(b), p); int(o) != want {
			return nil, fmt.Errorf("%w: bucket %d owned by partition %d, fixed routing says %d", ErrCorruptState, b, o, want)
		}
	}
	n, err := d.count("partition count")
	if err != nil {
		return nil, err
	}
	if n != p {
		return nil, fmt.Errorf("%w: snapshot holds %d partitions, tree has %d", ErrCorruptState, n, p)
	}
	st := &PartitionedTreeState{
		parts: make([]*TreeState, p),
		gate:  make(map[string][]uint32),
	}
	for i, tree := range pt.parts {
		blobLen, err := d.count("partition blob length")
		if err != nil {
			return nil, err
		}
		blob, err := d.take(blobLen)
		if err != nil {
			return nil, err
		}
		if st.parts[i], err = tree.DecodeState(bytes.NewReader(blob)); err != nil {
			return nil, fmt.Errorf("partition %d: %w", i, err)
		}
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

// InstallState commits a snapshot previously decoded against this tree.
func (pt *PartitionedTree) InstallState(s *PartitionedTreeState) error {
	if len(s.parts) != len(pt.parts) {
		return fmt.Errorf("%w: snapshot holds %d partitions, tree has %d", ErrCorruptState, len(s.parts), len(pt.parts))
	}
	for i, t := range pt.parts {
		if err := t.InstallState(s.parts[i]); err != nil {
			return err
		}
	}
	pt.gate = s.gate
	return nil
}
