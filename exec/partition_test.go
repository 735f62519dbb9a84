package exec

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/stream"
)

// starQuery builds a 3-way star query equi-joined on one shared attribute
// (every stream's A) — the co-partitionable shape the partitioned tree
// routes on.
func starQuery(t *testing.T) *query.CJQ {
	t.Helper()
	q, err := query.NewBuilder().
		AddStream(mustSchema("S1", "A", "B")).
		AddStream(mustSchema("S2", "A", "C")).
		AddStream(mustSchema("S3", "A", "D")).
		Join("S1.A", "S2.A").
		Join("S2.A", "S3.A").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func starSchemes() *stream.SchemeSet {
	return stream.NewSchemeSet(
		stream.MustScheme("S1", true, false), // S1.A
		stream.MustScheme("S2", true, false), // S2.A
		stream.MustScheme("S3", true, false), // S3.A
	)
}

// starWorkload generates rounds of key-windowed tuples on all three
// streams, closing every key of the round with punctuations on each
// stream's A at the end of the round.
func starWorkload(rng *rand.Rand, rounds, perRound, window int) []event {
	var evs []event
	val := func(r int) int64 { return int64(r*window + rng.Intn(window)) }
	for r := 0; r < rounds; r++ {
		for k := 0; k < perRound; k++ {
			evs = append(evs,
				event{0, stream.TupleElement(tup(val(r), int64(k)))},
				event{1, stream.TupleElement(tup(val(r), int64(k+100)))},
				event{2, stream.TupleElement(tup(val(r), int64(k+200)))},
			)
		}
		for w := 0; w < window; w++ {
			v := int64(r*window + w)
			evs = append(evs,
				event{0, stream.PunctElement(punct(v, -1))},
				event{1, stream.PunctElement(punct(v, -1))},
				event{2, stream.PunctElement(punct(v, -1))},
			)
		}
	}
	return evs
}

// TestPartitionedTreeMatchesSequential: for every P, driving the
// partitioned tree's sequential reference path (Push / Flush) over a
// closed workload must produce the exact element sequence — result tuples
// AND output punctuations, in order — of the single Tree, and both must
// drain to zero state.
func TestPartitionedTreeMatchesSequential(t *testing.T) {
	q := starQuery(t)
	schemes := starSchemes()
	root := plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2))
	evs := starWorkload(rand.New(rand.NewSource(11)), 6, 5, 3)
	cfg := Config{Query: q, Schemes: schemes}

	ref, err := NewTree(cfg, root)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, ev := range evs {
		outs, err := ref.Push(ev.stream, ev.el)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			want = append(want, o.String())
		}
	}
	outs, err := ref.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		want = append(want, o.String())
	}
	if len(want) == 0 {
		t.Fatal("workload produced no outputs; test is vacuous")
	}
	if ref.TotalState() != 0 {
		t.Fatalf("reference tree should drain, has %d tuples", ref.TotalState())
	}

	for _, p := range []int{1, 2, 3, 4} {
		pt, err := NewPartitionedTree(cfg, root, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		var got []string
		for _, ev := range evs {
			outs, err := pt.Push(ev.stream, ev.el)
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			for _, o := range outs {
				got = append(got, o.String())
			}
		}
		outs, err := pt.Flush()
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for _, o := range outs {
			got = append(got, o.String())
		}
		if len(got) != len(want) {
			t.Fatalf("p=%d emitted %d elements, single tree %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d element %d diverges:\n  partitioned: %s\n  single tree: %s", p, i, got[i], want[i])
			}
		}
		if pt.TotalState() != 0 {
			t.Fatalf("p=%d should drain, has %d tuples", p, pt.TotalState())
		}
		if p > 1 {
			spread := 0
			for i := 0; i < p; i++ {
				if pt.Partition(i).StatsSnapshot()[0].TuplesIn[0] > 0 {
					spread++
				}
			}
			if spread < 2 {
				t.Fatalf("p=%d: tuples landed in %d replicas; routing is degenerate", p, spread)
			}
		}
	}
}

// TestPartitionedSnapshotRoundTrip: snapshotting a partitioned tree
// mid-stream and restoring into a fresh one must continue exactly like the
// uninterrupted tree — outputs, state, and gate alignment all carry over.
func TestPartitionedSnapshotRoundTrip(t *testing.T) {
	q := starQuery(t)
	schemes := starSchemes()
	root := plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2))
	evs := starWorkload(rand.New(rand.NewSource(12)), 6, 5, 3)
	cfg := Config{Query: q, Schemes: schemes}
	const p = 3
	half := len(evs) / 2

	run := func(pt *PartitionedTree, evs []event) []string {
		var out []string
		for _, ev := range evs {
			outs, err := pt.Push(ev.stream, ev.el)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				out = append(out, o.String())
			}
		}
		return out
	}

	orig, err := NewPartitionedTree(cfg, root, p)
	if err != nil {
		t.Fatal(err)
	}
	run(orig, evs[:half])
	var snap bytes.Buffer
	if err := orig.WriteState(&snap); err != nil {
		t.Fatal(err)
	}

	restored, err := NewPartitionedTree(cfg, root, p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := restored.DecodeState(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.InstallState(st); err != nil {
		t.Fatal(err)
	}
	if restored.TotalState() != orig.TotalState() || restored.TotalPunctStore() != orig.TotalPunctStore() {
		t.Fatalf("restored state %d/%d tuples/puncts, want %d/%d",
			restored.TotalState(), restored.TotalPunctStore(), orig.TotalState(), orig.TotalPunctStore())
	}

	want := run(orig, evs[half:])
	got := run(restored, evs[half:])
	if len(want) == 0 {
		t.Fatal("second half produced no outputs; test is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("restored tree emitted %d elements after the snapshot, original %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d diverges after restore:\n  restored: %s\n  original: %s", i, got[i], want[i])
		}
	}

	// A snapshot only restores into a tree with the same partition count.
	other, err := NewPartitionedTree(cfg, root, p+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.DecodeState(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("decode into %d partitions = %v, want ErrCorruptState", p+1, err)
	}
}

// TestPartitionedSnapshotRejectsOtherRouting: routing is fixed, so a PTP2
// snapshot must route round-robin over the tree's own partition count. A
// snapshot whose owner table says otherwise (as one taken after a live
// split would) or whose partition count differs is corrupt to this tree.
func TestPartitionedSnapshotRejectsOtherRouting(t *testing.T) {
	q := starQuery(t)
	root := plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2))
	cfg := Config{Query: q, Schemes: starSchemes()}
	const p = 3
	newTree := func(p int) *PartitionedTree {
		pt, err := NewPartitionedTree(cfg, root, p)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	orig := newTree(p)
	evs := starWorkload(rand.New(rand.NewSource(13)), 4, 5, 3)
	for _, ev := range evs[:len(evs)/2] {
		if _, err := orig.Push(ev.stream, ev.el); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := orig.WriteState(&snap); err != nil {
		t.Fatal(err)
	}
	blob := snap.Bytes()
	// Layout: "PTP2", uvarint routing count, one owner byte per bucket.
	const owners = len(partTreeStateMagic) + 1
	for b := 0; b < plan.PartitionBuckets; b++ {
		if int(blob[owners+b]) != b%p {
			t.Fatalf("bucket %d written as owned by %d, want round-robin %d", b, blob[owners+b], b%p)
		}
	}
	if _, err := newTree(p).DecodeState(bytes.NewReader(blob)); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
	edit := func(at int, v byte) []byte {
		g := slices.Clone(blob)
		g[at] = v
		return g
	}
	for name, g := range map[string][]byte{
		"owner moved off round-robin":  edit(owners+4, 0),
		"routing count not the tree's": edit(owners-1, p+1),
	} {
		if _, err := newTree(p).DecodeState(bytes.NewReader(g)); !errors.Is(err, ErrCorruptState) {
			t.Errorf("%s: DecodeState = %v, want ErrCorruptState", name, err)
		}
	}
	for _, other := range []int{p - 1, p + 1} {
		if _, err := newTree(other).DecodeState(bytes.NewReader(blob)); !errors.Is(err, ErrCorruptState) {
			t.Errorf("decode of a %d-partition snapshot into %d partitions = %v, want ErrCorruptState", p, other, err)
		}
	}
}

// TestPartitionedTreeNotCoPartitionable: the cyclic Figure-5 query joins
// on three distinct attribute classes, none spanning all streams, so the
// partitioned tree must refuse it with the sentinel the engine's fallback
// dispatches on.
func TestPartitionedTreeNotCoPartitionable(t *testing.T) {
	q := fig5Query(t)
	root := plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2))
	_, err := NewPartitionedTree(Config{Query: q, Schemes: fig5Schemes()}, root, 2)
	if !errors.Is(err, plan.ErrNotCoPartitionable) {
		t.Fatalf("NewPartitionedTree = %v, want ErrNotCoPartitionable", err)
	}
}

// TestPartitionedTreeValidation rejects out-of-range partition counts.
func TestPartitionedTreeValidation(t *testing.T) {
	q := starQuery(t)
	root := plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2))
	cfg := Config{Query: q, Schemes: starSchemes()}
	for _, p := range []int{0, -1, maxPartitions + 1} {
		if _, err := NewPartitionedTree(cfg, root, p); err == nil {
			t.Fatalf("NewPartitionedTree accepted partition count %d", p)
		}
	}
}

// TestAlignmentGateSingleEmission pins the gate invariant directly: a
// punctuation emitted by only some replicas is withheld; the full set
// releases exactly one merged copy, and the gate resets for re-emission.
func TestAlignmentGateSingleEmission(t *testing.T) {
	q := starQuery(t)
	root := plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2))
	pt, err := NewPartitionedTree(Config{Query: q, Schemes: starSchemes()}, root, 2)
	if err != nil {
		t.Fatal(err)
	}
	pe := stream.PunctElement(punct(7, -1, 7, -1, 7, -1))
	for round := 0; round < 2; round++ {
		if out := pt.MergeOutputs(nil, 0, []stream.Element{pe}); len(out) != 0 {
			t.Fatalf("round %d: gate released %d elements after 1 of 2 replicas", round, len(out))
		}
		out := pt.MergeOutputs(nil, 1, []stream.Element{pe})
		if len(out) != 1 || out[0].String() != pe.String() {
			t.Fatalf("round %d: gate released %v after full set, want exactly the punctuation", round, out)
		}
	}
	if len(pt.gate) != 0 {
		t.Fatalf("gate should be empty after balanced emissions, holds %d entries", len(pt.gate))
	}
}

// TestAlignmentGateAllocs: a warmed gate allocates one key string per new
// gate entry and nothing per replica emission — the identity is appended
// into a kept buffer and looked up without a conversion, and a released
// entry's counts serve the next new key.
func TestAlignmentGateAllocs(t *testing.T) {
	q := starQuery(t)
	root := plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2))
	pt, err := NewPartitionedTree(Config{Query: q, Schemes: starSchemes()}, root, 2)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 64
	puncts := make([]stream.Element, keys)
	for k := range puncts {
		puncts[k] = stream.PunctElement(punct(int64(k), -1, int64(k), -1, int64(k), -1))
	}
	var out []stream.Element
	cycle := func() {
		out = pt.MergeOutputs(out[:0], 0, puncts)
		out = pt.MergeOutputs(out[:0], 1, puncts)
		if len(out) != keys || len(pt.gate) != 0 {
			t.Fatalf("gate released %d of %d and holds %d", len(out), keys, len(pt.gate))
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != keys {
		t.Fatalf("a cycle of %d keys through 2 replicas allocates %v times, want %d (the keys)", keys, avg, keys)
	}

}
