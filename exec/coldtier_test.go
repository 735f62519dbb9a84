package exec

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"punctsafe/plan"
	"punctsafe/stream"
)

// Cold-tier and live-split property suite: tiering and repartitioning are
// performance levers, never semantic ones. Every test here pins the same
// shape of claim — a tree with freezing enabled, or a partitioned tree
// split mid-stream, must be observationally identical to the untouched
// run, element for element.

// driveTree pushes a workload through a tree and renders every output.
func driveTree(t *testing.T, tr *Tree, evs []event) []string {
	t.Helper()
	var out []string
	for _, ev := range evs {
		outs, err := tr.Push(ev.stream, ev.el)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			out = append(out, o.String())
		}
	}
	outs, err := tr.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		out = append(out, o.String())
	}
	return out
}

// TestTieredTreeBisimulation: with ColdAfter set, outputs must match the
// all-hot run element for element, purges must still drain the state to
// zero, and freezes must actually have happened (the check is not
// vacuous).
func TestTieredTreeBisimulation(t *testing.T) {
	q := starQuery(t)
	schemes := starSchemes()
	root := plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2))
	evs := starWorkload(rand.New(rand.NewSource(21)), 8, 6, 3)

	ref, err := NewTree(Config{Query: q, Schemes: schemes}, root)
	if err != nil {
		t.Fatal(err)
	}
	want := driveTree(t, ref, evs)
	if len(want) == 0 {
		t.Fatal("workload produced no outputs; test is vacuous")
	}

	for _, coldAfter := range []uint64{1, 3, 16} {
		tr, err := NewTree(Config{Query: q, Schemes: schemes, ColdAfter: coldAfter}, root)
		if err != nil {
			t.Fatal(err)
		}
		got := driveTree(t, tr, evs)
		if len(got) != len(want) {
			t.Fatalf("ColdAfter=%d emitted %d elements, all-hot %d", coldAfter, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ColdAfter=%d element %d diverges:\n  tiered: %s\n  hot:    %s", coldAfter, i, got[i], want[i])
			}
		}
		if tr.TotalState() != 0 {
			t.Fatalf("ColdAfter=%d: purges should drain through the cold tier, %d tuples remain", coldAfter, tr.TotalState())
		}
		froze := false
		for _, st := range tr.StatsSnapshot() {
			if st.Freezes > 0 {
				froze = true
			}
			for i, c := range st.ColdSize {
				if c > st.StateSize[i] {
					t.Fatalf("ColdAfter=%d: ColdSize[%d]=%d exceeds StateSize %d", coldAfter, i, c, st.StateSize[i])
				}
			}
		}
		if !froze {
			t.Fatalf("ColdAfter=%d: no freeze generation moved a row; the bisimulation is vacuous", coldAfter)
		}
	}
}

// TestJoinStateFreeze pins the two-tier mechanics directly: rows below
// the watermark move cold, lookups see both tiers in arrival order,
// removals reach into the segment, and heavy cold deletion recompacts.
func TestJoinStateFreeze(t *testing.T) {
	st := newJoinState(mustSchema("T", "K", "V"), []int{0})
	const n = 200
	for i := 0; i < n; i++ {
		st.insert(tup(int64(i%5), int64(i)))
	}
	// Freeze the first generation: everything currently stored is below
	// the watermark after two advances (first advance sets the bound).
	if moved := st.advanceFreeze(); moved != 0 {
		t.Fatalf("first advance froze %d rows, want 0 (rows must age one interval)", moved)
	}
	if moved := st.advanceFreeze(); moved != n {
		t.Fatalf("second advance froze %d rows, want %d", moved, n)
	}
	if st.cold == nil || st.cold.size() != n {
		t.Fatalf("cold segment holds %v, want %d live rows", st.cold, n)
	}
	if st.size() != n {
		t.Fatalf("size() = %d across tiers, want %d", st.size(), n)
	}
	// Hot inserts continue above the bound; lookup sees both tiers with
	// cold ids strictly below hot ids.
	for i := n; i < n+50; i++ {
		st.insert(tup(int64(i%5), int64(i)))
	}
	tb := st.lookup2(0, stream.Int(3))
	if len(tb[coldTier]) == 0 || len(tb[hotTier]) == 0 {
		t.Fatalf("lookup2 found cold=%d hot=%d buckets, want both tiers populated", len(tb[coldTier]), len(tb[hotTier]))
	}
	seen, last := 0, int64(-1)
	for ti, rs := range st.tiers() {
		for _, r := range tb[ti] {
			u := rs.tups[r]
			if rs.dead[r] || u.Values[0].AsInt() != 3 {
				t.Fatalf("tier %d row %d: dead %v, key %v, want live with key 3", ti, r, rs.dead[r], u.Values[0])
			}
			if v := u.Values[1].AsInt(); v <= last {
				t.Fatalf("arrival order broken: %d visited after %d", v, last)
			} else {
				last = v
			}
			seen++
		}
	}
	if seen != tb.total() || seen != (n+50)/5 {
		t.Fatalf("walked %d candidates, total() says %d, want %d", seen, tb.total(), (n+50)/5)
	}
	// Remove every frozen row with key 3, under a pin so the rows hold
	// still; the deferred recompaction runs at the unpin.
	removeCold := func(key int64) {
		st.pin()
		for _, r := range slices.Clone(st.lookup2(0, stream.Int(key))[coldTier]) {
			st.remove(mkRef(coldTier, r))
		}
		st.unpin()
	}
	removeCold(3)
	if got := st.lookup2(0, stream.Int(3)); len(got[coldTier]) != 0 || len(got[hotTier]) != 10 {
		t.Fatalf("after removal: %d cold and %d hot rows under key 3, want 0 and 10", len(got[coldTier]), len(got[hotTier]))
	}
	if st.size() != n+50-n/5 {
		t.Fatalf("size() = %d, want %d", st.size(), n+50-n/5)
	}
	// Drain the rest of the segment; it must be released entirely.
	for _, key := range []int64{0, 1, 2, 4} {
		removeCold(key)
	}
	if st.cold != nil {
		t.Fatalf("fully drained cold segment not released: %d rows, %d dead", len(st.cold.ids), st.cold.nDead)
	}
}

// TestLiveSplitContinuesExactly: splitting replicas mid-stream must not
// change a single output element, and the post-split replica set must
// spread the remaining load and drain to zero.
func TestLiveSplitContinuesExactly(t *testing.T) {
	q := starQuery(t)
	schemes := starSchemes()
	root := plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2))
	evs := starWorkload(rand.New(rand.NewSource(31)), 8, 6, 3)
	cfg := Config{Query: q, Schemes: schemes, ColdAfter: 8}

	ref, err := NewTree(cfg, root)
	if err != nil {
		t.Fatal(err)
	}
	want := driveTree(t, ref, evs)

	pt, err := NewPartitionedTree(cfg, root, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	push := func(evs []event) {
		for _, ev := range evs {
			outs, err := pt.Push(ev.stream, ev.el)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				got = append(got, o.String())
			}
		}
	}
	collect := func(outs []stream.Element) {
		for _, o := range outs {
			got = append(got, o.String())
		}
	}
	third := len(evs) / 3
	push(evs[:third])
	newPart, outs, err := pt.Split(0)
	if err != nil || newPart != 2 {
		t.Fatalf("Split(0) = %d, %v; want 2, nil", newPart, err)
	}
	collect(outs)
	push(evs[third : 2*third])
	newPart, outs, err = pt.Split(1)
	if err != nil || newPart != 3 {
		t.Fatalf("Split(1) = %d, %v; want 3, nil", newPart, err)
	}
	collect(outs)
	push(evs[2*third:])
	outs, err = pt.Flush()
	if err != nil {
		t.Fatal(err)
	}
	collect(outs)

	if pt.Partitions() != 4 {
		t.Fatalf("Partitions() = %d after two splits, want 4", pt.Partitions())
	}
	if len(got) != len(want) {
		t.Fatalf("split run emitted %d elements, single tree %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d diverges across the splits:\n  split run:   %s\n  single tree: %s", i, got[i], want[i])
		}
	}
	if pt.TotalState() != 0 {
		t.Fatalf("split tree should drain, has %d tuples", pt.TotalState())
	}
	spread := 0
	for i := 0; i < pt.Partitions(); i++ {
		if pt.Partition(i).StatsSnapshot()[0].TuplesIn[0] > 0 {
			spread++
		}
	}
	if spread < 3 {
		t.Fatalf("post-split tuples landed in %d replicas; the split did not redistribute", spread)
	}
}

// TestSplitSnapshotRoundTrip: a snapshot taken after a split (3 replicas)
// must restore into a tree built with the pre-split count (2 replicas) —
// the PTP2 owner table and the staged extra replica carry the growth —
// and the restored tree must continue exactly like the original.
func TestSplitSnapshotRoundTrip(t *testing.T) {
	q := starQuery(t)
	schemes := starSchemes()
	root := plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2))
	evs := starWorkload(rand.New(rand.NewSource(41)), 6, 5, 3)
	cfg := Config{Query: q, Schemes: schemes, ColdAfter: 4}
	half := len(evs) / 2

	drive := func(pt *PartitionedTree, evs []event) []string {
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

	orig, err := NewPartitionedTree(cfg, root, 2)
	if err != nil {
		t.Fatal(err)
	}
	drive(orig, evs[:half/2])
	if _, _, err := orig.Split(0); err != nil {
		t.Fatal(err)
	}
	drive(orig, evs[half/2:half])
	var snap bytes.Buffer
	if err := orig.WriteState(&snap); err != nil {
		t.Fatal(err)
	}

	restored, err := NewPartitionedTree(cfg, root, 2)
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
	if restored.Partitions() != 3 {
		t.Fatalf("restored tree has %d partitions, want the snapshot's 3", restored.Partitions())
	}
	wantRest := drive(orig, evs[half:])
	gotRest := drive(restored, evs[half:])
	if len(gotRest) != len(wantRest) {
		t.Fatalf("restored tree emitted %d elements, original %d", len(gotRest), len(wantRest))
	}
	for i := range wantRest {
		if gotRest[i] != wantRest[i] {
			t.Fatalf("post-restore element %d diverges:\n  restored: %s\n  original: %s", i, gotRest[i], wantRest[i])
		}
	}
}
