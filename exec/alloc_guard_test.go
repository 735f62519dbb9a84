package exec_test

// Allocation guards for the hot path. These pin the steady-state probe
// and chained-purge allocation floors established by the ordered-state
// rewrite: a probe that matches nothing must not allocate at all, a
// probe that emits one result allocates only the result itself, and a
// full chained-purge cycle stays within a small constant budget. A
// regression that reintroduces per-probe garbage (map iteration scratch,
// closure captures, key re-encoding) fails here long before it shows up
// in a benchmark trend.

import (
	"runtime"
	"runtime/debug"
	"testing"

	"punctsafe/exec"
	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

func intAttr(n string) stream.Attribute { return stream.Attribute{Name: n, Kind: stream.KindInt} }

// steadyWindowJoin builds a two-stream windowed join with 1000 R tuples
// (keys 0..999) resident, so every S push probes a fixed-size state and
// evicts what it inserts — zero net growth.
func steadyWindowJoin(tb testing.TB) *exec.WindowedMJoin {
	tb.Helper()
	q := query.NewBuilder().
		AddStream(stream.MustSchema("R", intAttr("K"), intAttr("V"))).
		AddStream(stream.MustSchema("S", intAttr("K"), intAttr("W"))).
		JoinOn("R", "S", "K").
		MustBuild()
	wj, err := exec.NewWindowedMJoin(exec.Config{Query: q, Schemes: stream.NewSchemeSet()}, exec.Window{Rows: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		if _, err := wj.Push(0, stream.TupleElement(stream.NewTuple(stream.Int(i), stream.Int(i)))); err != nil {
			tb.Fatal(err)
		}
	}
	return wj
}

// TestSteadyStateProbeAllocs: a miss probe (no partner under the key)
// must average ~0 allocs/element — the candidate lookup, window evict
// and state insert all run on reused operator scratch. A hit probe may
// allocate only the emitted result (concatenated value slice + output
// element); everything else is scratch.
func TestSteadyStateProbeAllocs(t *testing.T) {
	mk := func(base int64) []stream.Element {
		out := make([]stream.Element, 1000)
		for i := range out {
			k := base + int64(i)
			out[i] = stream.TupleElement(stream.NewTuple(stream.Int(k), stream.Int(k)))
		}
		return out
	}
	t.Run("miss", func(t *testing.T) {
		wj := steadyWindowJoin(t)
		es := mk(1 << 20)
		// Warm up state-column growth on the S side.
		for i := 0; i < 2000; i++ {
			if _, err := wj.Push(1, es[i%len(es)]); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		avg := testing.AllocsPerRun(4000, func() {
			if _, err := wj.Push(1, es[i%len(es)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if avg > 0.5 {
			t.Fatalf("steady-state miss probe averages %.2f allocs/element, want ~0 (<= 0.5)", avg)
		}
	})
	t.Run("hit", func(t *testing.T) {
		wj := steadyWindowJoin(t)
		es := mk(0)
		for i := 0; i < 2000; i++ {
			if _, err := wj.Push(1, es[i%len(es)]); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		avg := testing.AllocsPerRun(4000, func() {
			if _, err := wj.Push(1, es[i%len(es)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if avg > 3 {
			t.Fatalf("steady-state hit probe averages %.2f allocs/element, want <= 3 (the result tuple only)", avg)
		}
	})
}

// figure3Cycle builds the Figure 3 three-stream chain and returns one
// full chained-purge cycle over it: insert a joined chain of tuples, then
// punctuate it away through the §4.2 chained rounds.
func figure3Cycle(t *testing.T, cfg exec.Config) (*exec.MJoin, func()) {
	t.Helper()
	cfg.Query = query.NewBuilder().
		AddStream(stream.MustSchema("S1", intAttr("A"), intAttr("B"))).
		AddStream(stream.MustSchema("S2", intAttr("B"), intAttr("C"))).
		AddStream(stream.MustSchema("S3", intAttr("C"), intAttr("D"))).
		Join("S1.B", "S2.B").
		Join("S2.C", "S3.C").
		MustBuild()
	schemes := []stream.Scheme{
		stream.MustScheme("S1", false, true),
		stream.MustScheme("S2", true, false),
		stream.MustScheme("S2", false, true),
		stream.MustScheme("S3", true, false),
	}
	cfg.Schemes = stream.NewSchemeSet(schemes...)
	m, err := exec.NewMJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tup := func(a, c int64) stream.Element {
		return stream.TupleElement(stream.NewTuple(stream.Int(a), stream.Int(c)))
	}
	// A punctuation is built as an instantiation of its scheme, whose shape
	// it shares: its one allocation is its constant.
	punct := func(scheme int, v int64) stream.Element {
		p, err := schemes[scheme].Instantiate(stream.Int(v))
		if err != nil {
			t.Fatal(err)
		}
		return stream.PunctElement(p)
	}
	v := int64(0)
	push := func(input int, e stream.Element) {
		if _, err := m.Push(input, e); err != nil {
			t.Fatal(err)
		}
	}
	return m, func() {
		push(0, tup(v, v))
		push(1, tup(v, v))
		push(2, tup(v, v))
		push(1, punct(1, v))
		push(0, punct(0, v))
		push(1, punct(2, v))
		push(2, punct(3, v))
		v++
	}
}

// TestChainedPurgeAllocs pins the budget of one full chained-purge cycle
// on the Figure 3 three-stream chain. Before the ordered-state rewrite a
// cycle cost ~470 allocs; the reused purge scratch brought it to 51,
// reading the scheme's and the stored punctuation's index slices instead
// of rebuilding them per call to 32, and the compiled punctuation plans
// (constants read out of the stored patterns, bit-keyed store entries,
// output punctuations copied from a template) to 24, the operator's own
// output buffer (no slice grown from nil by each Push that emits) to 20,
// index buckets kept for the next new key (the cycle's three tuples open a
// key in each of the four indexes) to 16, and output punctuations that
// share the stored punctuation's constants instead of copying a template
// to 12 — 7 of them the test's own elements. This guard holds the line
// there.
func TestChainedPurgeAllocs(t *testing.T) {
	m, cycle := figure3Cycle(t, exec.Config{})
	for i := 0; i < 256; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(2000, cycle)
	if m.StatsSnapshot().TotalState() != 0 {
		t.Fatalf("chained purge left %d tuples", m.StatsSnapshot().TotalState())
	}
	if avg > 12 {
		t.Fatalf("chained-purge cycle averages %.1f allocs, want <= 12", avg)
	}
}

// TestPunctStorePurgeAllocs is the same cycle in the configuration the
// benchmark runs — §5.1 punctuation purging and promise enforcement on —
// so the purgePunctStores path has a floor of its own: every punctuation
// of a cycle is certified away by its counter-punctuation, and the store
// ends empty. The cycle cost 59 allocations while the §5.1 pass mapped
// constraints through per-call maps and slices and 20 while each stored
// punctuation got a new entry; the four entries the §5.1 pass frees are
// reused by the next cycle's punctuations, which brought it to 12, and the
// emitted punctuations allocate nothing, so it costs 8: the test's own
// seven elements and one more, four fewer than the cycle without
// punctuation purging, whose store keeps growing.
func TestPunctStorePurgeAllocs(t *testing.T) {
	m, cycle := figure3Cycle(t, exec.Config{PurgePunctuations: true, EnforcePromises: true})
	for i := 0; i < 256; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(2000, cycle)
	if st := m.StatsSnapshot(); st.TotalState() != 0 || st.TotalPunctStore() != 0 {
		t.Fatalf("cycle left %d tuples and %d punctuations", st.TotalState(), st.TotalPunctStore())
	}
	if avg > 8 {
		t.Fatalf("punctuation-purging cycle averages %.1f allocs, want <= 8", avg)
	}
}

// compactedWindowJoin builds a two-stream windowed join whose R state has
// churned through its window five times (1000 rows, keys i%500: two rows
// per key), so its columns have compacted — at least twice, checked — and
// every index bucket has been renumbered. The S side is warmed the same
// way. It returns the join and S tuples that each hit two R rows.
func compactedWindowJoin(tb testing.TB) (*exec.WindowedMJoin, []stream.Element) {
	tb.Helper()
	q := query.NewBuilder().
		AddStream(stream.MustSchema("R", intAttr("K"), intAttr("V"))).
		AddStream(stream.MustSchema("S", intAttr("K"), intAttr("W"))).
		JoinOn("R", "S", "K").
		MustBuild()
	wj, err := exec.NewWindowedMJoin(exec.Config{Query: q, Schemes: stream.NewSchemeSet()}, exec.Window{Rows: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	probes := make([]stream.Element, 500)
	for k := range probes {
		probes[k] = stream.TupleElement(stream.NewTuple(stream.Int(int64(k)), stream.Int(int64(k))))
	}
	compactions, rows := 0, 0
	for i := int64(0); i < 5000; i++ {
		for input, e := range []stream.Element{
			stream.TupleElement(stream.NewTuple(stream.Int(i%500), stream.Int(i))),
			stream.TupleElement(stream.NewTuple(stream.Int(1<<20+i), stream.Int(i))), // joins nothing
		} {
			if _, err := wj.Push(input, e); err != nil {
				tb.Fatal(err)
			}
		}
		if n := wj.Rows(0); n < rows {
			compactions++
		}
		rows = wj.Rows(0)
	}
	if compactions < 2 {
		tb.Fatalf("R state compacted %d times, want >= 2: the guard is vacuous", compactions)
	}
	return wj, probes
}

// TestProbeAfterCompactionAllocs: a probe into a state that has compacted
// allocates what a probe into a never-compacted one does — the results.
// Candidates are rows, read straight out of the column, so a compaction
// history leaves nothing for the probe to search or rebuild. Each probe
// here finds the two newest R rows of its key (checked once up front).
func TestProbeAfterCompactionAllocs(t *testing.T) {
	wj, probes := compactedWindowJoin(t)
	outs, err := wj.Push(1, probes[7])
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || outs[0].Tuple().Values[1].AsInt() != 4007 || outs[1].Tuple().Values[1].AsInt() != 4507 {
		t.Fatalf("probe of key 7 returned %v, want the R rows 4007 and 4507 in arrival order", outs)
	}
	i := 0
	avg := testing.AllocsPerRun(4000, func() {
		if _, err := wj.Push(1, probes[i%len(probes)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg > 4 {
		t.Fatalf("probe after compaction averages %.2f allocs/element, want <= 4 (two result tuples and the output slice)", avg)
	}
}

// TestOrderedPurgeRoundAllocs: a warmed heartbeat round on the sensor join
// — an ordered <= bound that scans the partner state, queues 128 tuples,
// checks and removes each, and every few rounds compacts the columns and
// renumbers the buckets — allocates nothing: candidates, the closure
// queue, the dedup stamps and the renumbering table are all reused.
func TestOrderedPurgeRoundAllocs(t *testing.T) {
	// Mallocs is read around the two heartbeats alone, so the count must be
	// exact: one P, as testing.AllocsPerRun runs, and no collection, whose
	// own bookkeeping would land in the window now and then.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m, err := exec.NewMJoin(exec.Config{Query: workload.SensorQuery(), Schemes: workload.SensorSchemes(),
		EnforcePromises: true, PurgePunctuations: true})
	if err != nil {
		t.Fatal(err)
	}
	push := func(input int, e stream.Element) {
		if _, err := m.Push(input, e); err != nil {
			t.Fatal(err)
		}
	}
	// One round: 64 epochs of 2 readings per stream arrive, then a
	// heartbeat on each stream closes the 64 epochs that are 256 old, so
	// 640 tuples stay resident per state and each heartbeat purges 128.
	epoch := int64(0)
	var ms runtime.MemStats
	round := func() (mallocs, purged uint64) {
		for end := epoch + 64; epoch < end; epoch++ {
			for r := 0; r < 2; r++ {
				push(0, stream.TupleElement(stream.NewTuple(stream.Int(epoch), stream.Float(20))))
				push(1, stream.TupleElement(stream.NewTuple(stream.Int(epoch), stream.Float(50))))
			}
		}
		hb := stream.PunctElement(stream.MustPunctuation(stream.Leq(stream.Int(epoch-1-256)), stream.Wildcard()))
		before := m.StatsSnapshot().TuplesPurged
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		push(0, hb)
		push(1, hb)
		runtime.ReadMemStats(&ms)
		after := m.StatsSnapshot().TuplesPurged
		return ms.Mallocs - m0, after[0] + after[1] - before[0] - before[1]
	}
	for i := 0; i < 32; i++ {
		round()
	}
	compactions, rows := 0, m.Rows(0)
	for i := 0; i < 32; i++ {
		mallocs, purged := round()
		if purged != 256 {
			t.Fatalf("round %d purged %d tuples, want 256 (128 per state)", i, purged)
		}
		if mallocs != 0 {
			t.Fatalf("round %d: the two heartbeats allocated %d times, want 0", i, mallocs)
		}
		if n := m.Rows(0); n < rows {
			compactions++
		}
		rows = m.Rows(0)
	}
	if compactions < 2 {
		t.Fatalf("%d compactions in 32 measured rounds: the guard does not cover the renumbering", compactions)
	}
}

// TestPushBatchAllocFloor: a batch through a warmed plan tree allocates
// its result tuples, one value slice each, and nothing else. An emitted
// output punctuation is the stored punctuation's constants under a shape
// the plan compiled, so it allocates nothing (one pattern slice each
// before). The output buffer is the operator's own, so no container is
// allocated per batch (before, every batch with output grew one from
// nil), and what the operator stores is made of what its purges freed: a
// punctuation-store entry and an input tuple's index bucket (here always
// the first under its key) are reused, not allocated (448 allocations per
// cycle before).
// Each cycle stores 64 R and 64 S tuples under 64 keys, joins them, and
// punctuates every key away on both sides, so it ends where it began.
//
// A tree that lends its results (Tree.Lend) builds them in a buffer its
// root reuses, so the same warmed cycle allocates only its emitted
// punctuations — which is to say nothing.
func TestPushBatchAllocFloor(t *testing.T) {
	for _, lend := range []bool{false, true} {
		t.Run(map[bool]string{false: "owned", true: "lent"}[lend], func(t *testing.T) {
			testPushBatchAllocFloor(t, lend, 0)
		})
	}
}

// TestLazyPurgeAllocFloor is the lent cycle of TestPushBatchAllocFloor
// under §5.2's lazy purging (PurgeBatch 16): a cycle's 256 elements run
// 16 purge rounds, each over the punctuations pending since the last, and
// a warmed cycle allocates nothing. The pending list is reused round
// after round; regrown from empty, it cost every batch its growth.
func TestLazyPurgeAllocFloor(t *testing.T) {
	testPushBatchAllocFloor(t, true, 16)
}

func testPushBatchAllocFloor(t *testing.T, lend bool, purgeBatch int) {
	q := query.NewBuilder().
		AddStream(stream.MustSchema("R", intAttr("K"), intAttr("V"))).
		AddStream(stream.MustSchema("S", intAttr("K"), intAttr("W"))).
		JoinOn("R", "S", "K").
		MustBuild()
	schemes := stream.NewSchemeSet(stream.MustScheme("R", true, false), stream.MustScheme("S", true, false))
	tree, err := exec.NewTree(exec.Config{Query: q, Schemes: schemes, PurgePunctuations: true, PurgeBatch: purgeBatch},
		plan.Join(plan.Leaf(0), plan.Leaf(1)))
	if err != nil {
		t.Fatal(err)
	}
	tree.Lend(lend)
	const keys = 64
	tuples, puncts := make([]stream.Element, keys), make([]stream.Element, keys)
	for k := range tuples {
		tuples[k] = stream.TupleElement(stream.NewTuple(stream.Int(int64(k)), stream.Int(int64(k))))
		puncts[k] = stream.PunctElement(stream.MustPunctuation(stream.Const(stream.Int(int64(k))), stream.Wildcard()))
	}
	outputs := 0
	cycle := func() {
		for _, run := range []struct {
			input int
			elems []stream.Element
		}{{0, tuples}, {1, tuples}, {0, puncts}, {1, puncts}} {
			outs, _, err := tree.PushBatch(run.input, run.elems)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range outs {
				if o.IsPunct() {
					continue
				}
				// R(k,k) ⋈ S(k,k): every column of a result is its key.
				if v := o.Tuple().Values; !v[0].Equal(v[1]) || !v[1].Equal(v[2]) || !v[2].Equal(v[3]) {
					t.Fatalf("result %v is not one key's join", o)
				}
			}
			outputs += len(outs)
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	before := tree.Root().StatsSnapshot()
	outputs = 0
	const runs = 200
	avg := testing.AllocsPerRun(runs-1, cycle) // AllocsPerRun adds a warm-up run
	st := tree.Root().StatsSnapshot()
	if st.TotalState() != 0 || st.TotalPunctStore() != 0 {
		t.Fatalf("cycle left %d tuples and %d punctuations", st.TotalState(), st.TotalPunctStore())
	}
	results := float64(st.Results-before.Results) / runs
	outPuncts := float64(st.OutPuncts-before.OutPuncts) / runs
	stored := float64(st.PunctsIn[0]+st.PunctsIn[1]-before.PunctsIn[0]-before.PunctsIn[1]) / runs
	if results != keys || outPuncts != 2*keys || stored != 2*keys || outputs != runs*3*keys {
		t.Fatalf("per cycle: %v results, %v output punctuations, %v stored punctuations, %d outputs in all",
			results, outPuncts, stored, outputs)
	}
	want := results
	if lend {
		want = 0
	}
	if avg != want {
		t.Fatalf("a cycle of four batches allocates %.0f times, want %.0f (%v results, lent: %v; %v punctuations emitted for free)",
			avg, want, results, lend, outPuncts)
	}
}

// sizeClass rounds a small allocation up to the Go allocator's size class
// (the classes up to 128 bytes; runtime/sizeclasses.go).
func sizeClass(n uintptr) uint64 {
	for _, c := range []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128} {
		if n <= c {
			return uint64(c)
		}
	}
	panic("sizeClass: allocation above 128 bytes")
}

// TestResultBytesFloor is TestPushBatchAllocFloor in bytes: the same cycle
// through the same warmed tree, measured as runtime.MemStats.TotalAlloc
// with the collector off. What a cycle allocates is 16 bytes per column of
// every result tuple, rounded up to the size class, and not a byte more —
// so a field added to stream.Value (a third more bytes per column at the
// least) fails here, not in a benchmark, and so does an emitted
// punctuation that copies its constants, or a store entry or an index
// bucket that is allocated instead of reused.
//
// The warm-up is long because of Go's maps, not the operator's: a delete
// from a full group leaves a tombstone, tombstones count against the load
// factor, and a table out of room doubles (go1.24 grows where it could
// rehash in place). The maps the cycle churns, 64 keys each — both index
// maps and the punctuation stores' — grow three times in all within the
// first ~40 cycles (239 bytes per cycle over cycles 8 to 108), until their
// groups are sparse enough that no delete leaves a tombstone. The cycle inserts
// the same keys in the same order every time, so a cycle that leaves no
// tombstone is repeated exactly by every cycle after it.
func TestResultBytesFloor(t *testing.T) {
	q := query.NewBuilder().
		AddStream(stream.MustSchema("R", intAttr("K"), intAttr("V"))).
		AddStream(stream.MustSchema("S", intAttr("K"), intAttr("W"))).
		JoinOn("R", "S", "K").
		MustBuild()
	schemes := stream.NewSchemeSet(stream.MustScheme("R", true, false), stream.MustScheme("S", true, false))
	tree, err := exec.NewTree(exec.Config{Query: q, Schemes: schemes, PurgePunctuations: true},
		plan.Join(plan.Leaf(0), plan.Leaf(1)))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 64
	tuples, puncts := make([]stream.Element, keys), make([]stream.Element, keys)
	for k := range tuples {
		tuples[k] = stream.TupleElement(stream.NewTuple(stream.Int(int64(k)), stream.Int(int64(k))))
		puncts[k] = stream.PunctElement(stream.MustPunctuation(stream.Const(stream.Int(int64(k))), stream.Wildcard()))
	}
	cycle := func() {
		for input, elems := range [][]stream.Element{tuples, tuples, puncts, puncts} {
			if _, _, err := tree.PushBatch(input%2, elems); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 100
	var m0, m1 runtime.MemStats
	before := tree.Root().StatsSnapshot()
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	st := tree.Root().StatsSnapshot()
	results := st.Results - before.Results
	outPuncts := st.OutPuncts - before.OutPuncts
	stored := st.PunctsIn[0] + st.PunctsIn[1] - before.PunctsIn[0] - before.PunctsIn[1]
	if results != runs*keys || outPuncts != runs*2*keys || stored != runs*2*keys {
		t.Fatalf("%d cycles: %d results, %d output punctuations, %d stored punctuations", runs, results, outPuncts, stored)
	}
	const (
		column   = 16 // a stream.Value
		outArity = 4  // R.K, R.V, S.K, S.W
	)
	perRow := sizeClass(column * outArity)
	want := results * perRow
	// The slack is for the process, not the cycle: once in a few dozen
	// runs something outside the operator allocates 16 bytes inside the
	// window. One index bucket more per cycle would be 800 bytes.
	const slack = 256
	if got := m1.TotalAlloc - m0.TotalAlloc; got < want || got > want+slack {
		t.Fatalf("%d cycles allocated %d bytes (%.1f per cycle), want %d to %d above it (= %d results at %d bytes; %d punctuations emitted)",
			runs, got, float64(got)/runs, want, slack, results, perRow, outPuncts)
	}
}
