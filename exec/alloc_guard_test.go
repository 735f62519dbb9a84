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
	"testing"

	"punctsafe/exec"
	"punctsafe/query"
	"punctsafe/stream"
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

// TestColdTierProbeAllocs: the cold tier must add no per-probe garbage.
// The guard is self-calibrated — the same probe/purge cycle runs against
// an all-hot state and against one whose 32k resident rows are fully
// frozen, and the tiered average may not exceed the hot average by more
// than 10% plus one allocation of slack. An absolute guard on the miss
// cycle (~0 allocs) rides along, mirroring TestSteadyStateProbeAllocs.
func TestColdTierProbeAllocs(t *testing.T) {
	run := func(coldAfter uint64, key int64) float64 {
		m := longStateJoin(t, coldAfter)
		punct := stream.PunctElement(stream.MustPunctuation(stream.Const(stream.Int(key)), stream.Wildcard()))
		i := int64(0)
		cycle := func() {
			// Probe + insert on S, then a key punctuation on R purges the
			// S tuple again: steady state, like the tiering benchmark.
			el := stream.TupleElement(stream.NewTuple(stream.Int(key), stream.Int(i)))
			if _, err := m.Push(1, el); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Push(0, punct); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for j := 0; j < 512; j++ {
			cycle()
		}
		avg := testing.AllocsPerRun(2000, cycle)
		if coldAfter > 0 && m.StatsSnapshot().ColdSize[0] == 0 {
			t.Fatal("tiered operator froze nothing; the guard is vacuous")
		}
		return avg
	}
	t.Run("hit", func(t *testing.T) {
		hot := run(0, 3)
		tiered := run(2048, 3)
		if tiered > hot*1.1+1 {
			t.Fatalf("cold-tier hit cycle averages %.2f allocs vs %.2f all-hot; the tier adds per-probe garbage", tiered, hot)
		}
	})
	t.Run("miss", func(t *testing.T) {
		hot := run(0, 1<<20)
		tiered := run(2048, 1<<20)
		if tiered > hot+0.5 {
			t.Fatalf("cold-tier miss cycle averages %.2f allocs vs %.2f all-hot", tiered, hot)
		}
		if tiered > 2.5 {
			t.Fatalf("miss cycle averages %.2f allocs, want ~2 (the probe tuple only)", tiered)
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
	cfg.Schemes = stream.NewSchemeSet(
		stream.MustScheme("S1", false, true),
		stream.MustScheme("S2", true, false),
		stream.MustScheme("S2", false, true),
		stream.MustScheme("S3", true, false),
	)
	m, err := exec.NewMJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tup := func(a, c int64) stream.Element {
		return stream.TupleElement(stream.NewTuple(stream.Int(a), stream.Int(c)))
	}
	punct := func(pos int, v int64) stream.Element {
		pats := []stream.Pattern{stream.Wildcard(), stream.Wildcard()}
		pats[pos] = stream.Const(stream.Int(v))
		return stream.PunctElement(stream.MustPunctuation(pats...))
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
		push(1, punct(0, v))
		push(0, punct(1, v))
		push(1, punct(1, v))
		push(2, punct(0, v))
		v++
	}
}

// TestChainedPurgeAllocs pins the budget of one full chained-purge cycle
// on the Figure 3 three-stream chain. Before the ordered-state rewrite a
// cycle cost ~470 allocs; the reused purge scratch brought it to 51,
// reading the scheme's and the stored punctuation's index slices instead
// of rebuilding them per call to 32, and the compiled punctuation plans
// (constants read out of the stored patterns, bit-keyed store entries,
// output punctuations copied from a template) to 24 — 7 of them the
// test's own elements. This guard holds the line there.
func TestChainedPurgeAllocs(t *testing.T) {
	m, cycle := figure3Cycle(t, exec.Config{})
	for i := 0; i < 256; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(2000, cycle)
	if m.StatsSnapshot().TotalState() != 0 {
		t.Fatalf("chained purge left %d tuples", m.StatsSnapshot().TotalState())
	}
	if avg > 24 {
		t.Fatalf("chained-purge cycle averages %.1f allocs, want <= 24", avg)
	}
}

// TestPunctStorePurgeAllocs is the same cycle in the configuration the
// benchmark runs — §5.1 punctuation purging and promise enforcement on —
// so the purgePunctStores path has a floor of its own: every punctuation
// of a cycle is certified away by its counter-punctuation, and the store
// ends empty. The cycle cost 59 allocations while the §5.1 pass mapped
// constraints through per-call maps and slices; it now costs what the
// cycle without punctuation purging does.
func TestPunctStorePurgeAllocs(t *testing.T) {
	m, cycle := figure3Cycle(t, exec.Config{PurgePunctuations: true, EnforcePromises: true})
	for i := 0; i < 256; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(2000, cycle)
	if st := m.StatsSnapshot(); st.TotalState() != 0 || st.TotalPunctStore() != 0 {
		t.Fatalf("cycle left %d tuples and %d punctuations", st.TotalState(), st.TotalPunctStore())
	}
	if avg > 24 {
		t.Fatalf("punctuation-purging cycle averages %.1f allocs, want <= 24", avg)
	}
}
