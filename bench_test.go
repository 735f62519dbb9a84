// Package punctsafe's top-level benchmarks wrap the reproduction suite:
// one testing.B benchmark per experiment in the DESIGN.md index (E1-E14;
// E15 is table-only), measuring the experiment's inner operation, plus
// micro-benchmarks of the safety checker and the join/purge hot paths.
// Regenerate the full tables with `go run ./cmd/punctbench`.
package punctsafe_test

import (
	"fmt"
	"testing"

	"punctsafe/exec"
	"punctsafe/experiments"
	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/safety"
	"punctsafe/stream"
	"punctsafe/workload"
)

// drive pushes a prepared feed through a fresh MJoin; it is the common
// inner loop of the workload benchmarks.
func drive(b *testing.B, q *query.CJQ, schemes *stream.SchemeSet, cfg exec.Config, inputs []workload.Input) *exec.MJoin {
	b.Helper()
	cfg.Query = q
	cfg.Schemes = schemes
	m, err := exec.NewMJoin(cfg)
	if err != nil {
		b.Fatal(err)
	}
	feed, err := workload.NewFeed(q, inputs)
	if err != nil {
		b.Fatal(err)
	}
	if err := feed.Each(func(i int, e stream.Element) error {
		_, err := m.Push(i, e)
		return err
	}); err != nil {
		b.Fatal(err)
	}
	m.Flush()
	return m
}

// BenchmarkE1AuctionPurging measures the punctuated auction join
// (Figure 1 / Example 1) end to end; b.N scales the item count. The
// no-punctuation baseline is BenchmarkE1AuctionBaseline.
func BenchmarkE1AuctionPurging(b *testing.B) {
	q := workload.AuctionQuery()
	schemes := workload.AuctionSchemes()
	inputs := workload.Auction(workload.AuctionConfig{
		Items: 2000, MaxBidsPerItem: 8, OpenWindow: 6,
		PunctuateItems: true, PunctuateClose: true, Seed: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := drive(b, q, schemes, exec.Config{}, inputs)
		if m.StatsSnapshot().TotalState() != 0 {
			b.Fatal("state did not drain")
		}
	}
	b.ReportMetric(float64(len(inputs)), "elements/op")
}

// BenchmarkE1AuctionBaseline is the same feed with punctuation processing
// disabled: state grows linearly (the unsafe baseline of Figure 1).
func BenchmarkE1AuctionBaseline(b *testing.B) {
	q := workload.AuctionQuery()
	schemes := workload.AuctionSchemes()
	inputs := workload.Auction(workload.AuctionConfig{
		Items: 2000, MaxBidsPerItem: 8, OpenWindow: 6,
		PunctuateItems: false, PunctuateClose: false, Seed: 1,
	})
	b.ResetTimer()
	var end int
	for i := 0; i < b.N; i++ {
		m := drive(b, q, schemes, exec.Config{}, inputs)
		end = m.StatsSnapshot().TotalState()
	}
	b.ReportMetric(float64(end), "retained-tuples")
}

// BenchmarkE2ChainedPurge measures one full chained-purge cycle on the
// Figure 3 query: insert a chain of tuples, then punctuate it away.
func BenchmarkE2ChainedPurge(b *testing.B) {
	ia := func(n string) stream.Attribute { return stream.Attribute{Name: n, Kind: stream.KindInt} }
	q := query.NewBuilder().
		AddStream(stream.MustSchema("S1", ia("A"), ia("B"))).
		AddStream(stream.MustSchema("S2", ia("B"), ia("C"))).
		AddStream(stream.MustSchema("S3", ia("C"), ia("D"))).
		Join("S1.B", "S2.B").
		Join("S2.C", "S3.C").
		MustBuild()
	schemes := stream.NewSchemeSet(
		stream.MustScheme("S1", false, true),
		stream.MustScheme("S2", true, false),
		stream.MustScheme("S2", false, true),
		stream.MustScheme("S3", true, false),
	)
	m, err := exec.NewMJoin(exec.Config{Query: q, Schemes: schemes})
	if err != nil {
		b.Fatal(err)
	}
	tup := func(a, c int64) stream.Tuple { return stream.NewTuple(stream.Int(a), stream.Int(c)) }
	punct := func(pos int, v int64) stream.Punctuation {
		pats := []stream.Pattern{stream.Wildcard(), stream.Wildcard()}
		pats[pos] = stream.Const(stream.Int(v))
		return stream.MustPunctuation(pats...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := int64(i)
		m.Push(0, stream.TupleElement(tup(v, v)))
		m.Push(1, stream.TupleElement(tup(v, v)))
		m.Push(2, stream.TupleElement(tup(v, v)))
		m.Push(1, stream.PunctElement(punct(0, v)))
		m.Push(0, stream.PunctElement(punct(1, v)))
		m.Push(1, stream.PunctElement(punct(1, v)))
		m.Push(2, stream.PunctElement(punct(0, v)))
	}
	b.StopTimer()
	if m.StatsSnapshot().TotalState() != 0 {
		b.Fatalf("chained purge left %d tuples", m.StatsSnapshot().TotalState())
	}
}

// BenchmarkE3MJoinSafe measures the safe cyclic MJoin of Figure 5 on a
// closed workload.
func BenchmarkE3MJoinSafe(b *testing.B) {
	q := mustSynthetic(b, workload.Cycle, 3)
	schemes := workload.AllJoinAttrSchemes(q)
	inputs := workload.Closed(q, schemes, workload.ClosedConfig{
		Rounds: 50, TuplesPerRound: 6, Window: 3, PunctFraction: 1, Seed: 2,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := drive(b, q, schemes, exec.Config{}, inputs)
		if m.StatsSnapshot().TotalState() != 0 {
			b.Fatal("state did not drain")
		}
	}
}

// BenchmarkE4UnsafeBinaryTree measures the Figure 7 contrast: the same
// closed workload through the safe MJoin plan and the unsafe binary tree.
func BenchmarkE4UnsafeBinaryTree(b *testing.B) {
	ia := func(n string) stream.Attribute { return stream.Attribute{Name: n, Kind: stream.KindInt} }
	q := query.NewBuilder().
		AddStream(stream.MustSchema("S1", ia("A"), ia("B"))).
		AddStream(stream.MustSchema("S2", ia("B"), ia("C"))).
		AddStream(stream.MustSchema("S3", ia("A"), ia("C"))).
		Join("S1.B", "S2.B").
		Join("S2.C", "S3.C").
		Join("S3.A", "S1.A").
		MustBuild()
	schemes := stream.NewSchemeSet(
		stream.MustScheme("S1", false, true),
		stream.MustScheme("S2", false, true),
		stream.MustScheme("S3", true, false),
	)
	inputs := workload.Closed(q, schemes, workload.ClosedConfig{
		Rounds: 30, TuplesPerRound: 6, Window: 3, PunctFraction: 1, Seed: 3,
	})
	for _, shape := range []struct {
		name string
		node *plan.Node
	}{
		{"mjoin", plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2))},
		{"binarytree", plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2))},
	} {
		b.Run(shape.name, func(b *testing.B) {
			var retained int
			for i := 0; i < b.N; i++ {
				tree, err := exec.NewTree(exec.Config{Query: q, Schemes: schemes}, shape.node)
				if err != nil {
					b.Fatal(err)
				}
				feed, _ := workload.NewFeed(q, inputs)
				if err := feed.Each(func(i int, e stream.Element) error {
					_, err := tree.Push(i, e)
					return err
				}); err != nil {
					b.Fatal(err)
				}
				retained = tree.TotalState()
			}
			b.ReportMetric(float64(retained), "retained-tuples")
		})
	}
}

// BenchmarkE5MultiAttr measures the Figures 8-10 scenario: purging driven
// by a multi-attribute punctuation scheme.
func BenchmarkE5MultiAttr(b *testing.B) {
	ia := func(n string) stream.Attribute { return stream.Attribute{Name: n, Kind: stream.KindInt} }
	q := query.NewBuilder().
		AddStream(stream.MustSchema("S1", ia("A"), ia("B"))).
		AddStream(stream.MustSchema("S2", ia("B"), ia("C"))).
		AddStream(stream.MustSchema("S3", ia("A"), ia("C"))).
		Join("S1.B", "S2.B").
		Join("S2.C", "S3.C").
		Join("S3.A", "S1.A").
		MustBuild()
	schemes := stream.NewSchemeSet(
		stream.MustScheme("S1", false, true),
		stream.MustScheme("S2", true, false),
		stream.MustScheme("S2", false, true),
		stream.MustScheme("S3", true, true),
	)
	inputs := workload.Closed(q, schemes, workload.ClosedConfig{
		Rounds: 30, TuplesPerRound: 6, Window: 3, PunctFraction: 1, Seed: 4,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := drive(b, q, schemes, exec.Config{}, inputs)
		if m.StatsSnapshot().TotalState() != 0 {
			b.Fatal("state did not drain")
		}
	}
}

// BenchmarkE6SafetyCheck measures the two safety-checking algorithms on
// clique queries of growing size (the §4.3 comparison).
func BenchmarkE6SafetyCheck(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		q := mustSynthetic(b, workload.Clique, n)
		schemes := workload.AllJoinAttrSchemes(q)
		b.Run(fmt.Sprintf("tpg/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !safety.Transform(q, schemes).SingleNode() {
					b.Fatal("must be safe")
				}
			}
		})
		b.Run(fmt.Sprintf("naivegpg/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !safety.BuildGPG(q, schemes).StronglyConnected() {
					b.Fatal("must be safe")
				}
			}
		})
	}
}

// BenchmarkE6PlanEnumeration measures the exponential alternative the
// theory avoids.
func BenchmarkE6PlanEnumeration(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		q := mustSynthetic(b, workload.Clique, n)
		schemes := workload.AllJoinAttrSchemes(q)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.EnumerateSafe(q, schemes, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7SchemeChoice measures §5.2 Plan Parameter I: full vs minimal
// scheme sets on the same query.
func BenchmarkE7SchemeChoice(b *testing.B) {
	q := mustSynthetic(b, workload.Cycle, 4)
	full := workload.AllJoinAttrSchemes(q)
	minimal := workload.MinimalSchemes(q, full)
	for _, mode := range []struct {
		name string
		set  *stream.SchemeSet
	}{{"all", full}, {"minimal", minimal}} {
		inputs := workload.Closed(q, mode.set, workload.ClosedConfig{
			Rounds: 40, TuplesPerRound: 6, Window: 3, PunctFraction: 1, Seed: 5,
		})
		b.Run(mode.name, func(b *testing.B) {
			var maxPunct int
			for i := 0; i < b.N; i++ {
				m := drive(b, q, mode.set, exec.Config{}, inputs)
				maxPunct = m.StatsSnapshot().MaxPunctStoreSize
			}
			b.ReportMetric(float64(maxPunct), "max-punct-store")
		})
	}
}

// BenchmarkE8EagerLazy measures §5.2 Plan Parameter II across purge batch
// sizes.
func BenchmarkE8EagerLazy(b *testing.B) {
	q := workload.AuctionQuery()
	schemes := workload.AuctionSchemes()
	inputs := workload.Auction(workload.AuctionConfig{
		Items: 5000, MaxBidsPerItem: 8, OpenWindow: 8,
		PunctuateItems: true, PunctuateClose: true, Seed: 6,
	})
	for _, batch := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var maxState int
			for i := 0; i < b.N; i++ {
				m := drive(b, q, schemes, exec.Config{PurgeBatch: batch}, inputs)
				maxState = m.StatsSnapshot().MaxStateSize
			}
			b.ReportMetric(float64(maxState), "max-state")
		})
	}
}

// BenchmarkE9PunctStore measures the §5.1 punctuation-store modes.
func BenchmarkE9PunctStore(b *testing.B) {
	q := workload.NetMonQuery()
	schemes := workload.NetMonSchemes()
	inputs := workload.NetMon(workload.NetMonConfig{
		Flows: 3000, MaxPktsPerFlow: 10, OpenWindow: 12,
		PunctuateFlowEnd: true, PunctuateConn: true, Seed: 7,
	})
	for _, mode := range []struct {
		name string
		cfg  exec.Config
	}{
		{"keepforever", exec.Config{}},
		{"counterpurge", exec.Config{PurgePunctuations: true}},
		{"lifespan", exec.Config{PunctLifespan: 5000}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var maxPunct int
			for i := 0; i < b.N; i++ {
				m := drive(b, q, schemes, mode.cfg, inputs)
				maxPunct = m.StatsSnapshot().MaxPunctStoreSize
			}
			b.ReportMetric(float64(maxPunct), "max-punct-store")
		})
	}
}

// BenchmarkE10CheckerScaling measures the simple-scheme checker across
// topology sizes (the §4.3 linear-time claim).
func BenchmarkE10CheckerScaling(b *testing.B) {
	for _, topo := range []workload.Topology{workload.Chain, workload.Cycle, workload.Star} {
		for _, n := range []int{8, 32, 128} {
			q := mustSynthetic(b, topo, n)
			schemes := workload.AllJoinAttrSchemes(q)
			b.Run(fmt.Sprintf("%s/n=%d", topo, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					safety.Transform(q, schemes)
				}
			})
		}
	}
}

// BenchmarkE11WindowVsPunct contrasts the two state-bounding mechanisms
// (§2.2/§6) on the auction feed.
func BenchmarkE11WindowVsPunct(b *testing.B) {
	q := workload.AuctionQuery()
	schemes := workload.AuctionSchemes()
	inputs := workload.Auction(workload.AuctionConfig{
		Items: 2000, MaxBidsPerItem: 8, OpenWindow: 6,
		PunctuateItems: true, PunctuateClose: true, Seed: 12,
	})
	b.Run("punctuations", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drive(b, q, schemes, exec.Config{}, inputs)
		}
	})
	b.Run("window", func(b *testing.B) {
		var maxState int
		for i := 0; i < b.N; i++ {
			wj, err := exec.NewWindowedMJoin(exec.Config{Query: q, Schemes: schemes}, exec.Window{Rows: 64})
			if err != nil {
				b.Fatal(err)
			}
			feed, _ := workload.NewFeed(q, inputs)
			if err := feed.Each(func(i int, e stream.Element) error {
				_, err := wj.Push(i, e)
				return err
			}); err != nil {
				b.Fatal(err)
			}
			maxState = wj.StatsSnapshot().MaxStateSize
		}
		b.ReportMetric(float64(maxState), "max-state")
	})
}

// BenchmarkE12Adaptive measures the adaptive purge controller against the
// fixed strategies.
func BenchmarkE12Adaptive(b *testing.B) {
	q := workload.AuctionQuery()
	schemes := workload.AuctionSchemes()
	inputs := workload.Auction(workload.AuctionConfig{
		Items: 5000, MaxBidsPerItem: 8, OpenWindow: 8,
		PunctuateItems: true, PunctuateClose: true, Seed: 13,
	})
	b.Run("adaptive", func(b *testing.B) {
		var maxState int
		for i := 0; i < b.N; i++ {
			a, err := exec.NewAdaptiveMJoin(exec.Config{Query: q, Schemes: schemes},
				exec.AdaptivePolicy{HighWater: 96, LowWater: 24, LazyBatch: 512})
			if err != nil {
				b.Fatal(err)
			}
			feed, _ := workload.NewFeed(q, inputs)
			if err := feed.Each(func(i int, e stream.Element) error {
				_, err := a.Push(i, e)
				return err
			}); err != nil {
				b.Fatal(err)
			}
			a.Flush()
			maxState = a.StatsSnapshot().MaxStateSize
		}
		b.ReportMetric(float64(maxState), "max-state")
	})
	for _, batch := range []int{1, 512} {
		b.Run(fmt.Sprintf("fixed-batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drive(b, q, schemes, exec.Config{PurgeBatch: batch}, inputs)
			}
		})
	}
}

// BenchmarkE13Watermarks measures the heartbeat/watermark scenario: the
// out-of-order sensor join purged by ordered punctuations.
func BenchmarkE13Watermarks(b *testing.B) {
	q := workload.SensorQuery()
	schemes := workload.SensorSchemes()
	inputs := workload.Sensor(workload.SensorConfig{
		Epochs: 2000, ReadingsPerEpoch: 2, Disorder: 8,
		HeartbeatEvery: 2, Heartbeats: true, Seed: 14,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := drive(b, q, schemes, exec.Config{}, inputs)
		if m.StatsSnapshot().TotalState() != 0 {
			b.Fatal("sensor state did not drain")
		}
	}
	b.ReportMetric(float64(len(inputs)), "elements/op")
}

// BenchmarkE14PlanChoice measures plan enumeration plus cost ranking on
// the 4-way chain (the §5.2 planning step itself).
func BenchmarkE14PlanChoice(b *testing.B) {
	q := mustSynthetic(b, workload.Chain, 4)
	schemes := workload.AllJoinAttrSchemes(q)
	model := plan.DefaultCostModel(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plans, err := plan.EnumerateSafe(q, schemes, model)
		if err != nil || len(plans) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinProbe isolates the result-emission hot path: symmetric
// hash probe with no punctuations.
func BenchmarkJoinProbe(b *testing.B) {
	ia := func(n string) stream.Attribute { return stream.Attribute{Name: n, Kind: stream.KindInt} }
	q := query.NewBuilder().
		AddStream(stream.MustSchema("R", ia("K"), ia("V"))).
		AddStream(stream.MustSchema("S", ia("K"), ia("W"))).
		JoinOn("R", "S", "K").
		MustBuild()
	m, err := exec.NewMJoin(exec.Config{Query: q, Schemes: stream.NewSchemeSet()})
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		m.Push(0, stream.TupleElement(stream.NewTuple(stream.Int(i), stream.Int(i))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i % 1000)
		m.Push(1, stream.TupleElement(stream.NewTuple(stream.Int(k), stream.Int(k))))
	}
}

// BenchmarkProbeSteadyState measures the probe machinery at fixed state
// size: a windowed join (insert + evict per push, zero net growth) probed
// with pre-built elements, so the loop isolates per-element probe cost —
// "hit" emits one result per push, "miss" emits none. The miss case is
// the floor: everything it allocates is probe overhead, not results.
func BenchmarkProbeSteadyState(b *testing.B) {
	ia := func(n string) stream.Attribute { return stream.Attribute{Name: n, Kind: stream.KindInt} }
	build := func(b *testing.B) *exec.WindowedMJoin {
		q := query.NewBuilder().
			AddStream(stream.MustSchema("R", ia("K"), ia("V"))).
			AddStream(stream.MustSchema("S", ia("K"), ia("W"))).
			JoinOn("R", "S", "K").
			MustBuild()
		wj, err := exec.NewWindowedMJoin(exec.Config{Query: q, Schemes: stream.NewSchemeSet()}, exec.Window{Rows: 1000})
		if err != nil {
			b.Fatal(err)
		}
		for i := int64(0); i < 1000; i++ {
			if _, err := wj.Push(0, stream.TupleElement(stream.NewTuple(stream.Int(i), stream.Int(i)))); err != nil {
				b.Fatal(err)
			}
		}
		return wj
	}
	elems := func(base int64) []stream.Element {
		out := make([]stream.Element, 1000)
		for i := range out {
			k := base + int64(i)
			out[i] = stream.TupleElement(stream.NewTuple(stream.Int(k), stream.Int(k)))
		}
		return out
	}
	for _, mode := range []struct {
		name string
		base int64 // key offset: 0 hits the stored R keys, 1<<20 misses all
	}{{"hit", 0}, {"miss", 1 << 20}} {
		b.Run(mode.name, func(b *testing.B) {
			wj := build(b)
			es := elems(mode.base)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wj.Push(1, es[i%len(es)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPurgeCheck isolates one purgeability evaluation via Sweep on a
// mid-sized chain state.
func BenchmarkPurgeCheck(b *testing.B) {
	q := workload.AuctionQuery()
	schemes := workload.AuctionSchemes()
	m, err := exec.NewMJoin(exec.Config{Query: q, Schemes: schemes, PurgeBatch: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	inputs := workload.Auction(workload.AuctionConfig{
		Items: 1000, MaxBidsPerItem: 5, OpenWindow: 6,
		PunctuateItems: true, PunctuateClose: false, Seed: 8,
	})
	feed, _ := workload.NewFeed(q, inputs)
	feed.Each(func(i int, e stream.Element) error {
		_, err := m.Push(i, e)
		return err
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sweep()
	}
}

func mustSynthetic(b *testing.B, topo workload.Topology, k int) *query.CJQ {
	b.Helper()
	q, err := workload.SyntheticQuery(topo, k)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// TestExperimentShapes runs the full experiment suite at reduced scale
// and asserts every table reports its paper-predicted shape (the notes
// embed the check results).
func TestExperimentShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is not short")
	}
	tables := []*experiments.Table{
		experiments.E1Auction([]int{200, 400}),
		experiments.E2ChainedPurge(),
		experiments.E3MJoinSafe(8),
		experiments.E4UnsafeBinaryTree(8),
		experiments.E5MultiAttr(8),
		experiments.E6TPGvsGPG([]int{4, 6}),
		experiments.E7SchemeChoice([]int{3}),
		experiments.E9PunctStore(500),
		experiments.E10CheckerScaling([]int{4, 8}),
		experiments.E11WindowVsPunct(500),
		experiments.E12Adaptive(2000),
		experiments.E13Watermarks(400),
		experiments.E14PlanChoice(15),
		experiments.E15PunctDelay(20),
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.ID)
		}
		if len(tb.Notes) == 0 {
			t.Errorf("%s: no shape note", tb.ID)
		}
		if containsViolation(tb.Notes) {
			t.Errorf("%s reported a shape violation:\n%s", tb.ID, tb.Render())
		}
	}
}

func containsViolation(s string) bool {
	return len(s) >= 5 && (stringContains(s, "VIOLATION"))
}

func stringContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
