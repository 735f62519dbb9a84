package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

// Golden equivalence. The hashes below were recorded at the commit before
// the compiled punctuation plans and the kind-typed key container went in
// (PR 13) and must keep passing unmodified: each one covers the ORDERED
// emitted stream (result tuples and output punctuations), the serialized
// operator state at the feed's midpoint and at its end, every Stats
// counter before and after a final Sweep, and the Sweep's own emissions.
// Any change to a purge decision, to emission order, to a counter or to a
// serialized byte moves a hash.

// goldenRun drives one feed through one MJoin and folds everything
// observable into h.
func goldenRun(t *testing.T, h io.Writer, cfg Config, inputs []workload.Input) {
	t.Helper()
	m, err := NewMJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := workload.NewFeed(cfg.Query, inputs)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(tag string, outs []stream.Element) {
		fmt.Fprintf(h, "%s %d\n", tag, len(outs))
		for _, o := range outs {
			fmt.Fprintln(h, o.String())
		}
	}
	state := func(tag string) {
		blob, err := m.appendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %x\n", tag, sha256.Sum256(blob))
	}
	n := 0
	if err := feed.Each(func(i int, e stream.Element) error {
		outs, err := m.Push(i, e)
		if err != nil {
			// Promise violations and the like are part of the observable
			// behaviour of the unpromised scenarios.
			fmt.Fprintf(h, "err %d\n", n)
		}
		emit("push", outs)
		if n++; n == feed.Len()/2 {
			state("mid")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	emit("flush", m.Flush())
	fmt.Fprintf(h, "stats %s\n", goldenStats(m.StatsSnapshot()))
	state("end")
	removed, outs := m.Sweep()
	fmt.Fprintf(h, "sweep %d\n", removed)
	emit("sweep", outs)
	fmt.Fprintf(h, "stats %s\n", goldenStats(m.StatsSnapshot()))
	state("swept")
}

// goldenStats renders the counters as %+v printed them when the hashes
// were recorded, Stats then carrying two tier fields (ColdSize, Freezes)
// that were always zero in these runs.
func goldenStats(s *Stats) string {
	return fmt.Sprintf("{TuplesIn:%v PunctsIn:%v Results:%d OutPuncts:%d TuplesPurged:%v PunctsPurged:%v "+
		"StateSize:%v ColdSize:%v PunctStoreSize:%v MaxStateSize:%d MaxPunctStoreSize:%d PurgeChecks:%d "+
		"PressureEvents:%d Freezes:0}",
		s.TuplesIn, s.PunctsIn, s.Results, s.OutPuncts, s.TuplesPurged, s.PunctsPurged,
		s.StateSize, make([]int, len(s.StateSize)), s.PunctStoreSize, s.MaxStateSize, s.MaxPunctStoreSize, s.PurgeChecks,
		s.PressureEvents)
}

// goldenVariants is the purge-timing × §5.1 grid every scenario runs under.
var goldenVariants = []Config{
	{},
	{PurgeBatch: 16},
	{PurgePunctuations: true},
	{PurgeBatch: 16, PurgePunctuations: true},
}

func goldenHash(t *testing.T, q *query.CJQ, sets []*stream.SchemeSet, feeds [][]workload.Input, extra func(*Config)) string {
	h := sha256.New()
	for si, set := range sets {
		for _, v := range goldenVariants {
			cfg := v
			cfg.Query, cfg.Schemes = q, set
			if extra != nil {
				extra(&cfg)
			}
			goldenRun(t, h, cfg, feeds[si])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func TestGoldenSynthetic(t *testing.T) {
	want := map[string]string{
		"chain/2": "975c866ea6b082ac", "chain/3": "155578a7e64ebfc2", "chain/4": "88e0d6e34a7550a2", "chain/5": "2b820e8c62a5223c",
		"star/2": "975c866ea6b082ac", "star/3": "907de8ee3b9f9693", "star/4": "a122b9d42c14d58e", "star/5": "cd19ccaf9437e47f",
		"cycle/2": "975c866ea6b082ac", "cycle/3": "3a97cd39f9d737ad", "cycle/4": "5332378be63d5ce3", "cycle/5": "f445cbf898191be2",
		"clique/2": "975c866ea6b082ac", "clique/3": "7a58ba8d80a0ed64", "clique/4": "cc9486b9c6ace6da", "clique/5": "8a7e040c35e9c02b",
	}
	for _, topo := range []workload.Topology{workload.Chain, workload.Star, workload.Cycle, workload.Clique} {
		for k := 2; k <= 5; k++ {
			name := fmt.Sprintf("%s/%d", topo, k)
			t.Run(name, func(t *testing.T) {
				q, err := workload.SyntheticQuery(topo, k)
				if err != nil {
					t.Fatal(err)
				}
				all := workload.AllJoinAttrSchemes(q)
				sets := []*stream.SchemeSet{all, workload.MinimalSchemes(q, all)}
				var feeds [][]workload.Input
				for i, set := range sets {
					feeds = append(feeds, workload.Closed(q, set, workload.ClosedConfig{
						Rounds: 8, TuplesPerRound: 5, Window: 3, PunctFraction: 1,
						PunctDelay: i, Seed: int64(1000*k + i),
					}))
				}
				if got := goldenHash(t, q, sets, feeds, nil); got != want[name] {
					t.Errorf("golden hash %q, recorded %q", got, want[name])
				}
			})
		}
	}
}

// TestGoldenScenarios covers what the synthetic grid cannot: float and
// string attributes, a two-attribute scheme (netmon), lifespans, ordered
// schemes (sensor), promise enforcement, and a hand-built query
// whose feed makes no promises at all, so stored punctuations, removed
// tuples and counter-punctuations collide in every combination.
func TestGoldenScenarios(t *testing.T) {
	want := map[string]string{
		"auction": "e8b51c5d4dafe3db", "netmon": "b51fb32994a34473", "sensor": "65c6a9a545d52d65",
		"mixed": "5bb93f418a673537", "mixed-enforced": "9a8184cc84195d3a",
		// Recorded at the commit before the row-addressed state (PR 14): the
		// sensor feed at the benchmark's shape, where every heartbeat purges
		// ~256 tuples per state and forces a compaction.
		"sensor-bench": "1a7d4217d0205145",
	}
	check := func(name string, q *query.CJQ, set *stream.SchemeSet, inputs []workload.Input, extra func(*Config)) {
		t.Run(name, func(t *testing.T) {
			got := goldenHash(t, q, []*stream.SchemeSet{set}, [][]workload.Input{inputs}, extra)
			if got != want[name] {
				t.Errorf("golden hash %q, recorded %q", got, want[name])
			}
		})
	}
	check("auction", workload.AuctionQuery(), workload.AuctionSchemes(), workload.Auction(workload.AuctionConfig{
		Items: 120, MaxBidsPerItem: 5, OpenWindow: 6, PunctuateItems: true, PunctuateClose: true, Seed: 31,
	}), func(c *Config) { c.EnforcePromises = true })
	check("netmon", workload.NetMonQuery(), workload.NetMonSchemes(), workload.NetMon(workload.NetMonConfig{
		Flows: 120, MaxPktsPerFlow: 6, OpenWindow: 5, PunctuateFlowEnd: true, PunctuateConn: true, Seed: 32,
	}), func(c *Config) { c.PunctLifespan = 300; c.EnforcePromises = true })
	check("sensor", workload.SensorQuery(), workload.SensorSchemes(), workload.Sensor(workload.SensorConfig{
		Epochs: 120, ReadingsPerEpoch: 3, Disorder: 4, HeartbeatEvery: 2, Heartbeats: true, Seed: 33,
	}), func(c *Config) { c.EnforcePromises = true })
	bench := workload.Sensor(workload.SensorConfig{
		Epochs: 1500, ReadingsPerEpoch: 4, Disorder: 256, HeartbeatEvery: 64, Heartbeats: true, Seed: 35,
	})
	check("sensor-bench", workload.SensorQuery(), workload.SensorSchemes(), bench,
		func(c *Config) { c.EnforcePromises = true })
	q, set, inputs := goldenMixedScenario(34)
	check("mixed", q, set, inputs, nil)
	check("mixed-enforced", q, set, inputs, func(c *Config) { c.EnforcePromises = true })
}

// goldenMixedScenario is a three-stream cycle with a string join
// attribute, simple, two-attribute and ordered schemes side by side on
// the same streams, and a random feed over tiny domains.
func goldenMixedScenario(seed int64) (*query.CJQ, *stream.SchemeSet, []workload.Input) {
	attr := func(n string, k stream.Kind) stream.Attribute { return stream.Attribute{Name: n, Kind: k} }
	q := query.NewBuilder().
		AddStream(stream.MustSchema("A", attr("k", stream.KindString), attr("g", stream.KindInt), attr("ts", stream.KindInt), attr("pay", stream.KindFloat))).
		AddStream(stream.MustSchema("B", attr("k", stream.KindString), attr("g", stream.KindInt), attr("x", stream.KindFloat))).
		AddStream(stream.MustSchema("C", attr("x", stream.KindFloat), attr("ts", stream.KindInt), attr("name", stream.KindString))).
		Join("A.k", "B.k").Join("A.g", "B.g").Join("B.x", "C.x").Join("A.ts", "C.ts").
		MustBuild()
	schemes := []stream.Scheme{
		stream.MustScheme("A", true, false, false, false),
		stream.MustScheme("A", true, true, false, false),
		stream.MustScheme("A", false, false, true, false),
		stream.MustOrderedScheme("A", []bool{false, false, true, false}, []bool{false, false, true, false}),
		stream.MustScheme("A", false, false, false, true), // constrains a non-join attribute
		stream.MustScheme("B", true, true, false),
		stream.MustScheme("B", true, false, false),
		stream.MustScheme("B", false, false, true),
		stream.MustScheme("C", true, false, false),
		stream.MustScheme("C", false, true, false),
		stream.MustOrderedScheme("C", []bool{true, true, false}, []bool{false, true, false}),
		stream.MustScheme("C", true, true, false),
	}
	set := stream.NewSchemeSet(schemes...)
	rng := rand.New(rand.NewSource(seed))
	strs := []string{"a", "b", "c", "dd", ""}
	value := func(k stream.Kind, clock int) stream.Value {
		switch k {
		case stream.KindString:
			return stream.Str(strs[rng.Intn(len(strs))])
		case stream.KindFloat:
			return stream.Float(float64(rng.Intn(4)) / 2)
		default:
			return stream.Int(int64(clock/200 + rng.Intn(4)))
		}
	}
	var inputs []workload.Input
	for n := 0; n < 2400; n++ {
		s := rng.Intn(q.N())
		sc := q.Stream(s)
		if rng.Intn(5) < 2 {
			var own []stream.Scheme
			for _, sch := range schemes {
				if sch.Stream == sc.Name() {
					own = append(own, sch)
				}
			}
			sch := own[rng.Intn(len(own))]
			var consts []stream.Value
			for _, a := range sch.PunctuatableIndexes() {
				consts = append(consts, value(sc.Attr(a).Kind, n))
			}
			p, err := sch.Instantiate(consts...)
			if err != nil {
				panic(err)
			}
			inputs = append(inputs, workload.Input{Stream: sc.Name(), Elem: stream.PunctElement(p)})
			continue
		}
		vals := make([]stream.Value, sc.Arity())
		for a := range vals {
			vals[a] = value(sc.Attr(a).Kind, n)
		}
		inputs = append(inputs, workload.Input{Stream: sc.Name(), Elem: stream.TupleElement(stream.NewTuple(vals...))})
	}
	return q, set, inputs
}
