package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"testing"

	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

// Golden equivalence. Each golden has three hashes. The emission hashes
// cover the ORDERED emitted stream, call by call: result tuples, output
// punctuations and errors, through the feed, the final Flush and a Sweep;
// one folds the variants with §5.1 off, the other those with it on. The
// state hash covers the rest: the serialized operator state at the feed's
// midpoint, at its end and after the Sweep, every Stats counter before and
// after the Sweep, and the Sweep's removal count. Any change to a purge
// decision, to emission order, to a counter or to a serialized byte moves
// a hash, and a change to the outputs moves an emission hash even when the
// counters move too. On promise-keeping feeds §5.1 is invisible in the
// outputs, so there the two emission hashes are equal.
//
// The hashes were re-recorded when §5.1 stopped retiring a punctuation
// before it was propagated. No §5.1-off emission hash moved then; see
// CHANGES.md for which hashes did, and why.

// goldenHashes are one golden's emission hashes (§5.1 off, §5.1 on) and
// its state hash.
type goldenHashes struct{ emit, emit51, state string }

// goldenRun drives one feed through one MJoin and folds what it emits into
// emit and everything else observable into state.
func goldenRun(t *testing.T, emit, state io.Writer, cfg Config, inputs []workload.Input) {
	t.Helper()
	m, err := NewMJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := workload.NewFeed(cfg.Query, inputs)
	if err != nil {
		t.Fatal(err)
	}
	emitted := func(tag string, outs []stream.Element) {
		fmt.Fprintf(emit, "%s %d\n", tag, len(outs))
		for _, o := range outs {
			fmt.Fprintln(emit, o.String())
		}
	}
	serialized := func(tag string) {
		blob, err := m.appendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(state, "%s %x\n", tag, sha256.Sum256(blob))
	}
	n := 0
	if err := feed.Each(func(i int, e stream.Element) error {
		outs, err := m.Push(i, e)
		if err != nil {
			// Promise violations and the like are part of the observable
			// behaviour of the unpromised scenarios.
			fmt.Fprintf(emit, "err %d\n", n)
		}
		emitted("push", outs)
		if n++; n == feed.Len()/2 {
			serialized("mid")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	emitted("flush", m.Flush())
	fmt.Fprintf(state, "stats %s\n", goldenStats(m.StatsSnapshot()))
	serialized("end")
	removed, outs := m.Sweep()
	fmt.Fprintf(state, "sweep %d\n", removed)
	emitted("sweep", outs)
	fmt.Fprintf(state, "stats %s\n", goldenStats(m.StatsSnapshot()))
	serialized("swept")
}

// goldenStats renders the counters as %+v printed them when the hashes
// were first recorded, Stats then carrying two tier fields (ColdSize,
// Freezes) that were always zero in these runs.
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

func goldenHash(t *testing.T, q *query.CJQ, sets []*stream.SchemeSet, feeds [][]workload.Input, extra func(*Config)) goldenHashes {
	emit, emit51, state := sha256.New(), sha256.New(), sha256.New()
	for si, set := range sets {
		for _, v := range goldenVariants {
			cfg := v
			cfg.Query, cfg.Schemes = q, set
			if extra != nil {
				extra(&cfg)
			}
			h := emit
			if cfg.PurgePunctuations {
				h = emit51
			}
			goldenRun(t, h, state, cfg, feeds[si])
		}
	}
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }
	return goldenHashes{sum(emit), sum(emit51), sum(state)}
}

// checkGolden compares a golden's hashes with the recorded ones, naming
// each that moved and printing the new triple in the table's own form.
func checkGolden(t *testing.T, name string, got, want goldenHashes) {
	t.Helper()
	for _, h := range []struct{ what, got, want string }{
		{"emission (§5.1 off)", got.emit, want.emit},
		{"emission (§5.1 on)", got.emit51, want.emit51},
		{"state", got.state, want.state},
	} {
		if h.got != h.want {
			t.Errorf("%s hash %q, recorded %q", h.what, h.got, h.want)
		}
	}
	if t.Failed() {
		t.Logf("now %q: {%q, %q, %q},", name, got.emit, got.emit51, got.state)
	}
}

func TestGoldenSynthetic(t *testing.T) {
	want := map[string]goldenHashes{
		"chain/2":  {"3d3bfbddc56b0aa2", "3d3bfbddc56b0aa2", "5000e97dc81e6e59"},
		"chain/3":  {"d921457f61bbe092", "d921457f61bbe092", "9a7473f19fc68e86"},
		"chain/4":  {"c3934f50e14e74f6", "c3934f50e14e74f6", "13031f100b9c8b33"},
		"chain/5":  {"ea3581c3e83c3eb6", "ea3581c3e83c3eb6", "b16b1c072d1760f7"},
		"star/2":   {"3d3bfbddc56b0aa2", "3d3bfbddc56b0aa2", "5000e97dc81e6e59"},
		"star/3":   {"43c6ba63b18c0457", "43c6ba63b18c0457", "708e06badc971d70"},
		"star/4":   {"1af273c606233d27", "1af273c606233d27", "021596c264a7cb58"},
		"star/5":   {"4f283a90630b8a4b", "4f283a90630b8a4b", "73876787b6fa22d9"},
		"cycle/2":  {"3d3bfbddc56b0aa2", "3d3bfbddc56b0aa2", "5000e97dc81e6e59"},
		"cycle/3":  {"a882fa043f3580ca", "a882fa043f3580ca", "3ec41c5ac96d737f"},
		"cycle/4":  {"103e606a1ec1a78b", "103e606a1ec1a78b", "97180a6d9a07f06b"},
		"cycle/5":  {"655559702e41afb3", "655559702e41afb3", "ef681964a054ce62"},
		"clique/2": {"3d3bfbddc56b0aa2", "3d3bfbddc56b0aa2", "5000e97dc81e6e59"},
		"clique/3": {"8e8882a0a29ae169", "8e8882a0a29ae169", "6366074bd5ebd21f"},
		"clique/4": {"0fc093df0c9e61ad", "0fc093df0c9e61ad", "621a5170acc60c5d"},
		"clique/5": {"544ead82981651ef", "544ead82981651ef", "8811c4e829b9b1bc"},
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
				checkGolden(t, name, goldenHash(t, q, sets, feeds, nil), want[name])
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
	want := map[string]goldenHashes{
		"auction":        {"5952aeca27ca3f45", "5952aeca27ca3f45", "bf17fa172526d4c5"},
		"netmon":         {"9e73195a4baff0a7", "9e73195a4baff0a7", "b07baec97d55f72f"},
		"sensor":         {"a12b5d2f947a5afb", "a12b5d2f947a5afb", "52aa2c55b4b147af"},
		"mixed":          {"23dbdabfdea1104b", "23cc757743ab5cd6", "624ec641d0b7a05c"},
		"mixed-enforced": {"158372d7aef8cd13", "8ee8cd8b9e86ecf9", "629035090edbfa4b"},
		// The sensor feed at the benchmark's shape, where every heartbeat
		// purges ~256 tuples per state and forces a compaction.
		"sensor-bench": {"36cfe20255746e4f", "36cfe20255746e4f", "52dfe20e1b412c52"},
	}
	check := func(name string, q *query.CJQ, set *stream.SchemeSet, inputs []workload.Input, extra func(*Config)) {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name, goldenHash(t, q, []*stream.SchemeSet{set}, [][]workload.Input{inputs}, extra), want[name])
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
