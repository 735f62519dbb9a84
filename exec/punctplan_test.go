package exec

import (
	"reflect"
	"strings"
	"testing"

	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

// Corner cases of §5.1 punctuation purging, each pinned by what the
// operator observably does (these assertions hold at the commit before
// the punctuation plans were compiled as well) and by what the compiled
// plan holds for it.

func planMJoin(t *testing.T, q *query.CJQ, cfg Config, schemes ...stream.Scheme) *MJoin {
	t.Helper()
	cfg.Query, cfg.Schemes = q, stream.NewSchemeSet(schemes...)
	cfg.PurgePunctuations = true
	m, err := NewMJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPunctPlanConflict: two constants of one scheme map to the same
// partner attribute. With different values no partner tuple can ever
// match, so that partner contributes nothing — and since it is the only
// partner, the punctuation is never certified away. With equal values the
// mapping is an ordinary one.
func TestPunctPlanConflict(t *testing.T) {
	q := query.NewBuilder().
		AddStream(mustSchema("X", "a", "b")).
		AddStream(mustSchema("Y", "c", "d")).
		Join("X.a", "Y.c").Join("X.b", "Y.c").
		MustBuild()
	m := planMJoin(t, q, Config{}, stream.MustScheme("X", true, true), stream.MustScheme("Y", true, false))
	want := []partnerPlan{{
		other: 1, attrs: []int{0}, slots: []int{0},
		conflicts: [][2]int{{0, 1}},
		counters:  []constSource{{scheme: 0, from: []int{0}}},
	}}
	if got := m.punctPlans[0][0].partners; !reflect.DeepEqual(got, want) {
		t.Fatalf("X(a,b) partner plans %+v, want %+v", got, want)
	}
	// Y(c) reaches both X.a and X.b from its one slot: no conflict, and
	// X(a,b) is its counter-scheme with both constants drawn from slot 0.
	want = []partnerPlan{{
		other: 0, attrs: []int{0, 1}, slots: []int{0, 0},
		counters: []constSource{{scheme: 0, from: []int{0, 0}}},
	}}
	if got := m.punctPlans[1][0].partners; !reflect.DeepEqual(got, want) {
		t.Fatalf("Y(c) partner plans %+v, want %+v", got, want)
	}
	pushP(t, m, 0, punct(1, 2))
	pushP(t, m, 1, punct(1, -1))
	pushP(t, m, 1, punct(2, -1))
	m.Sweep()
	if got := m.Stats().PunctsPurged; !reflect.DeepEqual(got, []uint64{0, 0}) {
		t.Fatalf("conflicting constants: PunctsPurged %v, want none", got)
	}
	pushP(t, m, 0, punct(3, 3))
	pushP(t, m, 1, punct(3, -1))
	if got := m.Stats().PunctsPurged; !reflect.DeepEqual(got, []uint64{1, 1}) {
		t.Fatalf("equal constants: PunctsPurged %v, want one on each side", got)
	}
}

// TestPunctPlanReconstructFromRemoved: a removed conn tuple is the last
// blocker of the stored two-attribute pkt punctuation whose constants are
// the tuple's own (src, port); the round that removes it is triggered by
// a host punctuation that maps onto neither, so only the reverse mapping
// of the removed tuple can find the entry.
func TestPunctPlanReconstructFromRemoved(t *testing.T) {
	q := query.NewBuilder().
		AddStream(mustSchema("conn", "src", "port", "h")).
		AddStream(mustSchema("pkt", "src", "port", "bytes")).
		AddStream(mustSchema("host", "h")).
		AddStream(mustSchema("w", "src")).
		Join("conn.src", "pkt.src").Join("conn.port", "pkt.port").
		Join("conn.h", "host.h").Join("conn.src", "w.src").
		MustBuild()
	m := planMJoin(t, q, Config{},
		stream.MustScheme("conn", true, true, false),
		stream.MustScheme("pkt", true, true, false),
		stream.MustScheme("host", true),
		stream.MustScheme("w", true))
	wantProbes := []removedProbe{
		{1, constSource{0, []int{0, 1}}}, // pkt(src,port) from conn.src, conn.port — once, not per predicate
		{2, constSource{0, []int{2}}},    // host(h) from conn.h
		{3, constSource{0, []int{0}}},    // w(src) from conn.src
	}
	if got := m.removedProbes[0]; !reflect.DeepEqual(got, wantProbes) {
		t.Fatalf("conn removed-tuple probes %+v, want %+v", got, wantProbes)
	}
	pushP(t, m, 0, punct(1, 2, -1)) // kept: w has not closed src=1
	pushT(t, m, 0, tup(1, 2, 7))
	pushP(t, m, 1, punct(1, 2, -1)) // blocked by the stored conn tuple
	pushP(t, m, 3, punct(1))
	if got := m.Stats().PunctsPurged; !reflect.DeepEqual(got, []uint64{0, 0, 0, 0}) {
		t.Fatalf("before the removal: PunctsPurged %v, want none", got)
	}
	pushP(t, m, 2, punct(7)) // completes the conn tuple's purge chain
	if m.Stats().StateSize[0] != 0 {
		t.Fatalf("conn tuple not purged: %v", m.Stats().StateSize)
	}
	if got := m.Stats().PunctsPurged; !reflect.DeepEqual(got, []uint64{0, 1, 0, 0}) {
		t.Fatalf("after the removal: PunctsPurged %v, want the pkt punctuation only", got)
	}
}

// TestPunctPlanUnjoinedAttr: a scheme with a constrained attribute that
// joins no partner is not certifiable, alone or next to a constrained join
// attribute: no counter-punctuation can speak for it. Nothing needs one
// either, since no purge plan and no partner reads such a punctuation. It
// stays while a tuple matching it is stored on its own input, and it
// retires once none is, which is when it is propagated.
func TestPunctPlanUnjoinedAttr(t *testing.T) {
	m := planMJoin(t, binaryQuery(t), Config{},
		stream.MustScheme("R", false, true),
		stream.MustScheme("R", true, true),
		stream.MustScheme("S", true, false))
	for si, want := range []struct {
		certifiable bool
		probeSlot   int
	}{{false, -1}, {false, 0}} {
		if pl := m.punctPlans[0][si]; pl.certifiable != want.certifiable || pl.probeSlot != want.probeSlot {
			t.Fatalf("R scheme %d: certifiable %v probeSlot %d, want %+v", si, pl.certifiable, pl.probeSlot, want)
		}
	}
	if pl := m.punctPlans[1][0]; !pl.certifiable || pl.probeSlot != 0 {
		t.Fatalf("S(k): certifiable %v probeSlot %d, want true 0", pl.certifiable, pl.probeSlot)
	}
	check := func(when string, purged []uint64, stored []int) {
		t.Helper()
		if got := m.Stats().PunctsPurged; !reflect.DeepEqual(got, purged) {
			t.Fatalf("%s: PunctsPurged %v, want %v", when, got, purged)
		}
		if got := m.Stats().PunctStoreSize; !reflect.DeepEqual(got, stored) {
			t.Fatalf("%s: PunctStoreSize %v, want %v", when, got, stored)
		}
	}
	pushT(t, m, 0, tup(1, 5))
	pushP(t, m, 0, punct(-1, 5))
	pushP(t, m, 0, punct(1, 5))
	m.Sweep()
	check("while R(1,5) is stored", []uint64{0, 0}, []int{2, 0})
	if n := len(pushP(t, m, 0, punct(-1, 7))); n != 1 {
		t.Fatalf("R(*,7) emitted %d elements, want its output punctuation", n)
	}
	check("R(*,7), matching nothing stored", []uint64{1, 0}, []int{2, 0})
	// S(1) purges R(1,5): both R punctuations are propagated and retire;
	// S(1) waits for an R counter-punctuation on K, a scheme R lacks.
	if outs := pushP(t, m, 1, punct(1, -1)); len(outs) != 3 || countTuples(outs) != 0 {
		t.Fatalf("S(1) emitted %v, want three output punctuations", outs)
	}
	check("after R(1,5) is purged", []uint64{3, 0}, []int{0, 1})
}

// TestPunctPlanOrderedNeverCounterPurged: watermark entries compact
// themselves and are never dropped by counter-punctuations.
func TestPunctPlanOrderedNeverCounterPurged(t *testing.T) {
	wm := func(s string) stream.Scheme {
		return stream.MustOrderedScheme(s, []bool{true, false}, []bool{true, false})
	}
	m := planMJoin(t, binaryQuery(t), Config{}, wm("R"), wm("S"))
	pl := m.punctPlans[0][0]
	if pl.certifiable || pl.ordSlot != 0 || pl.probeSlot != -1 {
		t.Fatalf("R(k<=): certifiable %v ordSlot %d probeSlot %d, want false 0 -1", pl.certifiable, pl.ordSlot, pl.probeSlot)
	}
	if want := []punctAnchor{{other: 1, attr: 0, slot: 0}}; !reflect.DeepEqual(pl.anchors, want) {
		t.Fatalf("R(k<=) anchors %+v, want %+v", pl.anchors, want)
	}
	for b := int64(1); b <= 3; b++ {
		pushP(t, m, 0, wmPunct(b))
		pushP(t, m, 1, wmPunct(b))
	}
	m.Sweep()
	if got := m.Stats().PunctsPurged; !reflect.DeepEqual(got, []uint64{0, 0}) {
		t.Fatalf("PunctsPurged %v, want none", got)
	}
	if got := m.Stats().PunctStoreSize; !reflect.DeepEqual(got, []int{1, 1}) {
		t.Fatalf("PunctStoreSize %v, want one compacted entry per side", got)
	}
}

// TestPunctPlanStringJoinAttr drives the non-numeric key path: every
// string value has the same (zero) numeric payload, so index buckets,
// store entries and coverage checks must tell them apart by the string.
func TestPunctPlanStringJoinAttr(t *testing.T) {
	sa := func(n string) stream.Attribute { return stream.Attribute{Name: n, Kind: stream.KindString} }
	q := query.NewBuilder().
		AddStream(stream.MustSchema("R", sa("k"), intAttr("v"))).
		AddStream(stream.MustSchema("S", sa("k"), intAttr("w"))).
		Join("R.k", "S.k").
		MustBuild()
	m := planMJoin(t, q, Config{EnforcePromises: true}, stream.MustScheme("R", true, false), stream.MustScheme("S", true, false))
	if idx := m.states[0].index[0]; idx.num != nil || idx.str == nil {
		t.Fatal("string join attribute indexed by numeric bits")
	}
	if m.puncts[0].eqSlot[0] != -1 || m.puncts[0].entries[0].str == nil {
		t.Fatal("string-constant scheme not keyed by its encoded constants")
	}
	st := func(k string, v int64) stream.Tuple { return stream.NewTuple(stream.Str(k), stream.Int(v)) }
	sp := func(k string) stream.Punctuation {
		return stream.MustPunctuation(stream.Const(stream.Str(k)), stream.Wildcard())
	}
	pushT(t, m, 0, st("a", 1))
	pushT(t, m, 0, st("b", 2))
	pushT(t, m, 0, st("", 3))
	if n := countTuples(pushT(t, m, 1, st("a", 10))); n != 1 {
		t.Fatalf("S(a) joined %d R tuples, want 1", n)
	}
	if n := countTuples(pushT(t, m, 1, st("", 11))); n != 1 {
		t.Fatalf("S(\"\") joined %d R tuples, want 1", n)
	}
	pushP(t, m, 1, sp("a")) // purges R(a); S's own "a" punctuation waits for R's
	pushP(t, m, 0, sp("a")) // purges S(a); both punctuations certify each other
	if got := m.Stats().StateSize; !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("StateSize %v, want [2 1] (only the \"a\" tuples purged)", got)
	}
	if got := m.Stats().PunctsPurged; !reflect.DeepEqual(got, []uint64{1, 1}) {
		t.Fatalf("PunctsPurged %v, want [1 1]", got)
	}
	if _, err := m.Push(0, stream.TupleElement(st("b", 4))); err != nil {
		t.Fatalf("R(b) rejected although only \"a\" was punctuated: %v", err)
	}
	pushP(t, m, 0, sp("b"))
	if _, err := m.Push(0, stream.TupleElement(st("b", 5))); err == nil {
		t.Fatal("R(b) accepted after its own punctuation")
	}
}

func intAttr(n string) stream.Attribute { return stream.Attribute{Name: n, Kind: stream.KindInt} }

// TestNeedFrontier pins the compiled per-step bit: a purge plan advances
// the joinable frontier into a step's stream only when a later step reads
// it — never for a plan's last step, so never on a binary join.
func TestNeedFrontier(t *testing.T) {
	chain, err := workload.SyntheticQuery(workload.Chain, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMJoin(Config{Query: chain, Schemes: workload.AllJoinAttrSchemes(chain)})
	if err != nil {
		t.Fatal(err)
	}
	// Root 0 walks S2, S3, S4, each step drawing from the one before;
	// root 1 covers S1 first, a dead end nothing later reads.
	if got, want := m.needFrontier[0], []bool{true, true, false}; !reflect.DeepEqual(got, want) {
		t.Fatalf("chain root 0: needFrontier %v (plan %+v), want %v", got, m.plans[0].Steps, want)
	}
	for k, st := range m.plans[1].Steps {
		if leaf := st.Stream == 0 || st.Stream == 3; m.needFrontier[1][k] == leaf {
			t.Fatalf("chain root 1 step %d (stream %d): needFrontier %v", k, st.Stream, m.needFrontier[1][k])
		}
	}
	sensor, err := NewMJoin(Config{Query: workload.SensorQuery(), Schemes: workload.SensorSchemes()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sensor.needFrontier, [][]bool{{false}, {false}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sensor needFrontier %v, want %v", got, want)
	}
}

// TestRoundStampWrap runs a purge-heavy feed across the point where the
// 32-bit row stamp wraps: the rounds on either side must queue, check and
// purge exactly what an operator far from the wrap does.
func TestRoundStampWrap(t *testing.T) {
	q, err := workload.SyntheticQuery(workload.Chain, 3)
	if err != nil {
		t.Fatal(err)
	}
	schemes := workload.AllJoinAttrSchemes(q)
	inputs := workload.Closed(q, schemes, workload.ClosedConfig{Rounds: 6, TuplesPerRound: 8, Window: 3, PunctFraction: 1, Seed: 9})
	run := func(round uint64) (string, Stats) {
		m, err := NewMJoin(Config{Query: q, Schemes: schemes, PurgePunctuations: true})
		if err != nil {
			t.Fatal(err)
		}
		m.pg.round = round
		var out strings.Builder
		feed, err := workload.NewFeed(q, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := feed.Each(func(i int, e stream.Element) error {
			outs, err := m.Push(i, e)
			for _, o := range outs {
				out.WriteString(o.String() + "\n")
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if uint32(m.pg.round) >= uint32(round) && round != 0 {
			t.Fatalf("round counter %d → %d never wrapped its low word", round, m.pg.round)
		}
		return out.String(), *m.StatsSnapshot()
	}
	wantOut, wantStats := run(0)
	// Let the wrap land on each of the feed's first rounds in turn.
	for d := uint64(1); d <= 48; d++ {
		gotOut, gotStats := run(1<<32 - d)
		if gotOut != wantOut || !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("wrap at round %d: stats %+v, want %+v (outputs equal: %v)", d, gotStats, wantStats, gotOut == wantOut)
		}
	}
	if wantStats.TotalState() != 0 || wantStats.PurgeChecks == 0 {
		t.Fatalf("feed did not purge its state: %+v", wantStats)
	}
}
