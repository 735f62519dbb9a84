package exec

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

func intAttrs(names ...string) []stream.Attribute {
	out := make([]stream.Attribute, len(names))
	for i, n := range names {
		out[i] = stream.Attribute{Name: n, Kind: stream.KindInt}
	}
	return out
}

func mustSchema(name string, attrs ...string) *stream.Schema {
	return stream.MustSchema(name, intAttrs(attrs...)...)
}

func tup(vals ...int64) stream.Tuple {
	vs := make([]stream.Value, len(vals))
	for i, v := range vals {
		vs[i] = stream.Int(v)
	}
	return stream.NewTuple(vs...)
}

// punct builds a punctuation from int patterns; -1 means wildcard.
func punct(vals ...int64) stream.Punctuation {
	pats := make([]stream.Pattern, len(vals))
	for i, v := range vals {
		if v == -1 {
			pats[i] = stream.Wildcard()
		} else {
			pats[i] = stream.Const(stream.Int(v))
		}
	}
	return stream.MustPunctuation(pats...)
}

// binaryQuery is R(K,V) join S(K,W) on K.
func binaryQuery(t *testing.T) *query.CJQ {
	t.Helper()
	q, err := query.NewBuilder().
		AddStream(mustSchema("R", "K", "V")).
		AddStream(mustSchema("S", "K", "W")).
		Join("R.K", "S.K").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func bothSideSchemes() *stream.SchemeSet {
	return stream.NewSchemeSet(
		stream.MustScheme("R", true, false),
		stream.MustScheme("S", true, false),
	)
}

func pushT(t *testing.T, m *MJoin, input int, tu stream.Tuple) []stream.Element {
	t.Helper()
	out, err := m.Push(input, stream.TupleElement(tu))
	if err != nil {
		t.Fatalf("push tuple: %v", err)
	}
	return out
}

func pushP(t *testing.T, m *MJoin, input int, p stream.Punctuation) []stream.Element {
	t.Helper()
	out, err := m.Push(input, stream.PunctElement(p))
	if err != nil {
		t.Fatalf("push punct: %v", err)
	}
	return out
}

func countTuples(els []stream.Element) int {
	n := 0
	for _, e := range els {
		if !e.IsPunct() {
			n++
		}
	}
	return n
}

func TestBinaryJoinResults(t *testing.T) {
	m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes()})
	if err != nil {
		t.Fatal(err)
	}
	if got := countTuples(pushT(t, m, 0, tup(1, 10))); got != 0 {
		t.Fatalf("no match expected, got %d results", got)
	}
	out := pushT(t, m, 1, tup(1, 100))
	if countTuples(out) != 1 {
		t.Fatalf("want 1 result, got %d", countTuples(out))
	}
	r := out[0].Tuple()
	want := tup(1, 10, 1, 100)
	for i := range want.Values {
		if !r.Values[i].Equal(want.Values[i]) {
			t.Fatalf("result = %s, want %s", r, want)
		}
	}
	// Symmetric: another R tuple matching the stored S tuple.
	if got := countTuples(pushT(t, m, 0, tup(1, 20))); got != 1 {
		t.Fatalf("want 1 result, got %d", got)
	}
	// Duplicate values join many-to-many.
	pushT(t, m, 1, tup(1, 200))
	// Now stored: R{(1,10),(1,20)}, S{(1,100),(1,200)}; a third R tuple
	// with K=1 joins both S tuples.
	if got := countTuples(pushT(t, m, 0, tup(1, 30))); got != 2 {
		t.Fatalf("want 2 results, got %d", got)
	}
}

func TestBinaryJoinPurge(t *testing.T) {
	m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes()})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Purgeable(0) || !m.Purgeable(1) {
		t.Fatal("both inputs should be purgeable")
	}
	pushT(t, m, 0, tup(1, 10))
	pushT(t, m, 0, tup(2, 20))
	pushT(t, m, 1, tup(1, 100))
	if m.Stats().StateSize[0] != 2 || m.Stats().StateSize[1] != 1 {
		t.Fatalf("state sizes = %v", m.Stats().StateSize)
	}
	// Punctuation from S on K=1: purges the R tuple with K=1 (no future S
	// tuples with K=1 can join it).
	pushP(t, m, 1, punct(1, -1))
	if m.Stats().StateSize[0] != 1 {
		t.Fatalf("R state after S punct = %d, want 1", m.Stats().StateSize[0])
	}
	if m.Stats().StateSize[1] != 1 {
		t.Fatalf("S state must be untouched, got %d", m.Stats().StateSize[1])
	}
	// Punctuation from R on K=1 purges the stored S tuple with K=1.
	pushP(t, m, 0, punct(1, -1))
	if m.Stats().StateSize[1] != 0 {
		t.Fatalf("S state after R punct = %d, want 0", m.Stats().StateSize[1])
	}
	// K=2 R tuple survives until S punctuates K=2.
	if m.Stats().StateSize[0] != 1 {
		t.Fatalf("R state = %d, want 1", m.Stats().StateSize[0])
	}
	pushP(t, m, 1, punct(2, -1))
	if m.Stats().StateSize[0] != 0 {
		t.Fatalf("R state = %d, want 0", m.Stats().StateSize[0])
	}
	if m.Stats().TuplesPurged[0] != 2 || m.Stats().TuplesPurged[1] != 1 {
		t.Fatalf("purged = %v", m.Stats().TuplesPurged)
	}
}

func TestPurgeNeverLosesResults(t *testing.T) {
	// Same element sequence with and without purging must emit the same
	// results. The sequence punctuates K=1 on S, then sends more R
	// tuples with K=1 (they can never match) and fresh K=2 traffic.
	run := func(disable bool) (results int, state int) {
		m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes(), DisablePurge: disable})
		if err != nil {
			t.Fatal(err)
		}
		seq := []struct {
			input int
			el    stream.Element
		}{
			{0, stream.TupleElement(tup(1, 10))},
			{1, stream.TupleElement(tup(1, 100))}, // match -> 1
			{1, stream.PunctElement(punct(1, -1))},
			{0, stream.TupleElement(tup(1, 11))}, // joins stored S (1,100) -> 1
			{0, stream.TupleElement(tup(2, 20))},
			{1, stream.TupleElement(tup(2, 200))}, // match -> 1
			{0, stream.PunctElement(punct(1, -1))},
			{1, stream.TupleElement(tup(2, 201))}, // joins stored R (2,20) -> 1
		}
		total := 0
		for _, s := range seq {
			out, err := m.Push(s.input, s.el)
			if err != nil {
				t.Fatal(err)
			}
			total += countTuples(out)
		}
		return total, m.Stats().TotalState()
	}
	withPurge, stateWith := run(false)
	noPurge, stateWithout := run(true)
	if withPurge != noPurge {
		t.Fatalf("results with purge = %d, without = %d", withPurge, noPurge)
	}
	if stateWith >= stateWithout {
		t.Fatalf("purging should shrink state: with=%d without=%d", stateWith, stateWithout)
	}
}

// chainQuery is the Figure 3 3-way chain: S1(A,B) |x| S2(B,C) |x| S3(C,D).
func chainQuery(t *testing.T) *query.CJQ {
	t.Helper()
	q, err := query.NewBuilder().
		AddStream(mustSchema("S1", "A", "B")).
		AddStream(mustSchema("S2", "B", "C")).
		AddStream(mustSchema("S3", "C", "D")).
		Join("S1.B", "S2.B").
		Join("S2.C", "S3.C").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestChainedPurge reproduces §3.2's motivating example: to purge the S1
// tuple (a1,b1), the operator needs the punctuation (b1,*) from S2 AND
// punctuations (ci,*) from S3 for every c in the joinable frontier
// T_t[Υ_S2].
func TestChainedPurge(t *testing.T) {
	q := chainQuery(t)
	schemes := stream.NewSchemeSet(
		stream.MustScheme("S2", true, false), // punctuations on S2.B
		stream.MustScheme("S3", true, false), // punctuations on S3.C
	)
	m, err := NewMJoin(Config{Query: q, Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Purgeable(0) {
		t.Fatal("S1 must be purgeable by the chained strategy")
	}
	if m.Purgeable(1) || m.Purgeable(2) {
		t.Fatal("S2/S3 must not be purgeable under these schemes")
	}

	pushT(t, m, 0, tup(100, 1)) // t = (a1=100, b1=1)
	pushT(t, m, 1, tup(1, 7))   // joinable S2 tuple, C=7
	pushT(t, m, 1, tup(1, 8))   // joinable S2 tuple, C=8
	pushT(t, m, 1, tup(2, 9))   // NOT joinable with t (B=2)

	// Punctuation (1,*) from S2 alone is not enough: the frontier's C
	// values {7,8} must also be punctuated in S3.
	pushP(t, m, 1, punct(1, -1))
	if m.Stats().StateSize[0] != 1 {
		t.Fatalf("t purged too early: S2 punctuation alone is insufficient")
	}
	pushP(t, m, 2, punct(7, -1))
	if m.Stats().StateSize[0] != 1 {
		t.Fatalf("t purged too early: C=8 is still open")
	}
	pushP(t, m, 2, punct(8, -1))
	if m.Stats().StateSize[0] != 0 {
		t.Fatalf("t should be purged once (1,*) from S2 and (7,*),(8,*) from S3 arrived; state=%v",
			m.Stats().StateSize)
	}
	// The non-joinable S2 tuple and the untouched states stay.
	if m.Stats().StateSize[1] != 3 || m.Stats().StateSize[2] != 0 {
		t.Fatalf("unexpected states %v", m.Stats().StateSize)
	}
}

// TestChainedPurgeOrderIndependence: the same punctuations arriving in the
// opposite order must produce the same purge outcome.
func TestChainedPurgeOrderIndependence(t *testing.T) {
	q := chainQuery(t)
	schemes := stream.NewSchemeSet(
		stream.MustScheme("S2", true, false),
		stream.MustScheme("S3", true, false),
	)
	m, err := NewMJoin(Config{Query: q, Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}
	pushT(t, m, 0, tup(100, 1))
	pushT(t, m, 1, tup(1, 7))
	// S3 punctuation first, then S2: purge must still trigger.
	pushP(t, m, 2, punct(7, -1))
	if m.Stats().StateSize[0] != 1 {
		t.Fatal("S3 punctuation alone must not purge t")
	}
	pushP(t, m, 1, punct(1, -1))
	if m.Stats().StateSize[0] != 0 {
		t.Fatalf("t should purge when the full chain is covered, state=%v", m.Stats().StateSize)
	}
}

// TestEmptyFrontierPurge: when the S2 frontier for t is empty, the S2
// punctuation alone suffices (no S3 punctuations are required because no
// stored S2 tuple can bridge t to S3).
func TestEmptyFrontierPurge(t *testing.T) {
	q := chainQuery(t)
	schemes := stream.NewSchemeSet(
		stream.MustScheme("S2", true, false),
		stream.MustScheme("S3", true, false),
	)
	m, err := NewMJoin(Config{Query: q, Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}
	pushT(t, m, 0, tup(100, 1))
	pushP(t, m, 1, punct(1, -1))
	if m.Stats().StateSize[0] != 0 {
		t.Fatalf("t with empty S2 frontier should purge on the S2 punctuation alone, state=%v",
			m.Stats().StateSize)
	}
}

// TestMultiAttrPurge reproduces the §4.2 example on the Figure 8 query:
// S1(A,B) |x| S2(B,C) |x| S3(A,C) cyclic, schemes {S1(_,+), S2(+,_),
// S2(_,+), S3(+,+)}. The S1 tuple t=(a1,b1) purges once (b1,*) arrives
// from S2 and (a1,ci) arrives from S3 for every frontier value ci.
func TestMultiAttrPurge(t *testing.T) {
	q, err := query.NewBuilder().
		AddStream(mustSchema("S1", "A", "B")).
		AddStream(mustSchema("S2", "B", "C")).
		AddStream(mustSchema("S3", "A", "C")).
		Join("S1.B", "S2.B").
		Join("S2.C", "S3.C").
		Join("S3.A", "S1.A").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	schemes := stream.NewSchemeSet(
		stream.MustScheme("S1", false, true),
		stream.MustScheme("S2", true, false),
		stream.MustScheme("S2", false, true),
		stream.MustScheme("S3", true, true),
	)
	m, err := NewMJoin(Config{Query: q, Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !m.Purgeable(i) {
			t.Fatalf("input %d must be purgeable (Theorem 3)", i)
		}
	}

	pushT(t, m, 0, tup(5, 1)) // t = (a1=5, b1=1)
	pushT(t, m, 1, tup(1, 7)) // frontier C=7
	pushT(t, m, 1, tup(1, 8)) // frontier C=8

	pushP(t, m, 1, punct(1, -1)) // (b1,*) from S2 via scheme S2(+,_)
	if m.Stats().StateSize[0] != 1 {
		t.Fatal("t needs the S3 multi-attribute punctuations too")
	}
	pushP(t, m, 2, punct(5, 7)) // (a1,c1) from S3 via scheme S3(+,+)
	if m.Stats().StateSize[0] != 1 {
		t.Fatal("C=8 still open")
	}
	pushP(t, m, 2, punct(5, 8)) // (a1,c2)
	if m.Stats().StateSize[0] != 0 {
		t.Fatalf("t should purge; states=%v", m.Stats().StateSize)
	}
}

// TestThreeWayJoinResults checks multi-way result emission on the chain.
func TestThreeWayJoinResults(t *testing.T) {
	q := chainQuery(t)
	m, err := NewMJoin(Config{Query: q, Schemes: stream.NewSchemeSet()})
	if err != nil {
		t.Fatal(err)
	}
	pushT(t, m, 0, tup(100, 1))
	pushT(t, m, 2, tup(7, 700))
	out := pushT(t, m, 1, tup(1, 7)) // completes S1-S2-S3
	if countTuples(out) != 1 {
		t.Fatalf("want 1 three-way result, got %d", countTuples(out))
	}
	r := out[0].Tuple()
	want := tup(100, 1, 1, 7, 7, 700)
	for i := range want.Values {
		if !r.Values[i].Equal(want.Values[i]) {
			t.Fatalf("result = %s, want %s", r, want)
		}
	}
	// A second S3 tuple with C=7 creates another full result.
	if got := countTuples(pushT(t, m, 2, tup(7, 701))); got != 1 {
		t.Fatalf("want 1, got %d", got)
	}
	// Partial matches emit nothing.
	if got := countTuples(pushT(t, m, 1, tup(99, 42))); got != 0 {
		t.Fatalf("want 0, got %d", got)
	}
}

// TestCascadePurge: purging a bridging S2 tuple shrinks the frontier of an
// S1 tuple, unlocking its purge without any further punctuation.
func TestCascadePurge(t *testing.T) {
	q := chainQuery(t)
	schemes := stream.NewSchemeSet(
		stream.MustScheme("S1", false, true), // punct on S1.B
		stream.MustScheme("S2", true, false), // punct on S2.B
		stream.MustScheme("S2", false, true), // punct on S2.C
		stream.MustScheme("S3", false, true), // punct on S3.D? no — S3.C:
	)
	_ = schemes
	// Schemes: purging S2 tuples needs punctuations from S1 (on B) and S3
	// (on C); purging S1 tuples needs punctuations from S2 (on B) and S3
	// (on C, for the frontier).
	schemes = stream.NewSchemeSet(
		stream.MustScheme("S1", false, true), // S1.B -> purges S2 side
		stream.MustScheme("S2", true, false), // S2.B -> purges S1 side
		stream.MustScheme("S3", true, false), // S3.C -> purges S2/frontier side
	)
	m, err := NewMJoin(Config{Query: q, Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}
	pushT(t, m, 0, tup(100, 1)) // t
	pushT(t, m, 1, tup(1, 7))   // u bridges t to S3 with C=7
	pushP(t, m, 1, punct(1, -1))
	if m.Stats().StateSize[0] != 1 {
		t.Fatal("t still blocked by u's C=7 frontier")
	}
	// Punctuate S1.B=1 and S3.C=7: u becomes purgeable (its chain: no new
	// S1 tuples with B=1, frontier toward S3 closed by C=7; wait — u's
	// plan needs punctuations from S1 on B and from S3 on C).
	pushP(t, m, 0, punct(-1, 1))
	if m.Stats().StateSize[1] != 1 {
		t.Fatal("u still blocked by S3 punctuation")
	}
	pushP(t, m, 2, punct(7, -1))
	// u purges; with u gone, t's frontier toward S2 is empty... but t's
	// purge requires the (1,*) punctuation from S2 (already stored) and
	// then S3 coverage of an empty frontier — vacuous. Cascade should
	// remove both.
	if m.Stats().StateSize[1] != 0 {
		t.Fatalf("u should purge; states=%v", m.Stats().StateSize)
	}
	if m.Stats().StateSize[0] != 0 {
		t.Fatalf("t should cascade-purge after u; states=%v", m.Stats().StateSize)
	}
}

// TestLazyPurgeBatching: with PurgeBatch=4 the purge work is deferred,
// but results are identical and a final Flush catches up with eager mode.
func TestLazyPurgeBatching(t *testing.T) {
	mk := func(batch int) *MJoin {
		m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes(), PurgeBatch: batch})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	eager, lazy := mk(1), mk(64)
	var eagerResults, lazyResults int
	for i := int64(0); i < 50; i++ {
		for _, m := range []*MJoin{eager, lazy} {
			r := 0
			r += countTuples(pushT(t, m, 0, tup(i, i*10)))
			r += countTuples(pushT(t, m, 1, tup(i, i*100)))
			o1 := slices.Clone(pushP(t, m, 0, punct(i, -1))) // borrowed until the next Push
			o2 := pushP(t, m, 1, punct(i, -1))
			r += countTuples(o1) + countTuples(o2)
			if m == eager {
				eagerResults += r
			} else {
				lazyResults += r
			}
		}
	}
	lazy.Flush()
	if eagerResults != lazyResults {
		t.Fatalf("results eager=%d lazy=%d", eagerResults, lazyResults)
	}
	if eager.Stats().TotalState() != 0 {
		t.Fatalf("eager end state = %d, want 0", eager.Stats().TotalState())
	}
	if lazy.Stats().TotalState() != 0 {
		t.Fatalf("lazy end state after Flush = %d, want 0", lazy.Stats().TotalState())
	}
	if lazy.Stats().MaxStateSize < eager.Stats().MaxStateSize {
		t.Fatalf("lazy high-water %d should be >= eager %d",
			lazy.Stats().MaxStateSize, eager.Stats().MaxStateSize)
	}
}

// TestOutputPunctuationPropagation: once a punctuation's matching tuples
// are gone from its input's state, the operator emits an output
// punctuation on the corresponding output columns.
func TestOutputPunctuationPropagation(t *testing.T) {
	m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes()})
	if err != nil {
		t.Fatal(err)
	}
	pushT(t, m, 0, tup(1, 10))
	pushT(t, m, 1, tup(1, 100))
	// R punctuates K=1; the stored R tuple (1,10) still matches, so no
	// output punctuation yet — but the S tuple (1,100) purges.
	out := pushP(t, m, 0, punct(1, -1))
	if len(out) != 0 {
		t.Fatalf("no output punct while R still holds K=1; got %v", out)
	}
	// S punctuates K=1: the R tuple purges; now BOTH stored sides are
	// free of K=1, so both punctuations propagate.
	out = pushP(t, m, 1, punct(1, -1))
	punctCount := 0
	for _, e := range out {
		if e.IsPunct() {
			punctCount++
			p := e.Punct()
			// Output schema: R_K, R_V, S_K, S_W. The punctuation must
			// constrain K columns only.
			for i := range p.Arity() {
				pat := p.Pattern(i)
				isK := i == 0 || i == 2
				if isK && !pat.IsWildcard() && pat.Value().AsInt() != 1 {
					t.Fatalf("bad output punct %s", p)
				}
				if !isK && !pat.IsWildcard() {
					t.Fatalf("output punct constrains non-K column: %s", p)
				}
			}
		}
	}
	if punctCount != 2 {
		t.Fatalf("want 2 output punctuations (one per input scheme), got %d: %v", punctCount, out)
	}
	if m.Stats().OutPuncts != 2 {
		t.Fatalf("OutPuncts = %d", m.Stats().OutPuncts)
	}
}

// TestPunctuationStorePurge: §5.1 counter-punctuation purging drops a
// stored punctuation once its partner side is fully closed.
func TestPunctuationStorePurge(t *testing.T) {
	m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes(), PurgePunctuations: true})
	if err != nil {
		t.Fatal(err)
	}
	pushT(t, m, 0, tup(1, 10))
	pushP(t, m, 1, punct(1, -1)) // S punctuates K=1: purges R's tuple, stored in S's store
	if m.Stats().PunctStoreSize[1] != 1 {
		t.Fatalf("punct store S = %d, want 1", m.Stats().PunctStoreSize[1])
	}
	// Counter punctuation from R on K=1: no more R tuples with K=1, and no
	// stored R tuples with K=1 remain -> S's punctuation can be dropped.
	// Symmetrically R's own punctuation is droppable immediately since S
	// holds neither tuples nor... S's punctuation still stored? The
	// condition is per-store; after this push both stores should clear.
	pushP(t, m, 0, punct(1, -1))
	if got := m.Stats().PunctStoreSize[1]; got != 0 {
		t.Fatalf("S punct store after counter-punct = %d, want 0", got)
	}
	if got := m.Stats().PunctStoreSize[0]; got != 0 {
		t.Fatalf("R punct store = %d, want 0", got)
	}
	if m.Stats().PunctsPurged[0]+m.Stats().PunctsPurged[1] == 0 {
		t.Fatal("expected punctuation purges to be counted")
	}
}

// TestPunctLifespan: expired punctuations stop covering purge checks and
// are removed by the periodic cleanup.
func TestPunctLifespan(t *testing.T) {
	m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes(), PunctLifespan: 10})
	if err != nil {
		t.Fatal(err)
	}
	pushP(t, m, 1, punct(42, -1))
	if m.Stats().PunctStoreSize[1] != 1 {
		t.Fatal("punctuation should be stored")
	}
	// Advance the clock past the lifespan with unrelated traffic.
	for i := int64(0); i < 300; i++ {
		pushT(t, m, 0, tup(1000+i, 0))
	}
	if m.Stats().PunctStoreSize[1] != 0 {
		t.Fatalf("expired punctuation should be cleaned up, store=%d", m.Stats().PunctStoreSize[1])
	}
	// A tuple with K=42 arriving now must NOT be purged by the expired
	// punctuation.
	pushT(t, m, 0, tup(42, 1))
	sizeBefore := m.Stats().StateSize[0]
	m.Sweep()
	if m.Stats().StateSize[0] != sizeBefore {
		t.Fatal("expired punctuation must not purge")
	}
}

// TestIrrelevantPunctuationDropped: punctuations that instantiate no
// registered scheme are consumed but never stored.
func TestIrrelevantPunctuationDropped(t *testing.T) {
	m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes()})
	if err != nil {
		t.Fatal(err)
	}
	// Scheme is on R.K; punctuation on R.V instantiates nothing.
	pushP(t, m, 0, punct(-1, 7))
	if m.Stats().PunctStoreSize[0] != 0 {
		t.Fatal("irrelevant punctuation must not be stored")
	}
	if m.Stats().PunctsIn[0] != 1 {
		t.Fatal("punctuation should still be counted as consumed")
	}
}

// TestSweepMatchesEager: processing with purging disabled then invoking
// Sweep must reach the same state sizes as eager purging (the background
// clean-up equivalence).
func TestSweepMatchesEager(t *testing.T) {
	eager, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes()})
	if err != nil {
		t.Fatal(err)
	}
	lazyAll, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes(), PurgeBatch: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		for _, m := range []*MJoin{eager, lazyAll} {
			pushT(t, m, 0, tup(i%8, i))
			pushT(t, m, 1, tup(i%8, i))
			if i%3 == 0 {
				pushP(t, m, 0, punct(i%8, -1))
			}
			if i%5 == 0 {
				pushP(t, m, 1, punct(i%8, -1))
			}
		}
	}
	lazyAll.Sweep()
	for input := 0; input < 2; input++ {
		if eager.Stats().StateSize[input] != lazyAll.Stats().StateSize[input] {
			t.Fatalf("input %d: eager state %d != sweep state %d",
				input, eager.Stats().StateSize[input], lazyAll.Stats().StateSize[input])
		}
	}
}

// TestUnsafeInputGrows: with a one-sided scheme set the unpurgeable side
// grows without bound while the purgeable side stays flat (the compile-
// time rejection rationale).
func TestUnsafeInputGrows(t *testing.T) {
	schemes := stream.NewSchemeSet(stream.MustScheme("S", true, false)) // only S punctuates
	m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}
	if m.Purgeable(1) {
		t.Fatal("S must not be purgeable (no scheme on R)")
	}
	if !m.Purgeable(0) {
		t.Fatal("R must be purgeable (S punctuates K)")
	}
	for i := int64(0); i < 100; i++ {
		pushT(t, m, 0, tup(i, i))
		pushT(t, m, 1, tup(i, i))
		pushP(t, m, 1, punct(i, -1)) // closes R's tuple i
	}
	if m.Stats().StateSize[0] != 0 {
		t.Fatalf("R state = %d, want 0", m.Stats().StateSize[0])
	}
	if m.Stats().StateSize[1] != 100 {
		t.Fatalf("S state = %d, want 100 (unpurgeable)", m.Stats().StateSize[1])
	}
}

// TestOutputBufferHoldsNothing pins the operator-owned output buffer's
// contract from the inside: what a call returns is the buffer itself; the
// next call clears what the last one returned, so slots past the new
// length are zero; an element that fails after it has emitted (the state
// limit trips once the results are out) leaves no trace in it; and a
// buffer grown past maxOutBuf by one fat batch is dropped at the next call.
func TestOutputBufferHoldsNothing(t *testing.T) {
	requireZeroTail := func(m *MJoin, when string) {
		t.Helper()
		for i, e := range m.outBuf[len(m.outBuf):cap(m.outBuf)] {
			if !reflect.ValueOf(e).IsZero() {
				t.Fatalf("%s: slot %d past the buffer's length still holds %v", when, len(m.outBuf)+i, e)
			}
		}
	}
	const fat = maxOutBuf + 100
	m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes(), StateLimit: fat + 2})
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]stream.Element, 300)
	for i := range rs {
		rs[i] = stream.TupleElement(tup(1, int64(i)))
	}
	if _, _, err := m.PushBatch(0, rs); err != nil {
		t.Fatal(err)
	}
	out := pushT(t, m, 1, tup(1, 100)) // joins all 300
	if len(out) != len(rs) || &out[0] != &m.outBuf[0] {
		t.Fatalf("Push returned %d elements (want %d) in a slice that is not the operator's buffer", len(out), len(rs))
	}
	kept := out[0].Tuple()
	if out := pushP(t, m, 0, punct(2, -1)); len(out) != 1 || cap(m.outBuf) < len(rs) {
		t.Fatalf("second Push: %d outputs in a buffer of capacity %d", len(out), cap(m.outBuf))
	}
	requireZeroTail(m, "after a Push that reused the buffer")
	if got := kept.String(); got != tup(1, 0, 1, 100).String() {
		t.Fatalf("a tuple taken from a returned slice changed under reuse: %s", got)
	}

	// Fill R up to the limit; the next S tuple emits against all of it and
	// then fails to be stored.
	for i := len(rs); i <= fat; i += len(rs) {
		for j := range rs {
			rs[j] = stream.TupleElement(tup(1, int64(i+j)))
		}
		if _, n, err := m.PushBatch(0, rs[:min(len(rs), fat-i)]); err != nil {
			t.Fatalf("filling the state: %v after %d", err, n)
		}
	}
	if m.stats.TotalState() != fat+1 {
		t.Fatalf("state holds %d tuples, want %d", m.stats.TotalState(), fat+1)
	}
	if out := pushT(t, m, 1, tup(1, 101)); len(out) != fat || cap(m.outBuf) <= maxOutBuf {
		t.Fatalf("fat Push: %d outputs in a buffer of capacity %d, want %d and more than %d", len(out), cap(m.outBuf), fat, maxOutBuf)
	}
	out, err = m.Push(1, stream.TupleElement(tup(1, 102)))
	if !errors.Is(err, ErrStateLimit) || len(out) != 0 {
		t.Fatalf("Push over the state limit: %d outputs, error %v", len(out), err)
	}
	requireZeroTail(m, "after a Push that failed once its results were out")
	if out := m.Flush(); len(out) != 0 || cap(m.outBuf) > maxOutBuf {
		t.Fatalf("Flush after the fat batch: %d outputs, buffer capacity %d, want at most %d", len(out), cap(m.outBuf), maxOutBuf)
	}
}

// TestLentResultsHoldNothing is TestOutputBufferHoldsNothing for the
// values a lending operator builds its results in: the results of one
// call are carved back to back out of one buffer, each clamped to its
// own columns; the next call clears them; and a buffer grown past
// maxOutVals by one fat batch is dropped at the next call.
func TestLentResultsHoldNothing(t *testing.T) {
	m, err := NewMJoin(Config{Query: binaryQuery(t), Schemes: bothSideSchemes()})
	if err != nil {
		t.Fatal(err)
	}
	m.lend = true
	const fat = maxOutVals/4 + 1 // results of four columns
	rs := make([]stream.Element, fat)
	for i := range rs {
		rs[i] = stream.TupleElement(tup(1, int64(i)))
	}
	if _, _, err := m.PushBatch(0, rs[:3]); err != nil {
		t.Fatal(err)
	}
	pushT(t, m, 1, tup(1, 99)) // grows the buffer
	out := pushT(t, m, 1, tup(1, 100))
	if len(out) != 3 || len(m.outVals) != 12 {
		t.Fatalf("3 results in %d lent values, want 12", len(m.outVals))
	}
	for i, o := range out {
		v := o.Tuple().Values
		if got, want := o.String(), stream.TupleElement(tup(1, int64(i), 1, 100)).String(); got != want || cap(v) != 4 || &v[0] != &m.outVals[4*i] {
			t.Fatalf("result %d is %s in %d columns of its own, want %s carved from the buffer", i, got, cap(v), want)
		}
	}
	pushP(t, m, 0, punct(2, -1))
	for i, v := range m.outVals[:12] {
		if !reflect.ValueOf(v).IsZero() {
			t.Fatalf("value %d of the last call's results survived the next call: %v", i, v)
		}
	}

	if _, _, err := m.PushBatch(0, rs[3:]); err != nil {
		t.Fatal(err)
	}
	if out := pushT(t, m, 1, tup(1, 101)); len(out) != fat || cap(m.outVals) <= maxOutVals {
		t.Fatalf("fat Push: %d results in %d lent values, want %d and more than %d", len(out), cap(m.outVals), fat, maxOutVals)
	}
	if m.Flush(); cap(m.outVals) > maxOutVals {
		t.Fatalf("Flush after the fat batch kept %d lent values, want at most %d", cap(m.outVals), maxOutVals)
	}
}

// TestRecycledStateHoldsNothing pins what purged state leaves behind once
// it is kept for reuse. A closed-world chain-4 feed drains through a tree
// (one 4-way operator, so the operator's stores are sampled after every
// element they see), once with §5.1 punctuation purging and once with
// punctuation lifespans. After every element: every free store entry is
// zero and no retired one is still stored; every spare index bucket has
// length 0 and shares its array with no live key's bucket; and a store
// holds no more entries, live and pooled, than it held live at its peak,
// nor a state more buckets than its index held keys — so the pools are
// the purged state's own high-water mark, not a leak; and every value
// page slot past a state's last row is zero, so the pages compaction
// keeps pin nothing. At the end the store pools, reclaimed as the next
// add would, are all zero.
func TestRecycledStateHoldsNothing(t *testing.T) {
	q, err := workload.SyntheticQuery(workload.Chain, 4)
	if err != nil {
		t.Fatal(err)
	}
	schemes := workload.AllJoinAttrSchemes(q)
	inputs := workload.Closed(q, schemes, workload.ClosedConfig{Rounds: 24, TuplesPerRound: 16, Window: 32,
		PunctFraction: 1, PunctDelay: 2, Seed: 3})
	zero := func(e *punctEntry) bool { return reflect.ValueOf(*e).IsZero() }
	for _, cfg := range []Config{{PurgePunctuations: true}, {PunctLifespan: 700}} {
		cfg.Query, cfg.Schemes = q, schemes
		tree, err := NewTree(cfg, plan.Join(plan.Leaf(0), plan.Leaf(1), plan.Leaf(2), plan.Leaf(3)))
		if err != nil {
			t.Fatal(err)
		}
		m := tree.Root()
		storePeak := make([]int, q.N())
		keyPeak := make([]int, q.N())
		rowPeak := make([]int, q.N())
		pooled, spared, compacted := 0, 0, false
		check := func(when string) {
			t.Helper()
			for i, ps := range m.puncts {
				live := map[*punctEntry]bool{}
				for _, em := range ps.entries {
					em.each(func(_ mapKey, e *punctEntry) { live[e] = true })
				}
				for _, e := range ps.free {
					if !zero(e) {
						t.Fatalf("%s: input %d: free entry holds %+v", when, i, *e)
					}
				}
				for _, e := range ps.retired {
					if live[e] {
						t.Fatalf("%s: input %d: retired entry %s is still stored", when, i, e.punct)
					}
				}
				storePeak[i] = max(storePeak[i], ps.size)
				if n := ps.size + len(ps.free) + len(ps.retired); n > storePeak[i] {
					t.Fatalf("%s: input %d: %d entries (%d live, %d free, %d retired), peak %d live",
						when, i, n, ps.size, len(ps.free), len(ps.retired), storePeak[i])
				}
				pooled = max(pooled, len(ps.free)+len(ps.retired))
			}
			for i, st := range m.states {
				arrays := map[*row]bool{}
				keys := 0
				for _, idx := range st.index {
					if idx != nil {
						keys += idx.len()
						idx.each(func(_ mapKey, b []row) { arrays[&b[:cap(b)][0]] = true })
					}
				}
				for _, b := range st.spare {
					if len(b) != 0 {
						t.Fatalf("%s: input %d: spare bucket holds rows %v", when, i, b)
					}
					if cap(b) > 0 && arrays[&b[:1][0]] {
						t.Fatalf("%s: input %d: spare bucket shares a live key's array", when, i)
					}
				}
				keyPeak[i] = max(keyPeak[i], keys)
				if keys+len(st.spare) > keyPeak[i] {
					t.Fatalf("%s: input %d: %d keys and %d spare buckets, peak %d keys",
						when, i, keys, len(st.spare), keyPeak[i])
				}
				spared = max(spared, len(st.spare))
				requireSlotsZeroPastRows(t, st)
				rowPeak[i] = max(rowPeak[i], len(st.ids))
				compacted = compacted || len(st.ids) < rowPeak[i]
			}
		}
		feed, err := workload.NewFeed(q, inputs)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := feed.Each(func(i int, e stream.Element) error {
			if e.IsPunct() {
				// add's new entry raises the store before the purge round
				// lowers it again: that is its peak.
				ps := m.puncts[i]
				if si := ps.schemeIndex(e.Punct()); si >= 0 {
					if _, ok := ps.find(si, ps.constants(e.Punct())); !ok {
						storePeak[i] = max(storePeak[i], ps.size+1)
					}
				}
			}
			_, err := tree.Push(i, e)
			n++
			check(fmt.Sprintf("element %d (%s)", n, e))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tree.Sweep(); err != nil {
			t.Fatal(err)
		}
		check("after the drain")
		st := m.StatsSnapshot()
		if purged := st.PunctsPurged[0] + st.PunctsPurged[1] + st.PunctsPurged[2] + st.PunctsPurged[3]; purged == 0 || pooled == 0 || spared == 0 || !compacted {
			t.Fatalf("%+v: %d punctuations purged, at most %d entries pooled and %d buckets kept, compacted %v: nothing was recycled", cfg, purged, pooled, spared, compacted)
		}
		for i, ps := range m.puncts {
			ps.reclaim()
			if j := slices.IndexFunc(ps.free, func(e *punctEntry) bool { return !zero(e) }); len(ps.retired) != 0 || j >= 0 {
				t.Fatalf("input %d: after reclaim %d entries retired, free entry %d not zero", i, len(ps.retired), j)
			}
		}
	}
}
