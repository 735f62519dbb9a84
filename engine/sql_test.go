package engine

import (
	"testing"

	"punctsafe/stream"
	"punctsafe/workload"
)

// TestRegisterSQLAuction runs the paper's Example 1 declared entirely in
// SQL, with a projection, against the real auction workload.
func TestRegisterSQLAuction(t *testing.T) {
	d := New()
	regs, err := d.RegisterSQL("auction", `
CREATE STREAM item (sellerid INT, itemid INT, name STRING, initialprice FLOAT);
CREATE STREAM bid (bidderid INT, itemid INT, increase FLOAT);
DECLARE SCHEME ON item (itemid);
DECLARE SCHEME ON bid (itemid);
SELECT item.itemid, bid.increase FROM item, bid
WHERE item.itemid = bid.itemid;
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("registered %d queries", len(regs))
	}
	reg := regs[0]
	if reg.Output.Arity() != 2 {
		t.Fatalf("projected output schema = %s", reg.Output)
	}

	inputs := workload.Auction(workload.AuctionConfig{
		Items: 150, MaxBidsPerItem: 5, OpenWindow: 4,
		PunctuateItems: true, PunctuateClose: true, Seed: 17,
	})
	bids := 0
	var wantTotal float64
	for _, in := range inputs {
		if in.Stream == "bid" && !in.Elem.IsPunct() {
			bids++
			wantTotal += in.Elem.Tuple().Values[2].AsFloat()
		}
		if err := d.Push(in.Stream, in.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if len(reg.Results) != bids {
		t.Fatalf("results = %d, want %d", len(reg.Results), bids)
	}
	var gotTotal float64
	for _, r := range reg.Results {
		if len(r.Values) != 2 {
			t.Fatalf("projected result arity = %d", len(r.Values))
		}
		gotTotal += r.Values[1].AsFloat()
	}
	if gotTotal != wantTotal {
		t.Fatalf("sum of projected increases = %v, want %v", gotTotal, wantTotal)
	}
	if reg.Tree.TotalState() != 0 {
		t.Fatal("state should drain")
	}
}

// TestRegisterSQLFilters: literal predicates act as selections — filtered
// tuples never enter the join, and punctuations still purge.
func TestRegisterSQLFilters(t *testing.T) {
	d := New()
	regs, err := d.RegisterSQL("q", `
CREATE STREAM ev (k INT, tag INT);
CREATE STREAM ref (k INT, w INT);
DECLARE SCHEME ON ev (k);
DECLARE SCHEME ON ref (k);
SELECT * FROM ev, ref WHERE ev.k = ref.k AND ev.tag = 1;
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := regs[0]
	tup := func(vals ...int64) stream.Element {
		vs := make([]stream.Value, len(vals))
		for i, v := range vals {
			vs[i] = stream.Int(v)
		}
		return stream.TupleElement(stream.NewTuple(vs...))
	}
	punctK := func(streamName string, k int64) {
		if err := d.Push(streamName, stream.PunctElement(stream.MustPunctuation(
			stream.Const(stream.Int(k)), stream.Wildcard()))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Push("ref", tup(7, 700)); err != nil {
		t.Fatal(err)
	}
	if err := d.Push("ev", tup(7, 0)); err != nil { // filtered out
		t.Fatal(err)
	}
	if err := d.Push("ev", tup(7, 1)); err != nil { // passes
		t.Fatal(err)
	}
	if len(reg.Results) != 1 {
		t.Fatalf("results = %d, want 1 (tag=0 filtered)", len(reg.Results))
	}
	// The filtered tuple never entered the state.
	if got := reg.Tree.Root().Stats().StateSize[0]; got != 1 {
		t.Fatalf("ev state = %d, want 1", got)
	}
	punctK("ev", 7)
	punctK("ref", 7)
	if reg.Tree.TotalState() != 0 {
		t.Fatalf("state = %d after punctuations", reg.Tree.TotalState())
	}
}

// TestRegisterSQLUnsafeRejectedAndRolledBack: a script whose second query
// is unsafe registers nothing.
func TestRegisterSQLUnsafeRejected(t *testing.T) {
	d := New()
	_, err := d.RegisterSQL("q", `
CREATE STREAM a (k INT);
CREATE STREAM b (k INT);
DECLARE SCHEME ON a (k);
DECLARE SCHEME ON b (k);
SELECT * FROM a, b WHERE a.k = b.k;
SELECT * FROM b, c WHERE b.k = c.k;
`, Options{})
	if err == nil {
		t.Fatal("script referencing undeclared stream must fail")
	}
	if len(d.Queries()) != 0 {
		t.Fatalf("failed script must roll back, %d queries registered", len(d.Queries()))
	}

	_, err = d.RegisterSQL("q", `
CREATE STREAM a (k INT, x INT);
CREATE STREAM b (k INT);
DECLARE SCHEME ON b (k);
SELECT * FROM a, b WHERE a.k = b.k;
`, Options{})
	if err == nil {
		t.Fatal("unsafe query must be rejected")
	}
	if len(d.Queries()) != 0 {
		t.Fatal("unsafe script must register nothing")
	}
}

const shareSQLBase = `
CREATE STREAM ev (k INT, tag INT);
CREATE STREAM ref (k INT, w INT);
DECLARE SCHEME ON ev (k);
DECLARE SCHEME ON ref (k);
`

// TestSQLShareFiltersAndProjections: two SQL views share one physical
// tree exactly when their joins AND canonical filters agree — the
// projection is delivery-side and never blocks sharing — while a
// different filter value, or a permuted FROM order (different physical
// child order, different output schema), keeps trees apart.
func TestSQLShareFiltersAndProjections(t *testing.T) {
	d := New()
	mustSQL := func(prefix, stmt string) *Registered {
		t.Helper()
		regs, err := d.RegisterSQL(prefix, shareSQLBase+stmt, Options{Share: true})
		if err != nil {
			t.Fatal(err)
		}
		return regs[0]
	}
	v1 := mustSQL("v1", "SELECT ev.k FROM ev, ref WHERE ev.k = ref.k AND ev.tag = 1;")
	v2 := mustSQL("v2", "SELECT ref.w FROM ev, ref WHERE ev.k = ref.k AND ev.tag = 1;")
	v3 := mustSQL("v3", "SELECT * FROM ev, ref WHERE ev.k = ref.k AND ev.tag = 2;")
	v4 := mustSQL("v4", "SELECT * FROM ref, ev WHERE ev.k = ref.k AND ev.tag = 1;")
	if v2.Tree != v1.Tree {
		t.Fatal("same join + same filter + different projection must share one tree")
	}
	if v3.Tree == v1.Tree {
		t.Fatal("a different filter value must not share the tree")
	}
	if v4.Tree == v1.Tree {
		t.Fatal("a permuted FROM order is a different physical tree (different output schema) and must not share")
	}
	if got := d.PhysicalTrees(); got != 3 {
		t.Fatalf("PhysicalTrees = %d, want 3", got)
	}

	tup := func(vals ...int64) stream.Element {
		vs := make([]stream.Value, len(vals))
		for i, v := range vals {
			vs[i] = stream.Int(v)
		}
		return stream.TupleElement(stream.NewTuple(vs...))
	}
	if err := d.Push("ref", tup(7, 700)); err != nil {
		t.Fatal(err)
	}
	if err := d.Push("ev", tup(7, 0)); err != nil { // fails every tag filter
		t.Fatal(err)
	}
	if err := d.Push("ev", tup(7, 1)); err != nil { // passes tag=1
		t.Fatal(err)
	}
	if len(v1.Results) != 1 || v1.Results[0].Values[0].AsInt() != 7 {
		t.Fatalf("v1 results = %v, want one projected (7)", v1.Results)
	}
	if len(v2.Results) != 1 || v2.Results[0].Values[0].AsInt() != 700 {
		t.Fatalf("v2 results = %v, want one projected (700) off the shared tree", v2.Results)
	}
	if len(v3.Results) != 0 {
		t.Fatalf("v3 (tag=2) delivered %d results, want 0", len(v3.Results))
	}
	if len(v4.Results) != 1 {
		t.Fatalf("v4 delivered %d results, want 1", len(v4.Results))
	}
	for _, streamName := range []string{"ev", "ref"} {
		if err := d.Push(streamName, stream.PunctElement(stream.MustPunctuation(
			stream.Const(stream.Int(7)), stream.Wildcard()))); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.TotalState(); got != 0 {
		t.Fatalf("TotalState = %d after punctuations, want 0", got)
	}
}

// TestRegisterSQLMultipleQueries: one script, several queries, each
// independently named and fed.
func TestRegisterSQLMultipleQueries(t *testing.T) {
	d := New()
	regs, err := d.RegisterSQL("multi", `
CREATE STREAM a (k INT);
CREATE STREAM b (k INT);
CREATE STREAM c (k INT);
DECLARE SCHEME ON a (k);
DECLARE SCHEME ON b (k);
DECLARE SCHEME ON c (k);
SELECT * FROM a, b WHERE a.k = b.k;
SELECT * FROM b, c WHERE b.k = c.k;
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 || regs[0].Name != "multi#1" || regs[1].Name != "multi#2" {
		t.Fatalf("regs = %v", regs)
	}
	one := stream.TupleElement(stream.NewTuple(stream.Int(1)))
	for _, s := range []string{"a", "b", "c"} {
		if err := d.Push(s, one); err != nil {
			t.Fatal(err)
		}
	}
	if len(regs[0].Results) != 1 || len(regs[1].Results) != 1 {
		t.Fatalf("results = %d/%d", len(regs[0].Results), len(regs[1].Results))
	}
}
