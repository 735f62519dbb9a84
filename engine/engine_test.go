package engine

import (
	"strings"
	"testing"

	"punctsafe/exec"
	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

// fig5Query builds the cyclic 3-way query of Figures 5/7/8.
func fig5Query(t *testing.T) *query.CJQ {
	t.Helper()
	ia := func(n string) stream.Attribute { return stream.Attribute{Name: n, Kind: stream.KindInt} }
	q, err := query.NewBuilder().
		AddStream(stream.MustSchema("S1", ia("A"), ia("B"))).
		AddStream(stream.MustSchema("S2", ia("B"), ia("C"))).
		AddStream(stream.MustSchema("S3", ia("A"), ia("C"))).
		Join("S1.B", "S2.B").
		Join("S2.C", "S3.C").
		Join("S3.A", "S1.A").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestAuctionEndToEnd runs Example 1 through the full DSMS: register the
// auction schemes, admit the item-bid join, stream a complete auction
// season, and verify that every bid found its item and both join states
// drained to zero.
func TestAuctionEndToEnd(t *testing.T) {
	d := New()
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	reg, err := d.Register("auction", workload.AuctionQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Report.Safe {
		t.Fatal("auction query must be admitted as safe")
	}

	inputs := workload.Auction(workload.AuctionConfig{
		Items: 200, MaxBidsPerItem: 6, OpenWindow: 5,
		PunctuateItems: true, PunctuateClose: true, Seed: 42,
	})
	bids := 0
	for _, in := range inputs {
		if in.Stream == "bid" && !in.Elem.IsPunct() {
			bids++
		}
		if err := d.Push(in.Stream, in.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(reg.Results); got != bids {
		t.Fatalf("results = %d, want one per bid = %d", got, bids)
	}
	if got := reg.Tree.TotalState(); got != 0 {
		t.Fatalf("join states should drain to 0, have %d", got)
	}
	root := reg.Tree.Root()
	if root.Stats().TuplesPurged[0] == 0 || root.Stats().TuplesPurged[1] == 0 {
		t.Fatalf("both sides should have purged tuples: %v", root.Stats().TuplesPurged)
	}
}

// TestUnsafeQueryRejected: with only the bidderid scheme the auction
// query must be rejected at registration (the §1 motivating case).
func TestUnsafeQueryRejected(t *testing.T) {
	d := New()
	d.RegisterScheme(stream.MustScheme("bid", true, false, false)) // bidderid only
	_, err := d.Register("auction", workload.AuctionQuery(), Options{})
	if err == nil {
		t.Fatal("unsafe query must be rejected")
	}
	if !strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("rejection should explain unsafety, got: %v", err)
	}
	if len(d.Queries()) != 0 {
		t.Fatal("rejected query must not be registered")
	}
}

// TestForcedUnsafePlanRejected: forcing the Figure 7 binary tree on the
// Figure 5 query must fail even though the query itself is safe.
func TestForcedUnsafePlanRejected(t *testing.T) {
	d := New()
	d.RegisterScheme(stream.MustScheme("S1", false, true))
	d.RegisterScheme(stream.MustScheme("S2", false, true))
	d.RegisterScheme(stream.MustScheme("S3", true, false))
	q := fig5Query(t)
	bad := plan.Join(plan.Join(plan.Leaf(0), plan.Leaf(1)), plan.Leaf(2))
	if _, err := d.Register("fig5", q, Options{Plan: bad}); err == nil {
		t.Fatal("forced unsafe plan must be rejected")
	}
	// Without forcing a plan the query is admitted (the MJoin plan).
	reg, err := d.Register("fig5", q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Plan.Children) != 3 {
		t.Fatalf("expected the 3-way MJoin plan, got %s", reg.Plan.Render(q))
	}
}

// TestNetMonEndToEnd: the multi-attribute scheme scenario drains both
// states and pairs every packet with its connection.
func TestNetMonEndToEnd(t *testing.T) {
	d := New()
	for _, s := range workload.NetMonSchemes().All() {
		d.RegisterScheme(s)
	}
	reg, err := d.Register("netmon", workload.NetMonQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := workload.NetMon(workload.NetMonConfig{
		Flows: 150, MaxPktsPerFlow: 8, OpenWindow: 6,
		PunctuateFlowEnd: true, PunctuateConn: true, Seed: 7,
	})
	pkts := 0
	for _, in := range inputs {
		if in.Stream == "pkt" && !in.Elem.IsPunct() {
			pkts++
		}
		if err := d.Push(in.Stream, in.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(reg.Results); got != pkts {
		t.Fatalf("results = %d, want one per packet = %d", got, pkts)
	}
	if got := reg.Tree.TotalState(); got != 0 {
		t.Fatalf("states should drain, have %d", got)
	}
}

// TestMultipleQueriesShareInput: two queries over the same streams each
// receive the input manager's elements.
func TestMultipleQueriesShareInput(t *testing.T) {
	d := New()
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	q1, err1 := d.Register("q1", workload.AuctionQuery(), Options{})
	q2, err2 := d.Register("q2", workload.AuctionQuery(), Options{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	inputs := workload.Auction(workload.AuctionConfig{
		Items: 50, MaxBidsPerItem: 4, OpenWindow: 3,
		PunctuateItems: true, PunctuateClose: true, Seed: 1,
	})
	for _, in := range inputs {
		if err := d.Push(in.Stream, in.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if len(q1.Results) == 0 || len(q1.Results) != len(q2.Results) {
		t.Fatalf("both queries should see identical results: %d vs %d", len(q1.Results), len(q2.Results))
	}
	if !d.Unregister("q2") || d.Unregister("q2") {
		t.Fatal("Unregister bookkeeping broken")
	}
}

// TestDSMSSweep: with purging fully deferred, the §5.1 background
// clean-up of a registered query's tree removes everything the
// punctuations cover.
func TestDSMSSweep(t *testing.T) {
	d := New()
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	reg, err := d.Register("auction", workload.AuctionQuery(), Options{PurgeBatch: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	inputs := workload.Auction(workload.AuctionConfig{
		Items: 80, MaxBidsPerItem: 4, OpenWindow: 4,
		PunctuateItems: true, PunctuateClose: true, Seed: 44,
	})
	for _, in := range inputs {
		if err := d.Push(in.Stream, in.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Tree.TotalState() == 0 {
		t.Fatal("deferred purging should have left state behind")
	}
	removed, _, err := reg.Tree.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || reg.Tree.TotalState() != 0 {
		t.Fatalf("sweep removed %d, state %d", removed, reg.Tree.TotalState())
	}
}

// TestGroupByDownstream wires the paper's full Example 1 pipeline: join
// item with bid, then sum the increases per item. The join's PROPAGATED
// punctuations (emitted once both sides closed an item) unblock the
// group-by, which emits exactly one total per item that received bids.
func TestGroupByDownstream(t *testing.T) {
	d := New()
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	q := workload.AuctionQuery()

	var gb *exec.GroupBy
	var finished []stream.Tuple
	feed := func(e stream.Element) {
		outs, err := gb.Push(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			finished = append(finished, o.Tuple())
		}
	}
	reg, err := d.Register("auction", q, Options{
		OnResult: func(tu stream.Tuple) { feed(stream.TupleElement(tu)) },
		OnPunct:  func(p stream.Punctuation) { feed(stream.PunctElement(p)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	gb, err = exec.NewGroupBy(reg.Tree.OutputSchema(), "item_itemid", exec.AggSum, "bid_increase")
	if err != nil {
		t.Fatal(err)
	}

	inputs := workload.Auction(workload.AuctionConfig{
		Items: 100, MaxBidsPerItem: 5, OpenWindow: 4,
		PunctuateItems: true, PunctuateClose: true, Seed: 99,
	})
	// Reference: per-item sum of increases.
	wantSum := make(map[int64]float64)
	for _, in := range inputs {
		if in.Stream == "bid" && !in.Elem.IsPunct() {
			tu := in.Elem.Tuple()
			wantSum[tu.Values[1].AsInt()] += tu.Values[2].AsFloat()
		}
	}
	for _, in := range inputs {
		if err := d.Push(in.Stream, in.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if len(finished) != len(wantSum) {
		t.Fatalf("groups emitted = %d, want %d (one per item with bids)", len(finished), len(wantSum))
	}
	for _, g := range finished {
		id := g.Values[0].AsInt()
		if got, want := g.Values[1].AsFloat(), wantSum[id]; got != want {
			t.Fatalf("item %d sum = %v, want %v", id, got, want)
		}
	}
	if gb.GroupsHeld() != 0 {
		t.Fatalf("all groups should be closed, %d held", gb.GroupsHeld())
	}
}
