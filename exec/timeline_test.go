package exec

import (
	"slices"
	"strings"
	"testing"

	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/stream"
	"punctsafe/workload"
)

func TestTimelineSampling(t *testing.T) {
	q := workload.AuctionQuery()
	schemes := workload.AuctionSchemes()
	tree, err := NewTree(Config{Query: q, Schemes: schemes},
		plan.Join(plan.Leaf(0), plan.Leaf(1)))
	if err != nil {
		t.Fatal(err)
	}
	inputs := workload.Auction(workload.AuctionConfig{
		Items: 100, MaxBidsPerItem: 4, OpenWindow: 4,
		PunctuateItems: true, PunctuateClose: true, Seed: 33,
	})
	feed, err := workload.NewFeed(q, inputs)
	if err != nil {
		t.Fatal(err)
	}
	tl := &Timeline{Every: 25}
	results := 0
	if err := feed.Each(func(i int, e stream.Element) error {
		outs, err := tree.Push(i, e)
		results += countTuples(outs)
		tl.Observe(tree, results)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	wantSamples := len(inputs) / 25
	if len(tl.Samples) != wantSamples {
		t.Fatalf("samples = %d, want %d", len(tl.Samples), wantSamples)
	}
	// Element counters are the period boundaries; results are monotone.
	for i, s := range tl.Samples {
		if s.Element != (i+1)*25 {
			t.Fatalf("sample %d at element %d", i, s.Element)
		}
		if i > 0 && s.Results < tl.Samples[i-1].Results {
			t.Fatal("results must be monotone")
		}
	}
	if tl.MaxState() == 0 {
		t.Fatal("sampled state should be nonzero at some point")
	}
	// Bounded run: sampled state never exceeds the tree's own high-water
	// mark.
	if tl.MaxState() > tree.MaxState() {
		t.Fatalf("sampled max %d > true max %d", tl.MaxState(), tree.MaxState())
	}

	var b strings.Builder
	if err := tl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "element,state,punct_store,results\n") {
		t.Fatalf("csv header: %q", out[:40])
	}
	if strings.Count(out, "\n") != wantSamples+1 {
		t.Fatalf("csv rows = %d", strings.Count(out, "\n"))
	}
}

// TestSelfJoinViaAlias: the same physical stream joins with itself under
// two names, its schema copied under an alias (e.g. pairs of bids on the
// same item by different bidders).
func TestSelfJoinViaAlias(t *testing.T) {
	_, bid := workload.AuctionSchemas()
	left := bid
	attrs := make([]stream.Attribute, bid.Arity())
	for i := range attrs {
		attrs[i] = bid.Attr(i)
	}
	right, err := stream.NewSchema("bid2", attrs...)
	if err != nil {
		t.Fatal(err)
	}
	q, err := buildSelfJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	schemes := stream.NewSchemeSet(
		stream.MustScheme("bid", false, true, false),
		stream.MustScheme("bid2", false, true, false),
	)
	m, err := NewMJoin(Config{Query: q, Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Purgeable(0) || !m.Purgeable(1) {
		t.Fatal("aliased self-join should be purgeable on both sides")
	}
	// Feed each physical bid to BOTH inputs (the self-join contract).
	bidTuple := func(bidder, item int64) stream.Tuple {
		return stream.NewTuple(stream.Int(bidder), stream.Int(item), stream.Float(1))
	}
	push := func(tu stream.Tuple) int {
		o1, err := m.Push(0, stream.TupleElement(tu))
		if err != nil {
			t.Fatal(err)
		}
		o1 = slices.Clone(o1) // borrowed until the next Push
		o2, err := m.Push(1, stream.TupleElement(tu))
		if err != nil {
			t.Fatal(err)
		}
		return countTuples(o1) + countTuples(o2)
	}
	total := 0
	total += push(bidTuple(1, 7))
	total += push(bidTuple(2, 7)) // pairs with bidder 1 both ways + self-pairs
	if total < 3 {
		t.Fatalf("self-join results = %d", total)
	}
	// Punctuating item 7 on both aliases drains everything.
	p := stream.MustPunctuation(stream.Wildcard(), stream.Const(stream.Int(7)), stream.Wildcard())
	m.Push(0, stream.PunctElement(p))
	m.Push(1, stream.PunctElement(p))
	if m.Stats().TotalState() != 0 {
		t.Fatalf("state = %d", m.Stats().TotalState())
	}
}

func buildSelfJoin(left, right *stream.Schema) (*query.CJQ, error) {
	return query.NewBuilder().
		AddStream(left).AddStream(right).
		Join(left.Name()+".itemid", right.Name()+".itemid").
		Build()
}
