package engine

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"punctsafe/stream"
	"punctsafe/workload"
)

// auctionElems builds the closed per-item element group feeding the
// auction join: the item, its bids, and the closing punctuations on both
// streams. Groups for distinct ids are join-independent, so any
// interleaving of whole groups yields the same result multiset.
func auctionElems(id int64, bids int) []TaggedElement {
	var out []TaggedElement
	out = append(out, TaggedElement{"item", stream.TupleElement(stream.NewTuple(
		stream.Int(1), stream.Int(id), stream.Str("x"), stream.Float(1)))})
	for b := 0; b < bids; b++ {
		out = append(out, TaggedElement{"bid", stream.TupleElement(stream.NewTuple(
			stream.Int(int64(b)), stream.Int(id), stream.Float(float64(b))))})
	}
	out = append(out, TaggedElement{"bid", stream.PunctElement(stream.MustPunctuation(
		stream.Wildcard(), stream.Const(stream.Int(id)), stream.Wildcard()))})
	out = append(out, TaggedElement{"item", stream.PunctElement(stream.MustPunctuation(
		stream.Wildcard(), stream.Const(stream.Int(id)), stream.Wildcard(), stream.Wildcard()))})
	return out
}

// newAuctionDSMS registers the auction schemes and n copies of the
// auction query named q0..q<n-1>.
func newAuctionDSMS(t testing.TB, n int) (*DSMS, []*Registered) {
	t.Helper()
	d := New()
	d.RegisterScheme(stream.MustScheme("item", false, true, false, false))
	d.RegisterScheme(stream.MustScheme("bid", false, true, false))
	regs := make([]*Registered, n)
	for i := range regs {
		reg, err := d.Register(fmt.Sprintf("q%d", i), workload.AuctionQuery(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = reg
	}
	return d, regs
}

func sortedResults(reg *Registered) []string {
	out := make([]string, len(reg.Results))
	for i, r := range reg.Results {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestShardedStressMatchesSequential is the concurrency stress test: many
// producer goroutines feed several registered queries through the sharded
// runtime; each query's merged result multiset must equal a sequential
// reference run's. Run under -race this also exercises the stats/result
// confinement of the shard workers.
func TestShardedStressMatchesSequential(t *testing.T) {
	const producers = 8
	const itemsPer = 40
	const bidsPer = 5
	const queries = 3

	// Sequential reference: same element groups, producer-major order.
	ref, refRegs := newAuctionDSMS(t, queries)
	for p := 0; p < producers; p++ {
		for i := 0; i < itemsPer; i++ {
			for _, te := range auctionElems(int64(p*itemsPer+i), bidsPer) {
				if err := ref.Push(te.Stream, te.Elem); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}

	d, regs := newAuctionDSMS(t, queries)
	rt := d.RunSharded(RuntimeOptions{Buffer: 8})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < itemsPer; i++ {
				for _, te := range auctionElems(int64(p*itemsPer+i), bidsPer) {
					if err := rt.Send(te.Stream, te.Elem); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	want := producers * itemsPer * bidsPer
	for i, reg := range regs {
		if got := len(reg.Results); got != want {
			t.Fatalf("query %d: results = %d, want %d", i, got, want)
		}
		if got, wantRef := sortedResults(reg), sortedResults(refRegs[i]); !equalStrings(got, wantRef) {
			t.Fatalf("query %d: sharded result multiset differs from sequential reference", i)
		}
		if reg.Tree.TotalState() != 0 {
			t.Fatalf("query %d: state = %d, want 0", i, reg.Tree.TotalState())
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedErrorPropagates: a malformed element fails only its shard;
// the error surfaces immediately from Err, FailFast Sends start
// returning it, the failed shard drains without wedging producers, and
// healthy shards keep delivering.
func TestShardedErrorPropagates(t *testing.T) {
	d, regs := newAuctionDSMS(t, 2)
	rt := d.RunSharded(RuntimeOptions{Buffer: 1, FailFast: true})

	// Wrong arity for the item stream: every shard consuming "item" fails.
	bad := stream.TupleElement(stream.NewTuple(stream.Int(1)))
	if err := rt.Send("item", bad); err != nil {
		t.Fatalf("routing itself must not fail: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("Err() never surfaced the shard failure")
		}
		time.Sleep(time.Millisecond)
	}
	// FailFast: Send now reports the first error instead of queueing.
	if err := rt.Send("item", bad); err == nil {
		t.Fatal("FailFast Send should return the runtime error")
	}
	rt.Close()
	if err := rt.Wait(); err == nil {
		t.Fatal("Wait must return the first error")
	}
	_ = regs
}

// TestShardedDrainKeepsFeeding: without FailFast a shard failure drains
// quietly — producers keep sending far past the failed element and never
// block, and the error still comes out of Wait.
func TestShardedDrainKeepsFeeding(t *testing.T) {
	d, _ := newAuctionDSMS(t, 1)
	rt := d.RunSharded(RuntimeOptions{Buffer: 1})
	bad := stream.TupleElement(stream.NewTuple(stream.Int(1)))
	for i := 0; i < 200; i++ {
		if err := rt.Send("item", bad); err != nil {
			t.Fatal(err)
		}
	}
	rt.Close()
	if err := rt.Wait(); err == nil {
		t.Fatal("expected the malformed element's error")
	}
	// Every entry point refuses a closed runtime, naming itself.
	item := workload.AuctionQuery().Stream(0)
	good := stream.TupleElement(stream.NewTuple(stream.Int(1), stream.Int(1), stream.Str("x"), stream.Float(1)))
	var wire bytes.Buffer
	if err := NewWireWriter(&wire, item).Write("item", good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op   string
		call func() error
	}{
		{"Send", func() error { return rt.Send("item", good) }},
		{"SendAt", func() error { return rt.SendAt("src", "item", good, 1) }},
		{"SendBatch", func() error { return rt.SendBatch("item", []stream.Element{good, good}) }},
		{"IngestWire", func() error {
			_, err := rt.IngestWire(bytes.NewReader(wire.Bytes()), item)
			return err
		}},
		{"IngestWireResume", func() error {
			_, err := rt.IngestWireResume("src", bytes.NewReader(wire.Bytes()), item)
			return err
		}},
	} {
		err := tc.call()
		if want := "engine: runtime: " + tc.op + " after Close"; err == nil || err.Error() != want {
			t.Fatalf("%s after Close: error %v, want %q", tc.op, err, want)
		}
	}
	if off := rt.ResumeOffset("src"); off != 0 {
		t.Fatalf("a refused send committed offset %d", off)
	}
}

// TestShardedStatsSnapshot: the mailbox-routed snapshot reflects every
// element enqueued before the request, and the post-drain path reads the
// final counters.
func TestShardedStatsSnapshot(t *testing.T) {
	d, _ := newAuctionDSMS(t, 1)
	rt := d.RunSharded(RuntimeOptions{})
	const items = 30
	const bids = 3
	for i := 0; i < items; i++ {
		for _, te := range auctionElems(int64(i), bids) {
			if err := rt.Send(te.Stream, te.Elem); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats, err := rt.Stats("q0")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("operators = %d", len(stats))
	}
	// The request is queued behind every element sent above, so the
	// snapshot must account for all of them.
	if got, want := stats[0].TuplesIn[0], uint64(items); got != want {
		t.Fatalf("snapshot TuplesIn[item] = %d, want %d", got, want)
	}
	if got, want := stats[0].Results, uint64(items*bids); got != want {
		t.Fatalf("snapshot Results = %d, want %d", got, want)
	}
	// Detached: mutating the snapshot must not touch the live operator.
	stats[0].TuplesIn[0] = 999
	rt.Close()
	after, err := rt.Stats("q0")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after[0].TuplesIn[0], uint64(items); got != want {
		t.Fatalf("post-drain TuplesIn[item] = %d, want %d", got, want)
	}
	if _, err := rt.Stats("nope"); err == nil {
		t.Fatal("Stats of unknown query must fail")
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRouting: a query subscribes only to its own streams; shards
// of unrelated queries never see the element.
func TestShardedRouting(t *testing.T) {
	d := New()
	d.RegisterScheme(stream.MustScheme("item", false, true, false, false))
	d.RegisterScheme(stream.MustScheme("bid", false, true, false))
	for _, s := range workload.NetMonSchemes().All() {
		d.RegisterScheme(s)
	}
	auc, err := d.Register("auction", workload.AuctionQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	net, err := d.Register("netmon", workload.NetMonQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := d.RunSharded(RuntimeOptions{})
	for _, te := range auctionElems(7, 3) {
		if err := rt.Send(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(auc.Results) != 3 {
		t.Fatalf("auction results = %d, want 3", len(auc.Results))
	}
	netStats, err := rt.Stats("netmon")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range netStats {
		for i := range st.TuplesIn {
			if st.TuplesIn[i] != 0 || st.PunctsIn[i] != 0 {
				t.Fatalf("netmon shard saw auction traffic: %v", st)
			}
		}
	}
	_ = net
}

// TestRouteSingleElementAllocs is the producer-side alloc floor: Send,
// SendAt and a one-element SendBatch hand their element to each shard by
// value — no heap-allocated one-element slice on the way in, no accepted
// copy in the routing body — and an n-element SendBatch allocates exactly
// one accepted copy per subscribed shard. testing.AllocsPerRun counts the
// whole process, so the shards here have mailboxes nobody drains during a
// measurement: only the producer side runs. scripts/check.sh runs this
// test by name.
func TestRouteSingleElementAllocs(t *testing.T) {
	_, regs := newAuctionDSMS(t, 2)
	const runs = 100
	rt := &Runtime{route: make(map[string][]*shard), sources: make(map[string]int64)}
	for _, r := range regs {
		s := &shard{reg: r, group: r.group, rt: rt, mb: make(chan shardMsg, runs+1)}
		rt.shards = append(rt.shards, s)
		rt.route["item"] = append(rt.route["item"], s)
	}
	e := stream.TupleElement(stream.NewTuple(stream.Int(1), stream.Int(1), stream.Str("x"), stream.Float(1)))
	one, run := []stream.Element{e}, []stream.Element{e, e, e}
	for _, tc := range []struct {
		name string
		send func() error
		want float64
	}{
		{"Send", func() error { return rt.Send("item", e) }, 0},
		{"SendAt", func() error { return rt.SendAt("src", "item", e, 1) }, 0},
		{"SendBatch/1", func() error { return rt.SendBatch("item", one) }, 0},
		{"SendBatch/3", func() error { return rt.SendBatch("item", run) }, float64(len(regs))},
	} {
		per := testing.AllocsPerRun(runs, func() {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
		})
		if per != tc.want {
			t.Errorf("%s allocates %.1f times per call routing to %d shards, want %.0f", tc.name, per, len(regs), tc.want)
		}
		for _, s := range rt.shards {
			if len(s.mb) != runs+1 {
				t.Fatalf("%s: shard %q holds %d messages, want %d", tc.name, s.reg.Name, len(s.mb), runs+1)
			}
			for len(s.mb) > 0 {
				<-s.mb
			}
		}
	}
}
