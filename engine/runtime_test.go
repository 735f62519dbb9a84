package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// the error surfaces immediately from Err, the failed shard drains
// without wedging producers, and healthy shards keep delivering.
func TestShardedErrorPropagates(t *testing.T) {
	d, regs := newAuctionDSMS(t, 2)
	rt := d.RunSharded(RuntimeOptions{Buffer: 1})

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
	rt.Close()
	if err := rt.Wait(); err == nil {
		t.Fatal("Wait must return the first error")
	}
	_ = regs
}

// TestShardedDrainKeepsFeeding: a shard failure drains quietly — producers keep sending far past the failed element and never
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
// SendAt and SendBatch of 1, 2, 3 and 128 elements copy the run straight
// into each subscribed shard's mailbox — no one-element slice on the way
// in, no accepted copy, no run buffer — and allocate nothing once the
// mailbox's buffers have reached their high-water mark. The mailboxes
// take runs while they fit in the capacity (the 128-element run enters
// an empty one of 16 whole). testing.AllocsPerRun counts the whole
// process, so no worker runs here: the test is the worker, taking and
// releasing every mailbox as shard.run does once it is full.
// scripts/check.sh runs this test by name.
func TestRouteSingleElementAllocs(t *testing.T) {
	_, regs := newAuctionDSMS(t, 2)
	const capacity = 16
	rt := &Runtime{route: make(map[string][]*shard), sources: make(map[string]int64)}
	for _, r := range regs {
		s := &shard{reg: r, rt: rt}
		s.mb.init(capacity)
		rt.shards = append(rt.shards, s)
		rt.route["item"] = append(rt.route["item"], s)
	}
	e := stream.TupleElement(stream.NewTuple(stream.Int(1), stream.Int(1), stream.Str("x"), stream.Float(1)))
	runOf := func(n int) []stream.Element {
		run := make([]stream.Element, n)
		for i := range run {
			run[i] = e
		}
		return run
	}
	one, two, three, long := runOf(1), runOf(2), runOf(3), runOf(128)
	for _, tc := range []struct {
		name string
		n    int
		send func() error
	}{
		{"Send", 1, func() error { return rt.Send("item", e) }},
		{"SendAt", 1, func() error { return rt.SendAt("src", "item", e, 1) }},
		{"SendBatch/1", 1, func() error { return rt.SendBatch("item", one) }},
		{"SendBatch/2", 2, func() error { return rt.SendBatch("item", two) }},
		{"SendBatch/3", 3, func() error { return rt.SendBatch("item", three) }},
		{"SendBatch/128", 128, func() error { return rt.SendBatch("item", long) }},
	} {
		sends := max(1, capacity/tc.n)
		fillAndTake := func() {
			for i := 0; i < sends; i++ {
				if err := tc.send(); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range rt.shards {
				elems, msgs, ok := s.mb.take()
				if !ok || len(msgs) != sends || len(elems) != sends*tc.n {
					t.Fatalf("%s: shard %q took %d runs of %d elements, want %d of %d",
						tc.name, s.reg.Name, len(msgs), len(elems), sends, sends*tc.n)
				}
				s.mb.release()
			}
		}
		fillAndTake() // both buffer pairs reach the high-water mark
		fillAndTake()
		if per := testing.AllocsPerRun(100, fillAndTake); per != 0 {
			t.Errorf("%s: filling the mailboxes of %d shards allocates %.1f times, want 0", tc.name, len(regs), per)
		}
		for _, s := range rt.shards {
			requireMailboxHoldsNothing(t, s, false)
		}
	}
}

// TestHookDeliveryAllocFloor is the delivery-side alloc floor: every tree
// the engine builds lends its result tuples, so once a shard's buffers
// have reached their high-water mark a batch allocates nothing — 0 per
// result tuple, where an owned result costs its values — whether the
// query is consumed by a delivery hook or by an OnResult callback. The
// consumer checks every lent tuple while it holds it. As in
// TestRouteSingleElementAllocs the test is the worker, pushing runs
// through the shard's own flushBatch. scripts/check.sh runs this test by
// name.
func TestHookDeliveryAllocFloor(t *testing.T) {
	for _, hook := range []bool{true, false} {
		t.Run(map[bool]string{true: "hook", false: "OnResult"}[hook], func(t *testing.T) {
			testDeliveryAllocFloor(t, hook)
		})
	}
}

func testDeliveryAllocFloor(t *testing.T, hook bool) {
	d := New()
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	results := 0
	consume := func(tu stream.Tuple) {
		if v := tu.Values; !v[1].Equal(v[5]) { // item_itemid, bid_itemid
			t.Fatalf("lent result %s joins two items", tu)
		}
		results++
	}
	// Punctuation purging lets every cycle reuse the last one's item ids.
	opts := Options{PurgePunctuations: true}
	if !hook {
		opts.OnResult = consume
	}
	reg, err := d.Register("q", workload.AuctionQuery(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if hook {
		reg.SetDeliveryHook(func(_ uint64, e stream.Element) {
			if !e.IsPunct() {
				consume(e.Tuple())
			}
		})
	}
	s := &shard{reg: reg, rt: &Runtime{}}
	s.rebuildSubs()
	const items, bids = 64, 2
	runs := auctionCycle(items, bids)
	cycle := func() {
		for _, r := range runs {
			s.flushBatch(reg.streamInput[r.stream], r.elems)
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	results = 0
	const cycles = 100
	avg := testing.AllocsPerRun(cycles-1, cycle) // AllocsPerRun adds a warm-up run
	if s.failed || results != cycles*items*bids || reg.Tree.TotalState() != 0 {
		t.Fatalf("%d cycles: %d results, %d tuples left, failed %v", cycles, results, reg.Tree.TotalState(), s.failed)
	}
	if avg != 0 {
		t.Fatalf("a cycle of %d lent results allocates %.0f times, want 0", items*bids, avg)
	}
}

// cycleRun is one same-stream run of an auctionCycle.
type cycleRun struct {
	stream string
	punct  bool
	elems  []stream.Element
}

// auctionCycle returns one cycle of auction runs: every item, every bid,
// then every id punctuated away on both streams, so that with punctuation
// purging the query's state ends each cycle where it began.
func auctionCycle(items, bids int) []*cycleRun {
	runs := []*cycleRun{{"item", false, nil}, {"bid", false, nil}, {"bid", true, nil}, {"item", true, nil}}
	for id := int64(0); id < int64(items); id++ {
		for _, te := range auctionElems(id, bids) {
			for _, r := range runs {
				if r.stream == te.Stream && r.punct == te.Elem.IsPunct() {
					r.elems = append(r.elems, te.Elem)
				}
			}
		}
	}
	return runs
}

// TestPartitionedDeliveryAllocFloor is the delivery-side floor through a
// real partition front: SendBatch scatters every run onto two partition
// workers, which carve their result tuples out of their records' value
// buffers, and the merger hands the results to an OnResult callback and
// only then gives the records back. Once every buffer has reached its
// high-water mark a cycle allocates the same with 2 and with 8 bids per
// item, four times the results: 0 allocations per result. (What a cycle
// does allocate is one alignment-gate key per output punctuation.) Five
// allocations of slack absorb the odd one of the Go runtime's own; one
// per result would be 384. The callback checks every lent tuple while it
// holds it and signals the end of each cycle. scripts/check.sh runs this
// test by name.
func TestPartitionedDeliveryAllocFloor(t *testing.T) {
	few, many := partitionedCycleAllocs(t, 2), partitionedCycleAllocs(t, 8)
	if many > few+5 {
		t.Fatalf("a cycle through 2 partitions allocates %.1f times with 128 results and %.1f with 512, want the same", few, many)
	}
}

// partitionedCycleAllocs runs auction cycles of 64 items with bids bids
// each through a two-partition runtime and returns a warmed cycle's
// allocations.
func partitionedCycleAllocs(t *testing.T, bids int) float64 {
	t.Helper()
	d := New()
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	const items = 64
	results := 0
	cycleDone := make(chan struct{}, 1)
	reg, err := d.Register("q", workload.AuctionQuery(), Options{Partitions: 2, PurgePunctuations: true, OnResult: func(tu stream.Tuple) {
		if v := tu.Values; !v[1].Equal(v[5]) { // item_itemid, bid_itemid
			t.Errorf("lent result %s joins two items", tu)
		}
		if results++; results%(items*bids) == 0 {
			cycleDone <- struct{}{}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Part == nil {
		t.Fatalf("auction query did not partition: %s", reg.PartitionReason)
	}
	rt := d.RunSharded(RuntimeOptions{})
	runs := auctionCycle(items, bids)
	cycle := func() {
		for _, r := range runs {
			for i := 0; i < len(r.elems); i += 128 { // no longer than a run buffer keeps
				if err := rt.SendBatch(r.stream, r.elems[i:min(i+128, len(r.elems))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		<-cycleDone
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	const cycles = 100
	avg := testing.AllocsPerRun(cycles-1, cycle) // AllocsPerRun adds a warm-up run
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if want := (8 + cycles) * items * bids; results != want || reg.Part.TotalState() != 0 {
		t.Fatalf("%d results, want %d; %d tuples left", results, want, reg.Part.TotalState())
	}
	return avg
}

// requireMailboxHoldsNothing checks that every slot of both of a shard's
// mailbox buffer pairs, value buffers included, is zero: the worker
// cleared what it consumed, so an idle shard pins no tuple or value. With
// parked it first waits for the shard's worker to park on the empty
// mailbox.
func requireMailboxHoldsNothing(t *testing.T, s *shard, parked bool) {
	t.Helper()
	mb := &s.mb
	if parked {
		waitFor(t, "the worker to park", func() bool {
			mb.mu.Lock()
			defer mb.mu.Unlock()
			return mb.parked
		})
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if len(mb.elems) != 0 || len(mb.msgs) != 0 || len(mb.takenElems) != 0 || len(mb.takenMsgs) != 0 ||
		len(mb.vals) != 0 || len(mb.takenVals) != 0 {
		t.Errorf("shard %q: idle mailbox holds %d+%d elements, %d+%d values and %d+%d entries",
			s.reg.Name, len(mb.elems), len(mb.takenElems), len(mb.vals), len(mb.takenVals), len(mb.msgs), len(mb.takenMsgs))
	}
	for _, b := range [][]stream.Value{mb.vals, mb.takenVals} {
		for i, v := range b[:cap(b)] {
			if !reflect.ValueOf(v).IsZero() {
				t.Fatalf("shard %q: mailbox value slot %d still holds %v", s.reg.Name, i, v)
			}
		}
	}
	for _, b := range [][]stream.Element{mb.elems, mb.takenElems} {
		for i, e := range b[:cap(b)] {
			if !reflect.ValueOf(e).IsZero() {
				t.Fatalf("shard %q: mailbox slot %d still holds %v", s.reg.Name, i, e)
			}
		}
	}
	for _, b := range [][]shardMsg{mb.msgs, mb.takenMsgs} {
		for i, m := range b[:cap(b)] {
			if m != (shardMsg{}) {
				t.Fatalf("shard %q: mailbox entry %d still holds %+v", s.reg.Name, i, m)
			}
		}
	}
}

// requireRunsHoldNothing checks a shard's free list of run buffers: at
// most max of them, every slot of every one the zero Element.
func requireRunsHoldNothing(t *testing.T, s *shard, max int) {
	t.Helper()
	s.runs.mu.Lock()
	defer s.runs.mu.Unlock()
	if len(s.runs.items) > max {
		t.Errorf("shard %q pools %d run buffers, want at most %d", s.reg.Name, len(s.runs.items), max)
	}
	for _, b := range s.runs.items {
		if len(b) != 0 || cap(b) > maxRunBuf {
			t.Errorf("shard %q pools a run buffer of length %d, capacity %d", s.reg.Name, len(b), cap(b))
		}
		for i, e := range b[:cap(b)] {
			if !reflect.ValueOf(e).IsZero() {
				t.Fatalf("shard %q: slot %d of a pooled run buffer still holds %v", s.reg.Name, i, e)
			}
		}
	}
}

// requireScratchHoldsNothing checks a partitioned front's pooled run
// scratch: at least one, none still pointing at a chunk buffer.
func requireScratchHoldsNothing(t *testing.T, pf *partFront) {
	t.Helper()
	pf.runFree.mu.Lock()
	defer pf.runFree.mu.Unlock()
	if len(pf.runFree.items) == 0 {
		t.Error("no run scratch was recycled")
	}
	for _, pr := range pf.runFree.items {
		if slices.ContainsFunc(pr.chunks[:cap(pr.chunks)], func(c []stream.Element) bool { return c != nil }) {
			t.Error("pooled run scratch still points at a chunk")
		}
	}
}

// TestPartitionFrontAllocFloor is the same floor one stage further in: a
// run of 128 routed by SendBatch through partFront.sendRun onto two
// partitions allocates nothing in steady state — the accepted copy, both
// chunks, the script bytes and the chunk table all come back from the
// stages that consumed the previous run. The test stands in for those
// stages (the partition workers give their chunk back, the merger
// recycles the script batch), so nothing else in the process allocates.
func TestPartitionFrontAllocFloor(t *testing.T) {
	d := New()
	d.RegisterScheme(stream.MustScheme("item", false, true, false, false))
	d.RegisterScheme(stream.MustScheme("bid", false, true, false))
	reg, err := d.Register("q", workload.AuctionQuery(), Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Part == nil {
		t.Fatalf("auction query did not partition: %s", reg.PartitionReason)
	}
	rt := &Runtime{route: make(map[string][]*shard), sources: make(map[string]int64)}
	s := &shard{reg: reg, rt: rt}
	s.pf = &partFront{
		s: s, p: 2,
		in:     []chan partChunk{make(chan partChunk, 1), make(chan partChunk, 1)},
		script: make(chan scriptBatch, 1),
	}
	rt.shards, rt.route["bid"] = []*shard{s}, []*shard{s}
	run := make([]stream.Element, 128)
	for i := range run {
		run[i] = stream.TupleElement(stream.NewTuple(stream.Int(int64(i)), stream.Int(int64(i%16)), stream.Float(1)))
	}
	run[64] = stream.PunctElement(stream.MustPunctuation(stream.Wildcard(), stream.Const(stream.Int(3)), stream.Wildcard()))
	cycle := func() {
		if err := rt.SendBatch("bid", run); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, in := range s.pf.in {
			ck := <-in
			n += len(ck.elems)
			s.giveRun(ck.elems)
		}
		sb := <-s.pf.script
		if n != len(run)+1 || len(sb.elems) != len(run) || len(sb.run.ops) != len(run) {
			t.Fatalf("chunks carry %d elements, script %d elements and %d ops, want %d, %d, %d",
				n, len(sb.elems), len(sb.run.ops), len(run)+1, len(run), len(run))
		}
		s.pf.recycle(sb)
	}
	if per := testing.AllocsPerRun(100, cycle); per != 0 {
		t.Errorf("a run of %d through sendRun on 2 partitions allocates %.1f times, want 0", len(run), per)
	}
	requireRunsHoldNothing(t, s, 3)
	requireScratchHoldsNothing(t, s.pf)
}

// TestRecycledBuffersHoldNothing drains a feed with large result batches
// through a plain and a partitioned shard and then looks into every pool:
// each slot of the plain shard's mailbox, and each run buffer, partition
// record and run scratch waiting for reuse, must be empty and zero — a
// pooled buffer that still pointed at tuples would keep them alive for
// as long as the query idles.
// Then it checks that no stage waits for a buffer: with both shards stuck
// in their result callback and every buffer in flight behind them, Kill,
// Close and Wait complete and the blocked producer unwinds.
func TestRecycledBuffersHoldNothing(t *testing.T) {
	d := New()
	d.RegisterScheme(stream.MustScheme("item", false, true, false, false))
	d.RegisterScheme(stream.MustScheme("bid", false, true, false))
	var results atomic.Int64
	var armed atomic.Bool
	gate := make(chan struct{})
	onResult := func(stream.Tuple) {
		results.Add(1)
		if armed.Load() {
			<-gate
		}
	}
	for name, parts := range map[string]int{"plain": 0, "part": 2} {
		if _, err := d.Register(name, workload.AuctionQuery(), Options{Partitions: parts, OnResult: onResult}); err != nil {
			t.Fatal(err)
		}
	}
	rt := d.RunSharded(RuntimeOptions{Buffer: 8})
	send := func(streamName string, run []stream.Element) {
		t.Helper()
		if err := rt.SendBatch(streamName, run); err != nil {
			t.Fatal(err)
		}
	}
	const items, rounds = 64, 24
	itemRun, bidRun := make([]stream.Element, items), make([]stream.Element, 2*items)
	for i := range itemRun {
		itemRun[i] = stream.TupleElement(stream.NewTuple(stream.Int(1), stream.Int(int64(i)), stream.Str("x"), stream.Float(1)))
	}
	for i := range bidRun {
		bidRun[i] = stream.TupleElement(stream.NewTuple(stream.Int(int64(i)), stream.Int(int64(i%items)), stream.Float(1)))
	}
	// The same bids also arrive over the wire, whose runs are lent: the
	// mailbox copies their values in.
	var wire bytes.Buffer
	item, bid := workload.AuctionSchemas()
	ww := NewWireWriter(&wire, item, bid)
	for _, e := range bidRun {
		if err := ww.Write("bid", e); err != nil {
			t.Fatal(err)
		}
	}
	send("item", itemRun)
	for r := 0; r < rounds; r++ {
		send("bid", bidRun)
		send("bid", bidRun[:3]) // mixed run lengths, as real feeds have
		if _, err := rt.IngestWire(bytes.NewReader(wire.Bytes()), item, bid); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"plain", "part"} {
		if _, err := rt.Stats(name); err != nil { // travels behind every run sent
			t.Fatal(err)
		}
	}
	if want := int64(2 * rounds * (2*len(bidRun) + 3)); results.Load() != want {
		t.Fatalf("%d results delivered, want %d", results.Load(), want)
	}
	plain, part := rt.byName["plain"], rt.byName["part"]
	requireMailboxHoldsNothing(t, plain, true)
	if cap(plain.mb.vals) == 0 && cap(plain.mb.takenVals) == 0 {
		t.Fatal("no lent run's values went through the plain mailbox: the value check is vacuous")
	}
	requireRunsHoldNothing(t, part, 2*(partInBuffer+2)+partScriptBuffer+2)
	requireZero := func(what string, elems []stream.Element) {
		t.Helper()
		for i, e := range elems {
			if !reflect.ValueOf(e).IsZero() {
				t.Fatalf("%s: slot %d still holds %v", what, i, e)
			}
		}
	}
	pooled := 0
	for _, free := range part.pf.free {
		for n := len(free); n > 0; n-- {
			r := <-free
			pooled++
			if r.n != 0 || len(r.outs) != 0 || len(r.ends) != 0 || len(r.vals) != 0 || r.ctrl != nil {
				t.Fatalf("pooled partition record not reset: %+v", r)
			}
			requireZero("a pooled partition record", r.outs[:cap(r.outs)])
			for i, v := range r.vals[:cap(r.vals)] {
				if !reflect.ValueOf(v).IsZero() {
					t.Fatalf("a pooled partition record's value %d still holds %v", i, v)
				}
			}
			free <- r
		}
	}
	if pooled == 0 {
		t.Fatal("no partition record was recycled")
	}
	requireScratchHoldsNothing(t, part.pf)

	// Every buffer in flight, nobody able to hand one back: the kill path
	// must not need any.
	armed.Store(true)
	produced := make(chan error, 1)
	const runLen = 5
	go func() {
		var err error
		for r := 0; r < 10*rounds && err == nil; r++ {
			err = rt.SendBatch("bid", bidRun[:runLen])
		}
		produced <- err
	}()
	full := func() bool {
		return plain.mb.queued()+runLen > rt.buffer || len(part.pf.script) == cap(part.pf.script) ||
			len(part.pf.in[0]) == cap(part.pf.in[0]) || len(part.pf.in[1]) == cap(part.pf.in[1])
	}
	for deadline := time.Now().Add(10 * time.Second); !full(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("producer never filled a mailbox")
		}
	}
	reaped := make(chan error, 1)
	go func() {
		rt.Kill()
		close(gate)
		err := <-produced
		rt.Close()
		if werr := rt.Wait(); !errors.Is(werr, ErrKilled) {
			err = fmt.Errorf("Wait = %v, want ErrKilled", werr)
		}
		reaped <- err
	}()
	select {
	case err := <-reaped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Kill with every buffer in flight did not unwind")
	}
}

// queued returns how many elements the mailbox holds for its worker.
func (mb *mailbox) queued() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.elems)
}

// stall is an OnResult callback that counts its calls and, once armed,
// signals entered and blocks every call until release is closed: it
// holds a shard's goroutine inside delivery.
type stall struct {
	results atomic.Int64
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newStall() *stall {
	return &stall{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (st *stall) onResult(stream.Tuple) {
	st.results.Add(1)
	if st.armed.Load() {
		select {
		case st.entered <- struct{}{}:
		default:
		}
		<-st.release
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestMailboxBackpressure: a mailbox is bounded in elements, not runs.
// With its worker stalled, a run of 10 still enters an empty mailbox of
// capacity 4 whole, and the next send waits until the worker takes them.
func TestMailboxBackpressure(t *testing.T) {
	d := New()
	d.RegisterScheme(stream.MustScheme("item", false, true, false, false))
	d.RegisterScheme(stream.MustScheme("bid", false, true, false))
	st := newStall()
	reg, err := d.Register("q", workload.AuctionQuery(), Options{OnResult: st.onResult})
	if err != nil {
		t.Fatal(err)
	}
	rt := d.RunSharded(RuntimeOptions{Buffer: 4})
	s := rt.byName["q"]
	group := auctionElems(1, 11) // item, 11 bids, bid punctuation, item punctuation
	st.armed.Store(true)
	for _, te := range group[:2] {
		if err := rt.Send(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
	}
	<-st.entered // the worker is delivering the first result
	run := make([]stream.Element, 10)
	for i, te := range group[2:12] {
		run[i] = te.Elem
	}
	if err := rt.SendBatch("bid", run); err != nil {
		t.Fatal(err)
	}
	s.mb.mu.Lock()
	elems, msgs := len(s.mb.elems), len(s.mb.msgs)
	s.mb.mu.Unlock()
	if elems != 10 || msgs != 1 {
		t.Fatalf("mailbox of capacity 4 holds %d elements in %d entries, want the 10-element run whole", elems, msgs)
	}
	sent := make(chan error, 1)
	go func() { sent <- rt.Send(group[12].Stream, group[12].Elem) }()
	select {
	case err := <-sent:
		t.Fatalf("Send into a mailbox holding 10 elements of capacity 4 returned (%v) with its worker stalled", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(st.release)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if err := rt.Send(group[13].Stream, group[13].Elem); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := st.results.Load(); n != 11 || reg.Tree.TotalState() != 0 {
		t.Fatalf("%d results and %d stored tuples, want 11 and 0", n, reg.Tree.TotalState())
	}
}

// TestMailboxWaitersInOrder: producers waiting for room go in in arrival
// order. A short run that would fit must not overtake a long run already
// waiting, as a buffered channel's blocked senders never overtook one
// another.
func TestMailboxWaitersInOrder(t *testing.T) {
	var mb mailbox
	mb.init(4)
	waiting := func(n uint64) func() bool {
		return func() bool {
			mb.mu.Lock()
			defer mb.mu.Unlock()
			return mb.next-mb.serving == n
		}
	}
	takeInputs := func() []int {
		_, msgs, _ := mb.take()
		var inputs []int
		for _, m := range msgs {
			inputs = append(inputs, m.input)
		}
		mb.release()
		return inputs
	}
	mb.put(0, make([]stream.Element, 3), nil, 3, false)
	long, short := make(chan struct{}), make(chan struct{})
	go func() { mb.put(1, make([]stream.Element, 10), nil, 10, false); close(long) }()
	waitFor(t, "the long run to wait", waiting(1))
	go func() { mb.put(2, make([]stream.Element, 1), nil, 1, false); close(short) }()
	waitFor(t, "the short run to wait behind it", waiting(2))
	if got := takeInputs(); !slices.Equal(got, []int{0}) {
		t.Fatalf("first take holds inputs %v, want [0]: the short run overtook the waiting long one", got)
	}
	<-long
	if got := takeInputs(); !slices.Equal(got, []int{1}) {
		t.Fatalf("second take holds inputs %v, want [1]", got)
	}
	<-short
	if got := takeInputs(); !slices.Equal(got, []int{2}) {
		t.Fatalf("third take holds inputs %v, want [2]", got)
	}
}

// TestKillReachesParkedWorker: Kill stops a plain shard whose worker is
// parked on an empty mailbox. Across Kill, Close and Wait it runs no
// final purge round and delivers nothing, though lazy purges are pending.
func TestKillReachesParkedWorker(t *testing.T) {
	d := New()
	d.RegisterScheme(stream.MustScheme("item", false, true, false, false))
	d.RegisterScheme(stream.MustScheme("bid", false, true, false))
	var calls atomic.Int64
	reg, err := d.Register("q", workload.AuctionQuery(), Options{
		PurgeBatch: 1 << 30,
		OnResult:   func(stream.Tuple) { calls.Add(1) },
		OnPunct:    func(stream.Punctuation) { calls.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := d.RunSharded(RuntimeOptions{})
	s := rt.byName["q"]
	for _, te := range append(auctionElems(1, 3), auctionElems(2, 2)...) {
		if err := rt.Send(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the worker to park", func() bool {
		s.mb.mu.Lock()
		defer s.mb.mu.Unlock()
		return s.mb.parked
	})
	before, state := calls.Load(), reg.Tree.TotalState()
	if before == 0 || state == 0 {
		t.Fatalf("%d callbacks and %d stored tuples before Kill, want both > 0", before, state)
	}
	rt.Kill()
	rt.Close()
	if err := rt.Wait(); !errors.Is(err, ErrKilled) {
		t.Fatalf("Wait = %v, want ErrKilled", err)
	}
	if after := calls.Load(); after != before {
		t.Fatalf("%d callbacks after Kill", after-before)
	}
	if got := reg.Tree.TotalState(); got != state {
		t.Fatalf("stored tuples %d → %d across Kill: the final purge round ran", state, got)
	}
}

// TestStatsOnKilledRuntime: between Kill and Close, Stats reports
// ErrKilled as Checkpoint does, never a nil snapshot without an error —
// on a plain and on a partitioned shard, for a request made after Kill
// and for one already queued when Kill lands.
func TestStatsOnKilledRuntime(t *testing.T) {
	for _, parts := range []int{0, 2} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			d := New()
			d.RegisterScheme(stream.MustScheme("item", false, true, false, false))
			d.RegisterScheme(stream.MustScheme("bid", false, true, false))
			st := newStall()
			if _, err := d.Register("q", workload.AuctionQuery(), Options{Partitions: parts, OnResult: st.onResult}); err != nil {
				t.Fatal(err)
			}
			rt := d.RunSharded(RuntimeOptions{})
			s := rt.byName["q"]
			st.armed.Store(true)
			for _, te := range auctionElems(1, 1)[:2] {
				if err := rt.Send(te.Stream, te.Elem); err != nil {
					t.Fatal(err)
				}
			}
			<-st.entered // the shard's goroutine is delivering the result
			type answer struct {
				snapshot bool
				err      error
			}
			queued := make(chan answer, 1)
			go func() {
				stats, err := rt.Stats("q")
				queued <- answer{stats != nil, err}
			}()
			waitFor(t, "the stats request to queue", func() bool {
				if s.pf != nil {
					return len(s.pf.script) > 0
				}
				s.mb.mu.Lock()
				defer s.mb.mu.Unlock()
				return len(s.mb.msgs) > 0
			})
			rt.Kill()
			close(st.release)
			switch a := <-queued; {
			case !a.snapshot && errors.Is(a.err, ErrKilled):
			case parts > 0 && a.snapshot && a.err == nil:
				// The merge stage may take the queued barrier before it
				// sees the kill signal; a full snapshot is then fine.
			default:
				t.Fatalf("Stats queued across Kill: snapshot %v, error %v; want ErrKilled", a.snapshot, a.err)
			}
			if stats, err := rt.Stats("q"); stats != nil || !errors.Is(err, ErrKilled) {
				t.Fatalf("Stats after Kill = (%v, %v), want ErrKilled", stats, err)
			}
			rt.Close()
			if err := rt.Wait(); !errors.Is(err, ErrKilled) {
				t.Fatalf("Wait = %v, want ErrKilled", err)
			}
		})
	}
}
