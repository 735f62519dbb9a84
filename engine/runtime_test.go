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
// copy in the routing body — and an n-element SendBatch to a shard that
// drains fills a run buffer the shard has handed back, so it allocates
// nothing either once as many buffers circulate as the mailbox holds.
// testing.AllocsPerRun counts the whole process, so no worker runs here:
// nobody drains the one-element cases, and for the runs the test is the
// shard, handling one message (giveRun, as shard.handle does) ahead of
// every send into an otherwise full mailbox. scripts/check.sh runs this
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
	one := []stream.Element{e}
	for _, tc := range []struct {
		name string
		send func() error
	}{
		{"Send", func() error { return rt.Send("item", e) }},
		{"SendAt", func() error { return rt.SendAt("src", "item", e, 1) }},
		{"SendBatch/1", func() error { return rt.SendBatch("item", one) }},
	} {
		per := testing.AllocsPerRun(runs, func() {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
		})
		if per != 0 {
			t.Errorf("%s allocates %.1f times per call routing to %d shards, want 0", tc.name, per, len(regs))
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
	handleOne := func() {
		for _, s := range rt.shards {
			msg := <-s.mb
			if len(msg.elems) == 0 {
				t.Fatalf("shard %q: message without a run", s.reg.Name)
			}
			s.giveRun(msg.elems)
		}
	}
	for _, n := range []int{2, 3, 128} {
		run := make([]stream.Element, n)
		for i := range run {
			run[i] = e
		}
		send := func() {
			if err := rt.SendBatch("item", run); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < cap(rt.shards[0].mb); i++ {
			send() // fill the mailboxes: every buffer of the steady state is in flight
		}
		per := testing.AllocsPerRun(runs, func() {
			handleOne()
			send()
		})
		if per != 0 {
			t.Errorf("SendBatch/%d allocates %.1f times per call into full mailboxes of %d draining shards, want 0", n, per, len(regs))
		}
		for len(rt.shards[0].mb) > 0 {
			handleOne()
		}
		for _, s := range rt.shards {
			requireRunsHoldNothing(t, s, cap(s.mb))
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
	s := &shard{reg: reg, group: reg.group, rt: rt}
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
// each run buffer, each partition record and each run scratch waiting for
// reuse must be empty and zero in every slot — a pooled buffer that still
// pointed at tuples would keep them alive for as long as the query idles.
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
	send("item", itemRun)
	for r := 0; r < rounds; r++ {
		send("bid", bidRun)
		send("bid", bidRun[:3]) // mixed run lengths, as real feeds have
	}
	for _, name := range []string{"plain", "part"} {
		if _, err := rt.Stats(name); err != nil { // travels behind every run sent
			t.Fatal(err)
		}
	}
	if want := int64(2 * rounds * (len(bidRun) + 3)); results.Load() != want {
		t.Fatalf("%d results delivered, want %d", results.Load(), want)
	}
	plain, part := rt.byName["plain"], rt.byName["part"]
	requireRunsHoldNothing(t, plain, rt.buffer+2)
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
			if r.n != 0 || len(r.outs) != 0 || len(r.ends) != 0 || r.ctrl != nil {
				t.Fatalf("pooled partition record not reset: %+v", r)
			}
			requireZero("a pooled partition record", r.outs[:cap(r.outs)])
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
	go func() {
		var err error
		for r := 0; r < 10*rounds && err == nil; r++ {
			err = rt.SendBatch("bid", bidRun[:5])
		}
		produced <- err
	}()
	full := func() bool {
		return len(plain.mb) == cap(plain.mb) || len(part.pf.script) == cap(part.pf.script) ||
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
