package engine_test

// The fault-isolation acceptance suite: under seeded chaos input the
// Quarantine policy must lose only the injected offenders (dead-letter
// counts match the injection report exactly), Drop must emit the same
// results as Quarantine, Fail must reproduce the strict behavior, and a
// panicking operator in one query must leave every other shard's output
// identical to its no-fault run. It lives in an external test package so
// it can drive the engine through internal/faultinject.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"sort"
	"testing"

	"punctsafe/engine"
	"punctsafe/exec"
	"punctsafe/internal/faultinject"
	"punctsafe/stream"
	"punctsafe/workload"
)

// chaosBaseFeed is the clean auction workload every chaos pass perturbs.
func chaosBaseFeed() []faultinject.Item {
	inputs := workload.Auction(workload.AuctionConfig{
		Items: 60, MaxBidsPerItem: 4, OpenWindow: 3,
		PunctuateItems: true, PunctuateClose: true, Seed: 11,
	})
	feed := make([]faultinject.Item, len(inputs))
	for i, in := range inputs {
		feed[i] = faultinject.Item(in)
	}
	return feed
}

// newFaultDSMS registers the auction schemes and one promise-enforcing
// auction query per name.
func newFaultDSMS(t testing.TB, names ...string) (*engine.DSMS, []*engine.Registered) {
	t.Helper()
	d := engine.New()
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	regs := make([]*engine.Registered, len(names))
	for i, name := range names {
		reg, err := d.Register(name, workload.AuctionQuery(), engine.Options{EnforcePromises: true})
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = reg
	}
	return d, regs
}

func sortedStrings(ts []stream.Tuple) []string {
	out := make([]string, len(ts))
	for i, r := range ts {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// runFeed pushes a feed through a single-query sharded runtime under the
// given policy and returns the sorted result multiset, the dead-letter
// snapshot, and Wait's error.
func runFeed(t *testing.T, policy engine.ErrorPolicy, feed []faultinject.Item) ([]string, engine.DeadLetterSnapshot, error) {
	t.Helper()
	d, regs := newFaultDSMS(t, "q0")
	rt := d.RunSharded(engine.RuntimeOptions{OnError: policy})
	for _, it := range feed {
		if err := rt.Send(it.Stream, it.Elem); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	rt.Close()
	err := rt.Wait()
	return sortedStrings(regs[0].Results), rt.DeadLetters(), err
}

// chaosFeed layers late tuples and malformed elements over the base feed
// with fixed seeds, so every policy test perturbs identically.
func chaosFeed(t *testing.T) ([]faultinject.Item, int) {
	t.Helper()
	feed := chaosBaseFeed()
	feed, late := faultinject.InjectLate(feed, 6, 1)
	if late.Late != 6 {
		t.Fatalf("injected %d late tuples, want 6", late.Late)
	}
	feed, mal := faultinject.InjectMalformed(feed, "bid", 4, 2)
	return feed, late.Total() + mal.Total()
}

// TestQuarantineLosesOnlyInjectedOffenders is the core acceptance test:
// with injected promise violations and malformed elements, Quarantine
// must produce exactly the clean run's results, and the dead-letter
// queue must hold exactly the injected offenders — classified, counted
// per stream and query, and retained.
func TestQuarantineLosesOnlyInjectedOffenders(t *testing.T) {
	base, cleanDL, err := runFeed(t, engine.Fail, chaosBaseFeed())
	if err != nil {
		t.Fatalf("clean strict run failed: %v", err)
	}
	if cleanDL.Total != 0 {
		t.Fatalf("clean run dead-lettered %d elements", cleanDL.Total)
	}

	feed, injected := chaosFeed(t)
	got, dl, err := runFeed(t, engine.Quarantine, feed)
	if err != nil {
		t.Fatalf("quarantine run failed: %v", err)
	}
	if !equalStrings(got, base) {
		t.Fatalf("quarantine results diverge from clean run: got %d results, want %d", len(got), len(base))
	}
	if dl.Total != uint64(injected) {
		t.Fatalf("dead-letter total = %d, want exactly the %d injected offenders", dl.Total, injected)
	}
	if len(dl.Entries) != injected {
		t.Fatalf("retained %d entries, want %d", len(dl.Entries), injected)
	}
	if dl.ByQuery["q0"] != uint64(injected) {
		t.Fatalf("ByQuery[q0] = %d, want %d", dl.ByQuery["q0"], injected)
	}
	var sum uint64
	for _, n := range dl.ByStream {
		sum += n
	}
	if sum != dl.Total {
		t.Fatalf("ByStream sums to %d, total is %d", sum, dl.Total)
	}
	late, malformed := 0, 0
	for _, e := range dl.Entries {
		switch {
		case errors.Is(e.Err, exec.ErrPromiseViolated):
			late++
		case errors.Is(e.Err, exec.ErrMalformedElement):
			malformed++
		default:
			t.Fatalf("unclassified dead letter: %v", e.Err)
		}
		if e.Query != "q0" || e.Stream == "" || e.Seq == 0 {
			t.Fatalf("incomplete dead letter: %+v", e)
		}
	}
	if late != 6 || malformed != 4 {
		t.Fatalf("classified %d late + %d malformed, want 6 + 4", late, malformed)
	}
}

// TestDropMatchesQuarantine: Drop must emit exactly Quarantine's results
// and counts while retaining nothing.
func TestDropMatchesQuarantine(t *testing.T) {
	feed, injected := chaosFeed(t)
	qRes, qDL, err := runFeed(t, engine.Quarantine, feed)
	if err != nil {
		t.Fatal(err)
	}
	dRes, dDL, err := runFeed(t, engine.Drop, feed)
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(dRes, qRes) {
		t.Fatalf("Drop results diverge from Quarantine: %d vs %d", len(dRes), len(qRes))
	}
	if dDL.Total != qDL.Total || dDL.Total != uint64(injected) {
		t.Fatalf("Drop counted %d, Quarantine %d, injected %d", dDL.Total, qDL.Total, injected)
	}
	if len(dDL.Entries) != 0 {
		t.Fatalf("Drop retained %d entries, want 0", len(dDL.Entries))
	}
}

// TestFailReproducesStrictBehavior: under the default policy the first
// injected offender fails its shard, exactly as before policies existed.
func TestFailReproducesStrictBehavior(t *testing.T) {
	feed, _ := chaosFeed(t)
	_, dl, err := runFeed(t, engine.Fail, feed)
	if err == nil {
		t.Fatal("strict run over chaos input succeeded")
	}
	if !errors.Is(err, exec.ErrPromiseViolated) && !errors.Is(err, exec.ErrMalformedElement) {
		t.Fatalf("strict failure is not an injected fault: %v", err)
	}
	if dl.Total != 0 {
		t.Fatalf("Fail policy dead-lettered %d elements", dl.Total)
	}
}

// TestBenignChaosIsHarmless: duplicated punctuations and same-stream
// reorderings are absorbed without dead letters or result drift.
func TestBenignChaosIsHarmless(t *testing.T) {
	base, _, err := runFeed(t, engine.Fail, chaosBaseFeed())
	if err != nil {
		t.Fatal(err)
	}
	feed := chaosBaseFeed()
	feed, dup := faultinject.DuplicatePuncts(feed, 10, 3)
	feed, swap := faultinject.SwapAdjacentTuples(feed, 10, 4)
	if dup.DupPuncts == 0 || swap.Swapped == 0 {
		t.Fatalf("benign chaos injected nothing: %+v %+v", dup, swap)
	}
	got, dl, err := runFeed(t, engine.Quarantine, feed)
	if err != nil {
		t.Fatalf("benign chaos failed the run: %v", err)
	}
	if dl.Total != 0 {
		t.Fatalf("benign chaos dead-lettered %d elements", dl.Total)
	}
	if !equalStrings(got, base) {
		t.Fatal("benign chaos changed the result multiset")
	}
}

// TestPanicContainmentIsolatesShards: a deliberately panicking operator
// in one query fails only that shard — with a captured stack — while
// every sibling's output is identical to its no-fault run, and nothing
// is quarantined (a panicked shard's state cannot be trusted, so panics
// are never element-recoverable).
func TestPanicContainmentIsolatesShards(t *testing.T) {
	feed := chaosBaseFeed()
	base, _, err := runFeed(t, engine.Fail, feed)
	if err != nil {
		t.Fatal(err)
	}

	d := engine.New()
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	steady, err := d.Register("steady", workload.AuctionQuery(), engine.Options{EnforcePromises: true})
	if err != nil {
		t.Fatal(err)
	}
	results := 0
	if _, err := d.Register("poisoned", workload.AuctionQuery(), engine.Options{
		OnResult: func(stream.Tuple) {
			results++
			if results == 7 {
				panic("injected operator bug")
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	rt := d.RunSharded(engine.RuntimeOptions{OnError: engine.Quarantine})
	for _, it := range feed {
		if err := rt.Send(it.Stream, it.Elem); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	rt.Close()
	err = rt.Wait()
	if err == nil {
		t.Fatal("poisoned shard did not fail")
	}
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("shard failure is not a contained panic: %v", err)
	}
	if pe.Value != "injected operator bug" || len(pe.Stack) == 0 {
		t.Fatalf("panic not captured: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
	if got := sortedStrings(steady.Results); !equalStrings(got, base) {
		t.Fatalf("sibling shard output diverged: got %d results, want %d", len(got), len(base))
	}
	if dl := rt.DeadLetters(); dl.Total != 0 {
		t.Fatalf("panic was quarantined: %d dead letters", dl.Total)
	}
}

// TestWireChaosQuarantine: a wire carrying garbled frames, frames for an
// unknown stream, and a truncated tail ingests under Quarantine with the
// clean results intact and exactly one dead letter per injected fault —
// garbled frames retained with their raw bytes and stream name.
func TestWireChaosQuarantine(t *testing.T) {
	feed := chaosBaseFeed()
	base, _, err := runFeed(t, engine.Fail, feed)
	if err != nil {
		t.Fatal(err)
	}
	item, bid := workload.AuctionSchemas()
	frames := make([][]byte, len(feed))
	for i, it := range feed {
		var buf bytes.Buffer
		ww := engine.NewWireWriter(&buf, item, bid)
		if err := ww.Write(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}
	wire, rep := faultinject.BuildWire(frames, faultinject.WireChaosConfig{
		GarbleEvery: 17, UnknownEvery: 23, TruncateTail: true,
	})
	if rep.Garbled == 0 || rep.Unknown == 0 || rep.Truncated != 1 {
		t.Fatalf("wire chaos injected nothing: %+v", rep)
	}

	d, regs := newFaultDSMS(t, "q0")
	rt := d.RunSharded(engine.RuntimeOptions{OnError: engine.Quarantine})
	n, err := rt.IngestWire(bytes.NewReader(wire), item, bid)
	if err != nil {
		t.Fatalf("lenient ingest failed: %v", err)
	}
	if n != len(feed) {
		t.Fatalf("ingested %d elements, want all %d originals", n, len(feed))
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := sortedStrings(regs[0].Results); !equalStrings(got, base) {
		t.Fatal("wire chaos changed the result multiset")
	}
	dl := rt.DeadLetters()
	if dl.Total != uint64(rep.Total()) {
		t.Fatalf("dead-letter total = %d, want exactly %d injected wire faults", dl.Total, rep.Total())
	}
	garbled := 0
	for _, e := range dl.Entries {
		if e.Query != "" {
			t.Fatalf("wire fault attributed to query %q", e.Query)
		}
		if e.Stream == "item" || e.Stream == "bid" {
			garbled++
			if len(e.Frame) == 0 {
				t.Fatal("garbled frame retained without raw bytes")
			}
		}
	}
	if garbled != rep.Garbled {
		t.Fatalf("retained %d garbled frames, want %d", garbled, rep.Garbled)
	}
	if dl.ByStream["chaos-unknown"] != uint64(rep.Unknown) {
		t.Fatalf("ByStream[chaos-unknown] = %d, want %d", dl.ByStream["chaos-unknown"], rep.Unknown)
	}

	// The same wire under the strict sequential path fails fast.
	strict, _ := newFaultDSMS(t, "q0")
	if _, err := strict.IngestWire(bytes.NewReader(wire), item, bid); err == nil {
		t.Fatal("strict ingest accepted a corrupt wire")
	}
}

// TestChaosConnDeterminism pins the injector contract: the same seed
// over the same traffic produces the same fault schedule.
func TestChaosConnDeterminism(t *testing.T) {
	blob := make([]byte, 8*1024)
	rand.New(rand.NewSource(7)).Read(blob)
	run := func() (int, error) {
		a, b := net.Pipe()
		defer a.Close()
		go func() {
			b.Write(blob)
			b.Close()
		}()
		cc := faultinject.NewChaosConn(a, faultinject.ChaosConfig{
			Seed: 99, PartialReads: true, CutAfter: 2048, CutJitter: 512,
		})
		n, err := io.Copy(io.Discard, cc)
		return int(n), err
	}
	n1, err1 := run()
	n2, err2 := run()
	if n1 != n2 {
		t.Fatalf("same seed, different cut points: %d vs %d", n1, n2)
	}
	if err1 == nil || err2 == nil {
		t.Fatalf("cut budget of 2048+512 over 8192 bytes did not trigger: %v, %v", err1, err2)
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
