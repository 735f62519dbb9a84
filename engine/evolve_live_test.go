package engine_test

// Live query evolution under load (run under -race in `make race`):
// registering and unregistering views concurrently with active
// producers, stats snapshots, and a checkpoint barrier must never
// disturb the surviving views — their output must stay element-identical
// to a churn-free run, an attached view must receive an exact suffix of
// the shared delivery sequence, and a detached view must keep an exact
// prefix.

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"punctsafe/engine"
	"punctsafe/stream"
	"punctsafe/workload"
)

// liveFeed is the deterministic element feed the evolve-under-load tests
// drive: closed per-item auction groups.
func liveFeed(items, bids int) []engine.TaggedElement {
	var out []engine.TaggedElement
	for i := 0; i < items; i++ {
		out = append(out, engine.TaggedElement{Stream: "item", Elem: stream.TupleElement(stream.NewTuple(
			stream.Int(1), stream.Int(int64(i)), stream.Str("x"), stream.Float(1)))})
		for b := 0; b < bids; b++ {
			out = append(out, engine.TaggedElement{Stream: "bid", Elem: stream.TupleElement(stream.NewTuple(
				stream.Int(int64(b)), stream.Int(int64(i)), stream.Float(float64(b))))})
		}
		out = append(out, engine.TaggedElement{Stream: "bid", Elem: stream.PunctElement(stream.MustPunctuation(
			stream.Wildcard(), stream.Const(stream.Int(int64(i))), stream.Wildcard()))})
		out = append(out, engine.TaggedElement{Stream: "item", Elem: stream.PunctElement(stream.MustPunctuation(
			stream.Wildcard(), stream.Const(stream.Int(int64(i))), stream.Wildcard(), stream.Wildcard()))})
	}
	return out
}

func registerShare(t *testing.T, d *engine.DSMS, name, tag string) *engine.Registered {
	t.Helper()
	reg, err := d.Register(name, workload.AuctionQuery(), engine.Options{Share: true, ShareTag: tag})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestLiveEvolveUnderLoad: one producer streams the full feed while a
// churn goroutine attaches and detaches views (both joining the live
// share group and spawning/retiring whole trees) and an observer hammers
// Stats, DeadLetters, and a mid-run Checkpoint. The views that survive
// from start to finish must deliver exactly what a churn-free sequential
// run delivers.
func TestLiveEvolveUnderLoad(t *testing.T) {
	feed := liveFeed(120, 4)

	// Churn-free sequential reference.
	ref := engine.New()
	for _, s := range workload.AuctionSchemes().All() {
		ref.RegisterScheme(s)
	}
	refKeep := registerShare(t, ref, "keep0", "")
	for _, te := range feed {
		if err := ref.Push(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(refKeep.Results))
	for i, r := range refKeep.Results {
		want[i] = r.String()
	}
	if len(want) != 120*4 {
		t.Fatalf("reference delivered %d results, want %d", len(want), 120*4)
	}

	// Live run with churn.
	d := engine.New()
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	keep0 := registerShare(t, d, "keep0", "")
	keep1 := registerShare(t, d, "keep1", "")
	early := registerShare(t, d, "early", "")
	rt := d.RunSharded(engine.RuntimeOptions{Buffer: 8})

	half := len(feed) / 2
	halfSent := make(chan struct{})
	lateAttached := make(chan struct{})
	churnDone := make(chan struct{})
	var wg sync.WaitGroup

	// Producer: the deterministic feed, element order fixed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, te := range feed {
			if err := rt.Send(te.Stream, te.Elem); err != nil {
				t.Error(err)
				return
			}
			if i == half {
				// Hold the second half until the late view is in: on a
				// loaded host the rest of the feed could otherwise drain
				// before the attach and leave it nothing to deliver.
				close(halfSent)
				<-lateAttached
			}
		}
	}()

	// Churn: attach/detach views against the live group and as fresh
	// single-member trees (spawn + retire), until the producer finishes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-halfSent:
				return
			default:
			}
			shared := fmt.Sprintf("churn-shared-%d", i)
			if _, err := rt.Attach(shared, workload.AuctionQuery(), engine.Options{Share: true}); err != nil {
				t.Error(err)
				return
			}
			solo := fmt.Sprintf("churn-solo-%d", i)
			if _, err := rt.Attach(solo, workload.AuctionQuery(), engine.Options{Share: true, ShareTag: solo}); err != nil {
				t.Error(err)
				return
			}
			if err := rt.Detach(shared); err != nil {
				t.Error(err)
				return
			}
			if err := rt.Detach(solo); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Observer: stats snapshots by follower name, dead-letter snapshots,
	// and one checkpoint barrier mid-churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		checkpointed := false
		for {
			select {
			case <-churnDone:
				return
			default:
			}
			if _, err := rt.Stats("keep1"); err != nil {
				t.Error(err)
				return
			}
			rt.DeadLetters()
			if !checkpointed {
				if err := rt.Checkpoint(io.Discard); err != nil {
					t.Error(err)
					return
				}
				checkpointed = true
			}
		}
	}()

	// After the first half is in flight, attach a surviving late view and
	// detach the early one from the main goroutine.
	<-halfSent
	late, err := rt.Attach("late", workload.AuctionQuery(), engine.Options{Share: true})
	close(lateAttached)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Detach("early"); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	got := func(reg *engine.Registered) []string {
		out := make([]string, len(reg.Results))
		for i, r := range reg.Results {
			out[i] = r.String()
		}
		return out
	}
	// Survivors: element-identical to the churn-free run.
	for _, reg := range []*engine.Registered{keep0, keep1} {
		g := got(reg)
		if len(g) != len(want) {
			t.Fatalf("%s delivered %d results under churn, want %d", reg.Name, len(g), len(want))
		}
		for i := range want {
			if g[i] != want[i] {
				t.Fatalf("%s: result %d diverges under churn:\n  got:  %s\n  want: %s", reg.Name, i, g[i], want[i])
			}
		}
	}
	// The late survivor holds an exact suffix, the early leaver an exact
	// prefix, of the same delivery sequence.
	lg := got(late)
	if len(lg) == 0 || len(lg) >= len(want) {
		t.Fatalf("late view delivered %d results; want a proper non-empty suffix of %d", len(lg), len(want))
	}
	for i := range lg {
		if lg[i] != want[len(want)-len(lg)+i] {
			t.Fatalf("late view result %d is not the matching suffix element", i)
		}
	}
	eg := got(early)
	if len(eg) == 0 || len(eg) >= len(want) {
		t.Fatalf("early view kept %d results; want a proper non-empty prefix of %d", len(eg), len(want))
	}
	for i := range eg {
		if eg[i] != want[i] {
			t.Fatalf("early view result %d is not the matching prefix element", i)
		}
	}
	if got := d.PhysicalTrees(); got != 1 {
		t.Fatalf("PhysicalTrees after churn = %d, want 1", got)
	}
}
