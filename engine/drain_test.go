package engine

import (
	"errors"
	"sync"
	"testing"

	"punctsafe/stream"
	"punctsafe/workload"
)

// TestStatsConcurrentWithClose hammers Stats from several goroutines
// while producers feed the runtime and Close lands mid-flight. Run under
// -race this is the proof behind the Stats doc contract: safe from any
// goroutine, concurrently with Send and Close.
func TestStatsConcurrentWithClose(t *testing.T) {
	d, _ := newAuctionDSMS(t, 2)
	rt := d.RunSharded(RuntimeOptions{Buffer: 4})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, err := rt.Stats("q0"); err != nil {
					t.Errorf("Stats: %v", err)
					return
				}
			}
		}()
	}
	var producers sync.WaitGroup
	for p := 0; p < 4; p++ {
		producers.Add(1)
		go func(p int) {
			defer producers.Done()
			for id := 0; id < 25; id++ {
				for _, te := range auctionElems(int64(p*1000+id), 3) {
					if err := rt.Send(te.Stream, te.Elem); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
				}
			}
		}(p)
	}
	producers.Wait()
	// Close lands while the snapshot readers are still hammering.
	rt.Close()
	wg.Wait()
	// Stats keeps answering after Close (drained trees are read directly).
	if _, err := rt.Stats("q1"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedShardDrainsWithoutDeadlock: under the default Fail policy
// one poisoned query fails early while producers keep
// sending the whole feed through tiny mailboxes. The failed shard must
// keep draining so no producer ever blocks, and the healthy shard's
// output must be complete.
func TestFailedShardDrainsWithoutDeadlock(t *testing.T) {
	const producers = 6
	const itemsPer = 30
	const bids = 3
	d := New()
	d.RegisterScheme(stream.MustScheme("item", false, true, false, false))
	d.RegisterScheme(stream.MustScheme("bid", false, true, false))
	healthy, err := d.Register("healthy", workload.AuctionQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Register("poisoned", workload.AuctionQuery(), Options{
		OnResult: func(stream.Tuple) { panic("poisoned early") },
	}); err != nil {
		t.Fatal(err)
	}
	rt := d.RunSharded(RuntimeOptions{Buffer: 1})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for id := 0; id < itemsPer; id++ {
				for _, te := range auctionElems(int64(p*10000+id), bids) {
					if err := rt.Send(te.Stream, te.Elem); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait() // no deadlock: every producer finishes its full feed
	rt.Close()
	err = rt.Wait()
	if err == nil {
		t.Fatal("poisoned shard did not fail")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("failure is not a contained panic: %v", err)
	}
	if got, want := len(healthy.Results), producers*itemsPer*bids; got != want {
		t.Fatalf("healthy shard emitted %d results, want %d", got, want)
	}
}
