package engine

// Graceful-shutdown ordering under contention: Runtime.Close (and Kill)
// racing an in-flight IngestWire and a goroutine hammering the
// Stats/Checkpoint control barriers. The merger's kill-drain path must
// answer every pending barrier — no call may wedge, and under -race the
// teardown must be free of data races. Producer-side errors are expected
// here (a closed runtime rejects sends); hangs and races are not.

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"punctsafe/workload"
)

// trickleReader feeds the wire in small chunks, yielding between reads,
// so the ingest is reliably still in flight when the shutdown lands.
type trickleReader struct {
	data []byte
	off  int
}

func (r *trickleReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	runtime.Gosched()
	n := 257
	if n > len(p) {
		n = len(p)
	}
	if n > len(r.data)-r.off {
		n = len(r.data) - r.off
	}
	copy(p, r.data[r.off:r.off+n])
	r.off += n
	return n, nil
}

func TestCloseRacesParallelIngestAndBarriers(t *testing.T) {
	itemSchema := workload.AuctionQuery().Stream(0)
	bidSchema := workload.AuctionQuery().Stream(1)
	var w bytes.Buffer
	ww := NewWireWriter(&w, itemSchema, bidSchema)
	for _, te := range auctionFeed(60, 4) {
		if err := ww.Write(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
	}
	wire := w.Bytes()

	for _, kill := range []bool{false, true} {
		name := "close"
		if kill {
			name = "kill"
		}
		t.Run(name, func(t *testing.T) {
			for iter := 0; iter < 4; iter++ {
				d := New()
				for _, s := range workload.AuctionSchemes().All() {
					d.RegisterScheme(s)
				}
				if _, err := d.Register("q0", workload.AuctionQuery(), Options{
					EnforcePromises: true,
					Partitions:      2,
				}); err != nil {
					t.Fatal(err)
				}
				rt := d.RunSharded(RuntimeOptions{OnError: Quarantine})

				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					// A closed runtime rejects the send: that error is the
					// expected outcome, not a failure.
					rt.IngestWire(&trickleReader{data: wire}, itemSchema, bidSchema)
				}()
				stop := make(chan struct{})
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						rt.Stats("q0")
						rt.Checkpoint(io.Discard)
					}
				}()

				// Vary the landing point of the shutdown across iterations.
				// Kill's contract still requires Close to shut the
				// mailboxes and reap workers — a crash-path Wait without
				// Close would legitimately block.
				time.Sleep(time.Duration(iter) * 200 * time.Microsecond)
				if kill {
					rt.Kill()
				}
				rt.Close()

				done := make(chan error, 1)
				go func() { done <- rt.Wait() }()
				select {
				case err := <-done:
					if kill && err != ErrKilled {
						t.Fatalf("iter %d: killed runtime reported %v, want ErrKilled", iter, err)
					}
					if !kill && err != nil {
						t.Fatalf("iter %d: closed runtime reported %v", iter, err)
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("iter %d: Wait wedged racing in-flight ingest and barriers", iter)
				}
				close(stop)
				joined := make(chan struct{})
				go func() { wg.Wait(); close(joined) }()
				select {
				case <-joined:
				case <-time.After(30 * time.Second):
					t.Fatalf("iter %d: an in-flight barrier or ingest was never answered", iter)
				}

				// Barriers issued after termination must still answer
				// immediately (with an error or a drained snapshot), never
				// hang.
				answered := make(chan struct{})
				go func() {
					rt.Stats("q0")
					rt.Checkpoint(io.Discard)
					close(answered)
				}()
				select {
				case <-answered:
				case <-time.After(30 * time.Second):
					t.Fatalf("iter %d: post-termination barrier wedged", iter)
				}
			}
		})
	}
}
