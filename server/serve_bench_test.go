package server_test

// BenchmarkServe measures sustained serving throughput over a real unix
// socket: P producer connections pushing the auction feed through the
// wire protocol while S subscribers drain the delivery stream, with
// periodic background checkpoints enabled so producer acks and replay
// buffer trimming run at their production cadence. One op = every
// producer sending the full feed and the server ingesting all of it;
// the elements/op metric divided by ns/op is frames per second.

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"punctsafe/engine"
	"punctsafe/server"
	"punctsafe/stream"
	"punctsafe/workload"
)

// buildAuctionRelaxed registers the auction query without promise
// enforcement: the bench replays the same closed feed every iteration,
// which re-opens item ids that earlier rounds punctuated closed.
func buildAuctionRelaxed(d *engine.DSMS) error {
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	_, err := d.Register(testQuery, workload.AuctionQuery(), engine.Options{})
	return err
}

func BenchmarkServe(b *testing.B) {
	for _, tc := range []struct{ producers, subs int }{
		{1, 1},
		{2, 1},
		{2, 4},
	} {
		b.Run(fmt.Sprintf("p%d_s%d", tc.producers, tc.subs), func(b *testing.B) {
			benchServe(b, tc.producers, tc.subs)
		})
	}
}

func benchServe(b *testing.B, producers, subs int) {
	dir := b.TempDir()
	sock := filepath.Join(dir, "bench.sock")
	os.Remove(sock)
	l, err := net.Listen("unix", sock)
	if err != nil {
		b.Fatal(err)
	}
	item, bid := workload.AuctionSchemas()
	schemas := []*stream.Schema{item, bid}
	srv, err := server.New(server.Config{
		Listener:        l,
		Build:           buildAuctionRelaxed,
		Schemas:         schemas,
		CheckpointPath:  filepath.Join(dir, "bench.ckpt"),
		CheckpointEvery: 20 * time.Millisecond,
		// A queue deep enough that SlowBlock never stalls the worker,
		// and Retain must cover it. Retain costs nothing per delivery;
		// what it does size is each 20 ms checkpoint, which serializes
		// every retained delivery.
		QueueLimit: 1 << 14,
		Retain:     1 << 14,
		Slow:       server.SlowBlock,
	})
	if err != nil {
		b.Fatal(err)
	}

	dial := func() *server.Dialer {
		return &server.Dialer{Addr: "unix://" + sock, Backoff: 2 * time.Millisecond}
	}
	var drained []<-chan int
	for i := 0; i < subs; i++ {
		sub, err := dial().Subscribe(testQuery)
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan int, 1)
		drained = append(drained, done)
		go func() {
			n := 0
			for {
				if _, err := sub.Next(); err != nil {
					done <- n
					return
				}
				n++
			}
		}()
	}
	feed := auctionFeed()
	names := make([]string, producers)
	prods := make([]*server.Producer, producers)
	for i := range prods {
		names[i] = fmt.Sprintf("src%d", i)
		p, err := dial().Producer(names[i], schemas...)
		if err != nil {
			b.Fatal(err)
		}
		prods[i] = p
		defer p.Close()
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range prods {
			for _, it := range feed {
				if err := p.Send(it.Stream, it.Elem); err != nil {
					b.Fatal(err)
				}
			}
			if err := p.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		// One op ends when the server has ingested every producer's
		// send, i.e. the resume offsets catch up to the wire bytes
		// written (commit happens at network-quiet boundaries).
		for pi, p := range prods {
			for srv.Runtime().ResumeOffset(names[pi]) != p.Sent() {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(producers*len(feed)), "elements/op")
	for _, p := range prods {
		p.Close()
	}
	if err := srv.Shutdown(); err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, done := range drained {
		total += <-done
	}
	if total == 0 {
		b.Fatal("no subscriber received any delivery; the bench measured nothing")
	}
}
