package engine

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"punctsafe/stream"
	"punctsafe/workload"
)

// BenchmarkIngest compares the sequential Push path against the sharded
// runtime while the number of registered queries grows. Every query
// subscribes to the same streams, so the sequential path does q times the
// join work per element on one goroutine, while the sharded runtime
// spreads it over q shard workers: on multi-core hardware the sharded
// rows should hold roughly constant wall time per element as q rises
// where the sequential rows degrade linearly.
func BenchmarkIngest(b *testing.B) {
	const items = 400
	const bids = 4
	var feed []TaggedElement
	for i := 0; i < items; i++ {
		feed = append(feed, auctionElems(int64(i), bids)...)
	}

	// Pre-group the feed into contiguous same-stream runs for the batched
	// variant (what Runtime.IngestWire does with decoded frames).
	type runBatch struct {
		stream string
		elems  []stream.Element
	}
	var runs []runBatch
	for start := 0; start < len(feed); {
		end := start + 1
		for end < len(feed) && feed[end].Stream == feed[start].Stream {
			end++
		}
		rb := runBatch{stream: feed[start].Stream}
		for _, te := range feed[start:end] {
			rb.elems = append(rb.elems, te.Elem)
		}
		runs = append(runs, rb)
		start = end
	}

	for _, nq := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sequential/queries=%d", nq), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, regs := newAuctionDSMS(b, nq)
				b.StartTimer()
				for _, te := range feed {
					if err := d.Push(te.Stream, te.Elem); err != nil {
						b.Fatal(err)
					}
				}
				if err := d.Flush(); err != nil {
					b.Fatal(err)
				}
				if len(regs[0].Results) != items*bids {
					b.Fatalf("results = %d", len(regs[0].Results))
				}
			}
			b.ReportMetric(float64(len(feed)), "elements/op")
		})
		b.Run(fmt.Sprintf("sharded/queries=%d", nq), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, regs := newAuctionDSMS(b, nq)
				b.StartTimer()
				rt := d.RunSharded(RuntimeOptions{Buffer: 256})
				for _, te := range feed {
					if err := rt.Send(te.Stream, te.Elem); err != nil {
						b.Fatal(err)
					}
				}
				rt.Close()
				if err := rt.Wait(); err != nil {
					b.Fatal(err)
				}
				if len(regs[0].Results) != items*bids {
					b.Fatalf("results = %d", len(regs[0].Results))
				}
			}
			b.ReportMetric(float64(len(feed)), "elements/op")
		})
		b.Run(fmt.Sprintf("sharded-batch/queries=%d", nq), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, regs := newAuctionDSMS(b, nq)
				b.StartTimer()
				rt := d.RunSharded(RuntimeOptions{Buffer: 256})
				for _, rb := range runs {
					if err := rt.SendBatch(rb.stream, rb.elems); err != nil {
						b.Fatal(err)
					}
				}
				rt.Close()
				if err := rt.Wait(); err != nil {
					b.Fatal(err)
				}
				if len(regs[0].Results) != items*bids {
					b.Fatalf("results = %d", len(regs[0].Results))
				}
			}
			b.ReportMetric(float64(len(feed)), "elements/op")
		})
	}
}

// BenchmarkShardHandoff measures what the runtime layer adds to the tree
// on join-watermark's shape: the sensor query (ordered heartbeats,
// promises enforced, punctuation purging on) fed runs of about two
// elements that alternate between the streams. "tree" pushes every run
// through exec.Tree.PushBatch and delivers the outputs on the benchmark
// goroutine; "runtime" sends the same runs through Runtime.SendBatch, so
// a shard worker does the same pushes and deliveries behind the mailbox.
// The gap between their ns/elem is the hand-off's cost; run it with
// -cpu 1 and -cpu 2 to see how much of it is the two goroutines
// lock-stepping.
func BenchmarkShardHandoff(b *testing.B) {
	feed := workload.Sensor(workload.SensorConfig{Epochs: 4096, ReadingsPerEpoch: 4, Disorder: 256,
		HeartbeatEvery: 64, Heartbeats: true, Seed: 1})
	type run struct {
		stream string
		input  int
		elems  []stream.Element
	}
	var runs []run
	q := workload.SensorQuery()
	for i := 0; i < len(feed); {
		r := run{stream: feed[i].Stream}
		for ; i < len(feed) && feed[i].Stream == r.stream; i++ {
			r.elems = append(r.elems, feed[i].Elem)
		}
		r.input = q.StreamIndex(r.stream)
		runs = append(runs, r)
	}
	register := func(b *testing.B) (*DSMS, *Registered) {
		d := New()
		for _, s := range workload.SensorSchemes().All() {
			d.RegisterScheme(s)
		}
		reg, err := d.Register("q", workload.SensorQuery(), Options{
			EnforcePromises: true, PurgePunctuations: true, OnResult: func(stream.Tuple) {}})
		if err != nil {
			b.Fatal(err)
		}
		return d, reg
	}
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(feed)), "ns/elem")
		b.ReportMetric(float64(len(feed))/float64(len(runs)), "elems/run")
	}
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, reg := register(b)
			b.StartTimer()
			for _, r := range runs {
				outs, _, err := reg.Tree.PushBatch(r.input, r.elems)
				if err != nil {
					b.Fatal(err)
				}
				reg.deliver(outs)
			}
			outs, err := reg.Tree.Flush()
			if err != nil {
				b.Fatal(err)
			}
			reg.deliver(outs)
		}
		perElem(b)
	})
	b.Run("runtime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d, _ := register(b)
			b.StartTimer()
			rt := d.RunSharded(RuntimeOptions{})
			for _, r := range runs {
				if err := rt.SendBatch(r.stream, r.elems); err != nil {
					b.Fatal(err)
				}
			}
			rt.Close()
			if err := rt.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		perElem(b)
	})
}

// BenchmarkCheckpoint measures the durability tax: serializing a live
// sharded runtime with open join state through the mailbox barrier
// (checkpoint), and rebuilding a runtime from that snapshot (restore).
// The open items never receive their closing punctuations, so every
// snapshot carries openItems*(bids+1) live rows per query plus the
// punctuation stores.
func BenchmarkCheckpoint(b *testing.B) {
	const openItems = 512
	const bids = 4
	d, _ := newAuctionDSMS(b, 2)
	rt := d.RunSharded(RuntimeOptions{Buffer: 256})
	off := int64(0)
	for i := 0; i < openItems; i++ {
		for _, te := range auctionElems(int64(i), bids)[:bids+1] { // tuples only
			off++
			if err := rt.SendAt("bench", te.Stream, te.Elem, off); err != nil {
				b.Fatal(err)
			}
		}
	}
	var blob bytes.Buffer
	if err := rt.Checkpoint(&blob); err != nil {
		b.Fatal(err)
	}

	b.Run(fmt.Sprintf("checkpoint/rows=%d", openItems*(bids+1)), func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(blob.Len()))
		for i := 0; i < b.N; i++ {
			if err := rt.Checkpoint(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("restore/rows=%d", openItems*(bids+1)), func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(blob.Len()))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d2, _ := newAuctionDSMS(b, 2)
			b.StartTimer()
			rt2, err := d2.RestoreRuntime(bytes.NewReader(blob.Bytes()), RuntimeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			rt2.Close()
			if err := rt2.Wait(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	rt.Close()
	if err := rt.Wait(); err != nil {
		b.Fatal(err)
	}
}
