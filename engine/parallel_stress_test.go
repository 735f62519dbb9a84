package engine

// Multi-producer race stress: concurrent SendBatch producers and a wire
// ingester all feeding one query — unpartitioned, then on four
// partitions — interleaved with Stats and Checkpoint barriers, must
// produce exactly the sequential result set. The concurrent phase
// carries tuples only — tuple arrival order across streams never changes
// the final multiset of an equi-join, and purge waits for punctuation —
// so the assertion is exact even though the interleaving is not. The
// punctuation pass runs single-threaded afterwards and drains all state.
// Run under -race this exercises every ingress path at once: the shard
// mailbox's producers, take and control entries; the parallel front's
// sender-side routing, epoch seals and control barriers; and the
// wire-ingest loop.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"punctsafe/stream"
)

const (
	spSendKeys = 24 // keys fed by the SendBatch producers
	spWireKeys = 8  // keys fed over the wire (disjoint range)
	spBids     = 6
	spWatch    = 6
)

// stressTuples builds one stream's tuples for keys [lo, hi).
func stressTuples(streamName string, lo, hi int) []stream.Element {
	var elems []stream.Element
	for k := lo; k < hi; k++ {
		switch streamName {
		case "item":
			elems = append(elems, stream.TupleElement(stream.NewTuple(
				stream.Int(int64(k)), stream.Int(100))))
		case "bid":
			for i := 0; i < spBids; i++ {
				elems = append(elems, stream.TupleElement(stream.NewTuple(
					stream.Int(int64(k)), stream.Int(int64(i)))))
			}
		case "watch":
			for i := 0; i < spWatch; i++ {
				elems = append(elems, stream.TupleElement(stream.NewTuple(
					stream.Int(int64(k)), stream.Int(int64(i)))))
			}
		}
	}
	return elems
}

// stressPuncts closes every key on every stream, releasing all state.
func stressPuncts(t *testing.T, rt *Runtime) {
	t.Helper()
	for _, s := range []string{"item", "bid", "watch"} {
		for k := 0; k < spSendKeys+spWireKeys; k++ {
			p := stream.PunctElement(stream.MustPunctuation(
				stream.Const(stream.Int(int64(k))), stream.Wildcard()))
			if err := rt.Send(s, p); err != nil {
				t.Fatalf("punct %s/%d: %v", s, k, err)
			}
		}
	}
}

func newStressDSMS(t *testing.T, partitions int) (*DSMS, *Registered) {
	t.Helper()
	d := New()
	for _, s := range partitionSchemes().All() {
		d.RegisterScheme(s)
	}
	reg, err := d.Register("q0", partitionQuery(t), Options{Partitions: partitions})
	if err != nil {
		t.Fatal(err)
	}
	if partitions >= 1 && reg.Part == nil {
		t.Fatalf("query fell back to single-tree execution: %s", reg.PartitionReason)
	}
	return d, reg
}

func TestParallelIngestStress(t *testing.T) {
	schemas := partitionQuery(t)
	itemSchema := schemas.Stream(0)
	bidSchema := schemas.Stream(1)
	watchSchema := schemas.Stream(2)

	// The wire producer's slice, encoded once.
	var wireBuf bytes.Buffer
	ww := NewWireWriter(&wireBuf, itemSchema, bidSchema, watchSchema)
	for _, s := range []string{"item", "bid", "watch"} {
		for _, e := range stressTuples(s, spSendKeys, spSendKeys+spWireKeys) {
			if err := ww.Write(s, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	wire := wireBuf.Bytes()

	// Single-tree reference, fed sequentially.
	refD, refReg := newStressDSMS(t, 0)
	refRT := refD.RunSharded(RuntimeOptions{})
	for _, s := range []string{"item", "bid", "watch"} {
		if err := refRT.SendBatch(s, stressTuples(s, 0, spSendKeys)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := refRT.IngestWire(bytes.NewReader(wire), itemSchema, bidSchema, watchSchema); err != nil {
		t.Fatal(err)
	}
	stressPuncts(t, refRT)
	refRT.Close()
	if err := refRT.Wait(); err != nil {
		t.Fatal(err)
	}
	want := sortedResults(refReg)
	if wantLen := (spSendKeys + spWireKeys) * spBids * spWatch; len(want) != wantLen {
		t.Fatalf("reference produced %d results, want %d", len(want), wantLen)
	}

	// Concurrent runs, on one tree and on four partitions: three SendBatch
	// producers (one per stream, each splitting its tuples into small
	// batches), one wire producer, and a barrier goroutine hammering
	// Stats/Checkpoint.
	for _, parts := range []int{0, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			stressConcurrent(t, parts, wire, want)
		})
	}
}

// stressConcurrent runs the concurrent phase against one query on parts
// partitions (0: the unpartitioned mailbox) and compares its results
// with the sequential reference.
func stressConcurrent(t *testing.T, parts int, wire []byte, want []string) {
	schemas := partitionQuery(t)
	itemSchema := schemas.Stream(0)
	bidSchema := schemas.Stream(1)
	watchSchema := schemas.Stream(2)
	d, reg := newStressDSMS(t, parts)
	rt := d.RunSharded(RuntimeOptions{})

	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for _, s := range []string{"item", "bid", "watch"} {
		wg.Add(1)
		go func(s string) {
			defer wg.Done()
			elems := stressTuples(s, 0, spSendKeys)
			const chunk = 7 // deliberately odd so batches straddle key groups
			for len(elems) > 0 {
				n := chunk
				if n > len(elems) {
					n = len(elems)
				}
				if err := rt.SendBatch(s, elems[:n]); err != nil {
					errs <- fmt.Errorf("SendBatch %s: %w", s, err)
					return
				}
				elems = elems[n:]
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		n, err := rt.IngestWire(bytes.NewReader(wire), itemSchema, bidSchema, watchSchema)
		if err != nil {
			errs <- fmt.Errorf("IngestWire: %w", err)
			return
		}
		if wantN := spWireKeys * (1 + spBids + spWatch); n != wantN {
			errs <- fmt.Errorf("wire producer routed %d elements, want %d", n, wantN)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Full quiescence barriers racing the producers: every call must
		// observe a consistent snapshot and must not wedge or reorder the
		// pipeline.
		for i := 0; i < 5; i++ {
			if _, err := rt.Stats("q0"); err != nil {
				errs <- fmt.Errorf("Stats: %w", err)
				return
			}
			var sink bytes.Buffer
			if err := rt.Checkpoint(&sink); err != nil {
				errs <- fmt.Errorf("Checkpoint: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	stressPuncts(t, rt)
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if dl := rt.DeadLetters(); dl.Total != 0 {
		t.Fatalf("clean stress run dead-lettered %d elements", dl.Total)
	}
	got := sortedResults(reg)
	if !equalStrings(want, got) {
		t.Fatalf("concurrent run diverged: %d results vs sequential %d", len(got), len(want))
	}

	// Every key was punctuated on every stream: no operator (summed over
	// the replicas, when partitioned) retains a tuple.
	stats, err := rt.Stats("q0")
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stats {
		if st.TotalState() != 0 {
			t.Fatalf("operator %d retains %d tuples after full punctuation", i, st.TotalState())
		}
	}
}
