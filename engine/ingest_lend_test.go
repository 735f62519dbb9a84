package engine

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"punctsafe/stream"
	"punctsafe/workload"
)

// Wire ingest lends its runs: a tuple's values live in a buffer the ingest
// loop reuses once the run is committed. These tests hold the two keepers
// that are not a mailbox to their copies — a partition front clones the
// tuples it accepts, and the dead-letter queue clones an offender it
// retains — by making the loop reuse its buffer before the keeper is read.

// encodeWire encodes tagged elements as one wire.
func encodeWire(t *testing.T, feed []TaggedElement, schemas ...*stream.Schema) []byte {
	t.Helper()
	var buf bytes.Buffer
	ww := NewWireWriter(&buf, schemas...)
	for _, te := range feed {
		if err := ww.Write(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestPartitionedWireIngestMatchesSequential ingests a wire into a
// Partitions=2 query whose OnResult blocks until the ingest has returned:
// the merger stops at the first result, the workers stop once their
// records are all in flight, and the loop decodes ten 128-bid runs into
// its one buffer while later chunks wait, unread, in the partition
// mailboxes (which hold them all without blocking the producer). What is
// delivered must equal the sequential reference element for element.
func TestPartitionedWireIngestMatchesSequential(t *testing.T) {
	const items, runs = 128, 10
	var feed []TaggedElement
	for i := range items {
		feed = append(feed, TaggedElement{"item", stream.TupleElement(stream.NewTuple(
			stream.Int(1), stream.Int(int64(i)), stream.Str(fmt.Sprintf("item%d", i)), stream.Float(float64(i))))})
	}
	for j := range runs * 128 {
		feed = append(feed, TaggedElement{"bid", stream.TupleElement(stream.NewTuple(
			stream.Int(int64(j)), stream.Int(int64(j*37%items)), stream.Float(float64(j))))})
	}
	item, bid := workload.AuctionSchemas()
	wire := encodeWire(t, feed, item, bid)

	run := func(partitions int, gate chan struct{}) []string {
		t.Helper()
		var mu sync.Mutex
		var got []string
		keep := func(s string) {
			if gate != nil {
				<-gate
			}
			mu.Lock()
			got = append(got, s)
			mu.Unlock()
		}
		d := New()
		for _, s := range workload.AuctionSchemes().All() {
			d.RegisterScheme(s)
		}
		if _, err := d.Register("q", workload.AuctionQuery(), Options{
			Partitions: partitions,
			OnResult:   func(u stream.Tuple) { keep(u.String()) },
			OnPunct:    func(p stream.Punctuation) { keep(p.String()) },
		}); err != nil {
			t.Fatal(err)
		}
		if partitions == 0 {
			if n, err := d.IngestWire(bytes.NewReader(wire), item, bid); err != nil || n != len(feed) {
				t.Fatalf("sequential ingest: %d of %d elements: %v", n, len(feed), err)
			}
			return got
		}
		rt := d.RunSharded(RuntimeOptions{})
		if n, err := rt.IngestWire(bytes.NewReader(wire), item, bid); err != nil || n != len(feed) {
			t.Fatalf("partitioned ingest: %d of %d elements: %v", n, len(feed), err)
		}
		close(gate)
		rt.Close()
		if err := rt.Wait(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := run(0, nil)
	if len(want) != runs*128 {
		t.Fatalf("reference delivered %d results, want one per bid", len(want))
	}
	got := run(2, make(chan struct{}))
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("partitioned wire ingest delivered %d elements, reference %d; first difference at %d", len(got), len(want), i)
	}
}

// TestQuarantinedWireTupleStaysIntact sends, over IngestWireResume, an
// item tuple that breaks its own stream's punctuation. Under Quarantine
// with EnforcePromises the shard dead-letters it out of the mailbox,
// whose copy of its values is cleared when the take is released and
// overwritten by the two batches that follow. The violator ends its
// batch and a Stats barrier follows it, so nothing is copied in behind it
// before the worker takes it: its values are in the array the mailbox
// clears, not in one it outgrew. The retained entry must still read as
// the tuple that was sent, string attribute included.
func TestQuarantinedWireTupleStaysIntact(t *testing.T) {
	d := New()
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	if _, err := d.Register("q", workload.AuctionQuery(), Options{EnforcePromises: true}); err != nil {
		t.Fatal(err)
	}
	rt := d.RunSharded(RuntimeOptions{OnError: Quarantine})
	item, bid := workload.AuctionSchemas()
	itemOf := func(id int64, name string) TaggedElement {
		return TaggedElement{"item", stream.TupleElement(stream.NewTuple(
			stream.Int(7), stream.Int(id), stream.Str(name), stream.Float(2.5)))}
	}
	ingest := func(b []TaggedElement) {
		t.Helper()
		if n, err := rt.IngestWireResume("src", bytes.NewReader(encodeWire(t, b, item, bid)), item, bid); err != nil || n != len(b) {
			t.Fatalf("ingested %d of %d elements: %v", n, len(b), err)
		}
	}
	violator := itemOf(5, "widget")
	ingest([]TaggedElement{itemOf(4, "sprocket"), {"item", stream.PunctElement(stream.MustPunctuation(
		stream.Wildcard(), stream.Const(stream.Int(5)), stream.Wildcard(), stream.Wildcard()))}, violator})
	if _, err := rt.Stats("q"); err != nil { // the worker has taken the violator
		t.Fatal(err)
	}
	ingest([]TaggedElement{itemOf(6, "gadget"), itemOf(8, "gizmo")})
	ingest([]TaggedElement{itemOf(9, "doohickey"), {"bid", stream.TupleElement(stream.NewTuple(stream.Int(3), stream.Int(9), stream.Float(1)))}})
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	dl := rt.DeadLetters()
	if len(dl.Entries) != 1 {
		t.Fatalf("%d dead letters retained, want the one violator", len(dl.Entries))
	}
	if got, want := dl.Entries[0].Elem.String(), violator.Elem.String(); got != want {
		t.Fatalf("dead letter reads %s, was sent as %s", got, want)
	}
}
