package engine

import (
	"bytes"
	"io"
	"testing"

	"punctsafe/stream"
	"punctsafe/workload"
)

// buildAuctionWire encodes a generated auction feed and returns the wire
// bytes with the element count.
func buildAuctionWire(tb testing.TB, items int) ([]byte, int) {
	tb.Helper()
	inputs := workload.Auction(workload.AuctionConfig{
		Items: items, MaxBidsPerItem: 5, OpenWindow: 4,
		PunctuateItems: true, PunctuateClose: true, Seed: 23,
	})
	item, bid := workload.AuctionSchemas()
	var buf bytes.Buffer
	ww := NewWireWriter(&buf, item, bid)
	for _, in := range inputs {
		if err := ww.Write(in.Stream, in.Elem); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes(), len(inputs)
}

// TestWireReaderReadAllocs pins the per-frame allocation budget: the
// reader's window buffer and interned stream names mean a Read allocates
// only what the decoded element itself needs (tuple storage, copied
// strings, punctuation patterns).
func TestWireReaderReadAllocs(t *testing.T) {
	wire, n := buildAuctionWire(t, 400)
	item, bid := workload.AuctionSchemas()
	wr := NewWireReader(bytes.NewReader(wire), item, bid)
	// Warm up past buffer growth.
	for i := 0; i < 32; i++ {
		if _, err := wr.Read(); err != nil {
			t.Fatal(err)
		}
	}
	var sink TaggedElement
	avg := testing.AllocsPerRun(n-64, func() {
		te, err := wr.Read()
		if err != nil {
			t.Fatal(err)
		}
		sink = te
	})
	_ = sink
	// Element decoding itself allocates (tuple value slice, boxed values,
	// copied strings); the framing layer must add nothing per frame.
	if avg > 8 {
		t.Fatalf("WireReader.Read averages %.1f allocs/frame, want <= 8", avg)
	}
}

// BenchmarkWireReaderRead measures steady-state frame decoding over an
// in-memory wire (run with -benchmem for the allocation delta).
func BenchmarkWireReaderRead(b *testing.B) {
	wire, _ := buildAuctionWire(b, 400)
	item, bid := workload.AuctionSchemas()
	rd := bytes.NewReader(wire)
	wr := NewWireReader(rd, item, bid)
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := wr.Read()
		if err == io.EOF {
			rd.Reset(wire)
			wr = NewWireReader(rd, item, bid)
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestIngestWireAllocFloor pins the lent ingest path: the wire-ingest
// loop decodes each tuple frame into one value buffer it reuses, and an
// unpartitioned shard's mailbox copies the values into its own, so once
// both have grown a string-free tuple frame allocates nothing and a
// punctuation frame once (its constants, as from Decode). Every
// IngestWireResume call builds its reader and codecs, so the floor is the
// difference between calls of different lengths. No worker runs: the test takes and
// releases the mailbox, as TestRouteSingleElementAllocs does.
// scripts/check.sh runs this test by name.
func TestIngestWireAllocFloor(t *testing.T) {
	_, regs := newAuctionDSMS(t, 1)
	rt := &Runtime{route: make(map[string][]*shard), sources: make(map[string]int64)}
	s := &shard{reg: regs[0], rt: rt}
	s.mb.init(1024)
	rt.shards, rt.route["bid"] = []*shard{s}, []*shard{s}
	_, bid := workload.AuctionSchemas()
	wireOf := func(tuples, puncts int) []byte {
		var buf bytes.Buffer
		ww := NewWireWriter(&buf, bid)
		for i := range tuples {
			if err := ww.Write("bid", stream.TupleElement(stream.NewTuple(stream.Int(int64(i)), stream.Int(int64(i%7)), stream.Float(1.5)))); err != nil {
				t.Fatal(err)
			}
		}
		for range puncts {
			if err := ww.Write("bid", stream.PunctElement(stream.MustPunctuation(stream.Wildcard(), stream.Const(stream.Int(3)), stream.Wildcard()))); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	perCall := func(tuples, puncts int) float64 {
		wire, frames := wireOf(tuples, puncts), tuples+puncts
		ingest := func() {
			if n, err := rt.IngestWireResume("src", bytes.NewReader(wire), bid); err != nil || n != frames {
				t.Fatalf("ingested %d of %d frames: %v", n, frames, err)
			}
			if elems, _, ok := s.mb.take(); !ok || len(elems) != frames {
				t.Fatalf("the mailbox took %d elements, want %d", len(elems), frames)
			}
			s.mb.release()
		}
		ingest() // both buffer pairs reach the high-water mark
		ingest()
		return testing.AllocsPerRun(50, ingest)
	}
	base := perCall(256, 0)
	if d := perCall(512, 0) - base; d != 0 {
		t.Errorf("256 more string-free tuple frames allocate %.0f times, want 0", d)
	}
	// A call's first punctuation also builds its codec's shape table, as
	// NewWireReader builds the codec: that is per call, not per frame.
	if d := perCall(256, 2) - perCall(256, 1); d != 1 {
		t.Errorf("a punctuation frame allocates %.0f times, want 1", d)
	}
	requireMailboxHoldsNothing(t, s, false)
}
