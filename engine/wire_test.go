package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/iotest"

	"punctsafe/internal/faultinject"
	"punctsafe/stream"
	"punctsafe/workload"
)

// wireEntryPoints are the runtime's two wire-ingest entry points. They
// are one loop, so every row of TestRuntimeWireIngest runs over both.
// ingest feeds wire[from:to) through the entry point, from being where
// the test expects the runtime to resume: IngestWire gets a plain reader
// over the range; IngestWireResume must find its committed offset at
// from, reads through a transport that returns half of each read (short
// reads split frames), and must leave the offset at to when it consumed
// the range.
var wireEntryPoints = []struct {
	name   string
	ingest func(rt *Runtime, wire []byte, from, to int64, schemas ...*stream.Schema) (int, error)
}{
	{"IngestWire", func(rt *Runtime, wire []byte, from, to int64, schemas ...*stream.Schema) (int, error) {
		return rt.IngestWire(bytes.NewReader(wire[from:to]), schemas...)
	}},
	{"IngestWireResume", func(rt *Runtime, wire []byte, from, to int64, schemas ...*stream.Schema) (int, error) {
		if off := rt.ResumeOffset("wire"); off != from {
			return 0, fmt.Errorf("ResumeOffset = %d before the ingest, want %d", off, from)
		}
		n, err := rt.IngestWireResume("wire", iotest.HalfReader(bytes.NewReader(wire[from:to])), schemas...)
		if err != nil {
			return n, err
		}
		if off := rt.ResumeOffset("wire"); off != to {
			return n, fmt.Errorf("ResumeOffset = %d after the ingest, want %d", off, to)
		}
		return n, nil
	}},
}

// TestRuntimeWireIngest pins the sharded runtime's wire ingestion against
// the sequential DSMS path, one subtest per behaviour and entry point.
func TestRuntimeWireIngest(t *testing.T) {
	item, bid := workload.AuctionQuery().Stream(0), workload.AuctionQuery().Stream(1)
	feed := auctionFeed(40, 3)
	frames := make([][]byte, len(feed))
	ends := make([]int64, len(feed)) // clean-wire offset after frame i
	var clean []byte
	for i, te := range feed {
		var buf bytes.Buffer
		if err := NewWireWriter(&buf, item, bid).Write(te.Stream, te.Elem); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
		clean = append(clean, frames[i]...)
		ends[i] = int64(len(clean))
	}
	const garbleEvery = 13
	damaged, rep := faultinject.BuildWire(frames, faultinject.WireChaosConfig{
		GarbleEvery: garbleEvery, UnknownEvery: 19, TruncateTail: true,
	})
	if rep.Garbled == 0 || rep.Unknown == 0 || rep.Truncated != 1 {
		t.Fatalf("wire chaos injected nothing: %+v", rep)
	}

	// The reference: the clean wire through the sequential path.
	ref, refRegs := newAuctionDSMS(t, 2)
	if n, err := ref.IngestWire(bytes.NewReader(clean), item, bid); err != nil || n != len(feed) {
		t.Fatalf("sequential reference ingested %d of %d: %v", n, len(feed), err)
	}
	if len(refRegs[0].Results) == 0 {
		t.Fatal("reference run produced no results; the checks are vacuous")
	}
	drain := func(t *testing.T, rt *Runtime) {
		t.Helper()
		rt.Close()
		if err := rt.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// A single producer keeps shard delivery deterministic, so results
	// match the reference in exact order, not just as a multiset.
	sameAsRef := func(t *testing.T, prefix [][]string, regs []*Registered) {
		t.Helper()
		for i := range regs {
			got := resultStrings(regs[i])
			if prefix != nil {
				got = append(prefix[i], got...)
			}
			if !equalStrings(got, resultStrings(refRegs[i])) {
				t.Fatalf("query %d: %d results, sequential reference has %d (or order differs)",
					i, len(got), len(refRegs[i].Results))
			}
		}
	}

	for _, ep := range wireEntryPoints {
		// Row 1: a clean wire is element-for-element the sequential run.
		t.Run("clean/"+ep.name, func(t *testing.T) {
			d, regs := newAuctionDSMS(t, 2)
			rt := d.RunSharded(RuntimeOptions{})
			n, err := ep.ingest(rt, clean, 0, int64(len(clean)), item, bid)
			if err != nil || n != len(feed) {
				t.Fatalf("routed %d of %d elements: %v", n, len(feed), err)
			}
			drain(t, rt)
			sameAsRef(t, nil, regs)
		})

		// Row 2: a damaged wire under Quarantine loses exactly the damaged
		// frames — every original element arrives, and the dead-letter
		// queue holds one entry per injected fault, in wire order.
		t.Run("quarantine/"+ep.name, func(t *testing.T) {
			d, regs := newAuctionDSMS(t, 2)
			rt := d.RunSharded(RuntimeOptions{OnError: Quarantine})
			n, err := ep.ingest(rt, damaged, 0, int64(len(damaged)), item, bid)
			if err != nil || n != len(feed) {
				t.Fatalf("routed %d elements, want all %d originals: %v", n, len(feed), err)
			}
			drain(t, rt)
			sameAsRef(t, nil, regs)
			dl := rt.DeadLetters()
			if dl.Total != uint64(rep.Total()) || len(dl.Entries) != rep.Total() {
				t.Fatalf("dead letters: total %d, %d retained, want exactly the %d injected faults",
					dl.Total, len(dl.Entries), rep.Total())
			}
			pos := 0
			for i, e := range dl.Entries {
				if e.Frame == nil {
					// Only the truncated tail has no frame boundary.
					if i != len(dl.Entries)-1 {
						t.Fatalf("dead letter %d of %d has no raw frame", i, len(dl.Entries))
					}
					continue
				}
				at := bytes.Index(damaged[pos:], e.Frame)
				if at < 0 {
					t.Fatalf("dead letter %d is out of wire order", i)
				}
				pos += at + len(e.Frame)
			}
		})

		// Row 3: the strict policy fails at the first bad frame; the
		// elements before it are still routed.
		t.Run("strict/"+ep.name, func(t *testing.T) {
			d, _ := newAuctionDSMS(t, 2)
			rt := d.RunSharded(RuntimeOptions{})
			n, err := ep.ingest(rt, damaged, 0, int64(len(damaged)), item, bid)
			if err == nil {
				t.Fatal("strict ingest accepted a corrupt wire")
			}
			if n != garbleEvery {
				t.Fatalf("routed %d elements before failing, want the %d ahead of the first garbled frame", n, garbleEvery)
			}
			if ep.name == "IngestWireResume" && rt.ResumeOffset("wire") != ends[garbleEvery-1] {
				t.Fatalf("ResumeOffset = %d, want %d (the last good frame's end)", rt.ResumeOffset("wire"), ends[garbleEvery-1])
			}
			drain(t, rt)
		})

		// Row 4: checkpoint → crash → restore → resume commits no frame
		// twice and skips none; results and operator stats across the two
		// lives equal the uninterrupted sequential run.
		t.Run("resume/"+ep.name, func(t *testing.T) {
			boundary := ends[len(feed)/2]
			d, regs := newAuctionDSMS(t, 2)
			rt := d.RunSharded(RuntimeOptions{})
			n1, err := ep.ingest(rt, clean, 0, boundary, item, bid)
			if err != nil {
				t.Fatalf("first ingest: %v", err)
			}
			var snap bytes.Buffer
			if err := rt.Checkpoint(&snap); err != nil {
				t.Fatal(err)
			}
			prefix := [][]string{resultStrings(regs[0]), resultStrings(regs[1])}
			rt.Kill()
			rt.Close()
			rt.Wait()

			d2, regs2 := newAuctionDSMS(t, 2)
			rt2, err := d2.RestoreRuntime(bytes.NewReader(snap.Bytes()), RuntimeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			n2, err := ep.ingest(rt2, clean, boundary, int64(len(clean)), item, bid)
			if err != nil {
				t.Fatalf("resumed ingest: %v", err)
			}
			drain(t, rt2)
			if n1+n2 != len(feed) {
				t.Fatalf("ingested %d + %d elements, want exactly %d (no loss, no duplication)", n1, n2, len(feed))
			}
			sameAsRef(t, prefix, regs2)
			for i := range regs2 {
				if got, want := regs2[i].StatsSnapshot(), refRegs[i].StatsSnapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: stats diverge:\n%v\nvs\n%v", i, got, want)
				}
			}
		})
	}
}

// TestWireRoundTripAuction: the auction workload encoded to the wire and
// ingested back produces exactly the direct-push results.
func TestWireRoundTripAuction(t *testing.T) {
	inputs := workload.Auction(workload.AuctionConfig{
		Items: 120, MaxBidsPerItem: 5, OpenWindow: 4,
		PunctuateItems: true, PunctuateClose: true, Seed: 23,
	})
	item, bid := workload.AuctionSchemas()

	// Direct run.
	direct := New()
	for _, s := range workload.AuctionSchemes().All() {
		direct.RegisterScheme(s)
	}
	dreg, err := direct.Register("q", workload.AuctionQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		if err := direct.Push(in.Stream, in.Elem); err != nil {
			t.Fatal(err)
		}
	}

	// Wire run.
	var buf bytes.Buffer
	ww := NewWireWriter(&buf, item, bid)
	for _, in := range inputs {
		if err := ww.Write(in.Stream, in.Elem); err != nil {
			t.Fatal(err)
		}
	}
	wired := New()
	for _, s := range workload.AuctionSchemes().All() {
		wired.RegisterScheme(s)
	}
	wreg, err := wired.Register("q", workload.AuctionQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := wired.IngestWire(&buf, item, bid)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(inputs) {
		t.Fatalf("ingested %d of %d", n, len(inputs))
	}
	if len(wreg.Results) != len(dreg.Results) {
		t.Fatalf("wire results %d != direct %d", len(wreg.Results), len(dreg.Results))
	}
	for i := range wreg.Results {
		if wreg.Results[i].String() != dreg.Results[i].String() {
			t.Fatalf("result %d differs", i)
		}
	}
	if wreg.Tree.TotalState() != 0 {
		t.Fatal("state should drain")
	}
}

// TestWireErrors: unknown streams, truncation, and junk are reported.
func TestWireErrors(t *testing.T) {
	item, bid := workload.AuctionSchemas()
	d := New()

	var buf bytes.Buffer
	ww := NewWireWriter(&buf, item)
	if err := ww.Write("bid", stream.TupleElement(stream.NewTuple(
		stream.Int(1), stream.Int(1), stream.Float(1)))); err == nil {
		t.Fatal("writer must reject undeclared stream")
	}
	if err := ww.Write("item", stream.TupleElement(stream.NewTuple(stream.Int(1)))); err == nil {
		t.Fatal("writer must reject arity mismatch")
	}

	// A valid frame for a stream the reader does not know.
	buf.Reset()
	ww = NewWireWriter(&buf, item)
	if err := ww.Write("item", stream.TupleElement(stream.NewTuple(
		stream.Int(1), stream.Int(2), stream.Str("x"), stream.Float(1)))); err != nil {
		t.Fatal(err)
	}
	if _, err := d.IngestWire(bytes.NewReader(buf.Bytes()), bid); err == nil {
		t.Fatal("reader must reject unknown stream")
	}

	// Truncated frame.
	full := append([]byte(nil), buf.Bytes()...)
	if _, err := d.IngestWire(bytes.NewReader(full[:len(full)-3]), item); err == nil {
		t.Fatal("reader must reject truncation")
	}
	// Junk header.
	if _, err := d.IngestWire(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}), item); err == nil {
		t.Fatal("reader must reject oversized name length")
	}
}
