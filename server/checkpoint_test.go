package server

// White-box checkpoint-envelope tests: what restoreEnvelope accepts and
// how a restored retention ring fits a hub whose Retain has changed.
// Elements go in through Runtime.Send and come out through the hub, so
// no client sockets are involved.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"punctsafe/engine"
	"punctsafe/stream"
	"punctsafe/workload"
)

const ckptTestQuery = "auction"

func ckptTestConfig(t *testing.T, dir string) Config {
	t.Helper()
	l, err := net.Listen("unix", filepath.Join(dir, "s.sock"))
	if err != nil {
		t.Fatal(err)
	}
	item, bid := workload.AuctionSchemas()
	return Config{
		Listener: l,
		Build: func(d *engine.DSMS) error {
			for _, s := range workload.AuctionSchemes().All() {
				d.RegisterScheme(s)
			}
			_, err := d.Register(ckptTestQuery, workload.AuctionQuery(), engine.Options{EnforcePromises: true})
			return err
		},
		Schemas:        []*stream.Schema{item, bid},
		CheckpointPath: filepath.Join(dir, "ckpt"),
	}
}

// TestLegacyCheckpointRejected pins the PSRVCK01 reader's removal: a
// well-formed v01 file (no epoch field, valid checksum) is a bad magic.
func TestLegacyCheckpointRejected(t *testing.T) {
	cfg := ckptTestConfig(t, t.TempDir())
	defer cfg.Listener.Close()
	body := append([]byte("PSRVCK01"), 0, 0) // empty engine blob, no queries
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if err := os.WriteFile(cfg.CheckpointPath, body, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := New(cfg)
	if !errors.Is(err, ErrCorruptServerCheckpoint) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("restoring a PSRVCK01 file: got %v, want ErrCorruptServerCheckpoint (bad magic)", err)
	}
}

// TestRestoreShrunkRetain restarts from a checkpoint written under a
// larger Retain: the hub keeps the newest Retain deliveries, serves
// them to a subscriber resuming at the new floor, and rejects older
// resume hints.
func TestRestoreShrunkRetain(t *testing.T) {
	const retain = 16
	dir := t.TempDir()
	cfg := ckptTestConfig(t, dir)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed := workload.Auction(workload.AuctionConfig{
		Items: 60, MaxBidsPerItem: 4, OpenWindow: 3,
		PunctuateItems: true, PunctuateClose: true, Seed: 11,
	})
	for _, it := range feed {
		if err := srv.Runtime().Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.CheckpointNow(); err != nil { // its barrier also quiesces the worker
		t.Fatal(err)
	}
	h := srv.pack().hubs[ckptTestQuery]
	head := h.ring.next - 1
	if head <= 2*retain {
		t.Fatalf("feed yields only %d deliveries; cannot shrink to %d", head, retain)
	}
	want := snapshotOf(t, h, head)
	want = want[len(want)-retain:]
	srv.Kill()

	cfg = ckptTestConfig(t, dir)
	cfg.Retain, cfg.QueueLimit = retain, retain
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Kill()
	h2 := srv2.pack().hubs[ckptTestQuery]
	if _, err := h2.attach(head - retain - 1); !errors.Is(err, ErrResumeExpired) {
		t.Fatalf("resume hint older than the shrunk ring: got %v, want ErrResumeExpired", err)
	}
	s, err := h2.attach(head - retain)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := collectN(t, h2, s, 2*retain)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != retain {
		t.Fatalf("restored ring serves %d deliveries, want the newest %d", len(got), retain)
	}
	for i := range got {
		if got[i].seq != want[i].seq || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("restored delivery %d: got %d|%s, want %d|%s",
				i, got[i].seq, got[i].elem, want[i].seq, want[i].elem)
		}
	}
}

// TestEncodeCheckpointReusesScratch encodes one quiesced server three
// times: into nothing, into a kept scratch, and into the same scratch
// again. The bytes are the same each time, and the second kept encoding
// reuses the first one's body. The retained deliveries are copied into
// the body as the frames the ring holds, so the encoding allocates
// nothing once the body has grown.
func TestEncodeCheckpointReusesScratch(t *testing.T) {
	cfg := ckptTestConfig(t, t.TempDir())
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()
	feed := workload.Auction(workload.AuctionConfig{
		Items: 40, MaxBidsPerItem: 4, OpenWindow: 3,
		PunctuateItems: true, PunctuateClose: true, Seed: 5,
	})
	for _, it := range feed {
		if err := srv.Runtime().Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.CheckpointNow(); err != nil { // its barrier quiesces the worker
		t.Fatal(err)
	}
	srv.ckptMu.Lock()
	defer srv.ckptMu.Unlock()
	owned, _, err := srv.encodeCheckpoint(srv.pack(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sc ckptScratch
	first, _, err := srv.encodeCheckpoint(srv.pack(), &sc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, owned) {
		t.Fatal("encoding into a scratch changed the PSRVCK02 bytes")
	}
	if srv.pack().hubs[ckptTestQuery].ring.len() == 0 {
		t.Fatal("the feed left nothing in the retention ring; the test checks nothing")
	}
	second, _, err := srv.encodeCheckpoint(srv.pack(), &sc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second, owned) {
		t.Fatal("re-encoding into a used scratch changed the PSRVCK02 bytes")
	}
	if &second[0] != &first[0] {
		t.Fatal("the second encoding did not reuse the kept body buffer")
	}
}

// ringEnvelope hand-builds a PSRVCK02 file (empty engine snapshot, one
// query) whose retained ring carries the given seqs.
func ringEnvelope(t *testing.T, h *hub, cut uint64, seqs []uint64, elem stream.Element) []byte {
	t.Helper()
	payload, err := h.codec.Encode(nil, elem)
	if err != nil {
		t.Fatal(err)
	}
	return ringEnvelopeOf(h, cut, seqs, payload)
}

// ringEnvelopeOf is ringEnvelope over an already encoded element.
func ringEnvelopeOf(h *hub, cut uint64, seqs []uint64, payload []byte) []byte {
	body := binary.AppendUvarint([]byte(serverCkptMagic), 1) // epoch
	body = binary.AppendUvarint(body, 0)                     // engine snapshot length
	body = binary.AppendUvarint(body, 1)                     // queries
	body = binary.AppendUvarint(body, uint64(len(h.name)))
	body = append(body, h.name...)
	body = binary.AppendUvarint(body, cut)
	body = binary.AppendUvarint(body, uint64(len(seqs)))
	for _, seq := range seqs {
		body = binary.AppendUvarint(body, seq)
		body = binary.AppendUvarint(body, uint64(len(payload)))
		body = append(body, payload...)
	}
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestRestoreRejectsBrokenRing feeds restoreEnvelope rings that seq
// addressing cannot hold — a gap, a run that stops short of the cut, a
// run out of order — next to a well-formed one.
func TestRestoreRejectsBrokenRing(t *testing.T) {
	cfg := ckptTestConfig(t, t.TempDir())
	defer cfg.Listener.Close()
	cfg.Retain, cfg.QueueLimit = 8, 8 // New's defaults are not applied here
	s := &Server{cfg: cfg}
	for _, tc := range []struct {
		name string
		cut  uint64
		seqs []uint64
		ok   bool
	}{
		{"contiguous", 5, []uint64{3, 4, 5}, true},
		{"empty", 5, nil, true},
		{"gap", 5, []uint64{3, 5}, false},
		{"short of the cut", 6, []uint64{3, 4, 5}, false},
		{"descending", 5, []uint64{5, 4}, false},
	} {
		p, err := s.newPack()
		if err != nil {
			t.Fatal(err)
		}
		h := p.hubs[ckptTestQuery]
		reg, _ := p.d.Get(ckptTestQuery)
		out := reg.OutputSchema()
		vals := make([]stream.Value, out.Arity())
		for i := range vals {
			switch out.Attr(i).Kind {
			case stream.KindInt:
				vals[i] = stream.Int(7)
			case stream.KindFloat:
				vals[i] = stream.Float(7)
			default:
				vals[i] = stream.Str("x")
			}
		}
		elem := stream.TupleElement(stream.NewTuple(vals...))
		_, _, err = s.restoreEnvelope(p, ringEnvelope(t, h, tc.cut, tc.seqs, elem))
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.ok:
			if floor, next := h.ring.floor(), h.ring.next; next != tc.cut+1 || floor != next-uint64(len(tc.seqs)) {
				t.Errorf("%s: restored ring is [%d, %d), want %d entries ending at %d", tc.name, floor, next, len(tc.seqs), tc.cut)
			}
		case !errors.Is(err, ErrCorruptServerCheckpoint) || !strings.Contains(err.Error(), "retained entry seq"):
			t.Errorf("%s: got %v, want ErrCorruptServerCheckpoint (retained entry seq)", tc.name, err)
		}
	}
}

// TestRestoreRejectsOrderedPatternOnString: a retained entry whose
// punctuation carries the "<=" slot on a string attribute — a pattern the
// data model cannot hold — is a corrupt checkpoint, not a panic.
func TestRestoreRejectsOrderedPatternOnString(t *testing.T) {
	cfg := ckptTestConfig(t, t.TempDir())
	defer cfg.Listener.Close()
	cfg.Retain, cfg.QueueLimit = 8, 8
	s := &Server{cfg: cfg}
	p, err := s.newPack()
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := p.d.Get(ckptTestQuery)
	out := reg.OutputSchema()
	payload := []byte{1} // punctuation
	hostile := false
	for i := 0; i < out.Arity(); i++ {
		if out.Attr(i).Kind == stream.KindString && !hostile {
			payload = append(payload, 2, 1, 'x') // "<=" slot, string "x"
			hostile = true
		} else {
			payload = append(payload, 0) // "*"
		}
	}
	if !hostile {
		t.Fatal("the auction output has no string attribute")
	}
	_, _, err = s.restoreEnvelope(p, ringEnvelopeOf(p.hubs[ckptTestQuery], 1, []uint64{1}, payload))
	if !errors.Is(err, ErrCorruptServerCheckpoint) || !strings.Contains(err.Error(), "retained entry element") {
		t.Fatalf("got %v, want ErrCorruptServerCheckpoint (retained entry element)", err)
	}
}
