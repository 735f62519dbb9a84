package server

// White-box hub tests: the slow-consumer policies, the resume window
// and the retention ring's wrap-around arithmetic, deterministic and
// socket-free.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"punctsafe/stream"
)

func testSchema() *stream.Schema {
	return stream.MustSchema("out", stream.Attribute{Name: "v", Kind: stream.KindInt})
}

func intElem(v int64) stream.Element {
	return stream.TupleElement(stream.NewTuple(stream.Int(v)))
}

func publishN(h *hub, from, n int) {
	for i := 0; i < n; i++ {
		h.publish(uint64(from+i), intElem(int64(from+i)))
	}
}

// delivery is one frame read back: what a subscriber would decode.
type delivery struct {
	seq     uint64
	elem    stream.Element
	payload []byte
}

// decodeFrames parses frames laid back to back, as collect hands them out
// and snapshot persists them.
func decodeFrames(t *testing.T, h *hub, b []byte) []delivery {
	t.Helper()
	var out []delivery
	for len(b) > 0 {
		seq, payload, rest := splitFrame(b)
		elem, tail, err := h.codec.Decode(payload)
		if err != nil || len(tail) != 0 {
			t.Fatalf("frame %d of %d bytes does not decode: %v", seq, len(payload), err)
		}
		out = append(out, delivery{seq: seq, elem: elem, payload: payload})
		b = rest
	}
	return out
}

// collectN is collect with its frames decoded.
func collectN(t *testing.T, h *hub, s *subCursor, max int) ([]delivery, bool, error) {
	t.Helper()
	frames, ended, err := h.collect(s, nil, max)
	return decodeFrames(t, h, frames), ended, err
}

// snapshotOf is snapshot with its record decoded: the count it leads
// with must be the number of frames that follow.
func snapshotOf(t *testing.T, h *hub, cut uint64) []delivery {
	t.Helper()
	b := h.snapshot(nil, cut)
	n, k := binary.Uvarint(b)
	got := decodeFrames(t, h, b[k:])
	if uint64(len(got)) != n {
		t.Fatalf("snapshot(%d) counts %d deliveries and holds %d", cut, n, len(got))
	}
	return got
}

// payloads is what restoreEnvelope seeds a hub with.
func payloads(ds []delivery) [][]byte {
	out := make([][]byte, len(ds))
	for i, d := range ds {
		out[i] = d.payload
	}
	return out
}

// requireRun fails unless got is exactly the deliveries from..to, each
// carrying the element publishN gave that seq — a slot read at the wrong
// offset shows up as a mismatched value, not just a mismatched seq.
func requireRun(t *testing.T, label string, got []delivery, from, to uint64) {
	t.Helper()
	if want := int(to - from + 1); len(got) != want {
		t.Fatalf("%s: got %d entries, want seqs %d..%d", label, len(got), from, to)
	}
	for i, e := range got {
		seq := from + uint64(i)
		if v := e.elem.Tuple().Values[0].AsInt(); e.seq != seq || v != int64(seq) {
			t.Fatalf("%s: entry %d is seq %d value %d, want seq %d", label, i, e.seq, v, seq)
		}
	}
}

// TestHubRingWrap laps a ring whose capacity is not a power of two
// several times, with a subscriber collecting in uneven batches so the
// copied ranges start and end on every slot, wrapped and not.
func TestHubRingWrap(t *testing.T) {
	const retain = 7
	h := newHub("q", testSchema(), retain, retain, SlowDrop)
	s, err := h.attach(0)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(1) // next seq to publish
	want := uint64(1) // next seq the subscriber should see
	for round := 0; round < 5*retain; round++ {
		burst := 1 + round%retain
		publishN(h, int(next), burst)
		next += uint64(burst)
		if got, floor := h.ring.len(), h.ring.floor(); got > retain || floor != next-uint64(got) {
			t.Fatalf("round %d: ring holds %d entries from %d, head %d", round, got, floor, next-1)
		}
		for want < next {
			max := 1 + (round+int(want))%4
			got, ended, err := collectN(t, h, s, max)
			if err != nil || ended {
				t.Fatalf("collect: ended=%v err=%v", ended, err)
			}
			if len(got) == 0 || len(got) > max {
				t.Fatalf("collect returned %d entries, max %d", len(got), max)
			}
			requireRun(t, fmt.Sprintf("round %d", round), got, want, want+uint64(len(got))-1)
			want += uint64(len(got))
		}
	}
	if s.dropped != 0 {
		t.Fatalf("subscriber within its queue limit lost %d deliveries", s.dropped)
	}
}

// TestHubDropPolicy: a backlog of 30 over a limit of 4 or 8, over three
// laps of the ring: every delivery but the newest limit is dropped, each
// reported with the element it carried — also when the limit is the
// whole ring, and the oldest dropped frame shares its slot with the
// delivery that pushed it out.
func TestHubDropPolicy(t *testing.T) {
	for _, limit := range []int{4, 8} {
		var dropped []delivery
		h := newHub("q", testSchema(), 8, limit, SlowDrop)
		h.onDrop = func(query string, elem stream.Element, seq uint64) {
			dropped = append(dropped, delivery{seq: seq, elem: elem})
		}
		s, err := h.attach(0)
		if err != nil {
			t.Fatal(err)
		}
		publishN(h, 1, 30)
		last := uint64(30 - limit)
		requireRun(t, fmt.Sprintf("limit %d: dropped", limit), dropped, 1, last)
		got, ended, err := collectN(t, h, s, 100)
		if err != nil || ended {
			t.Fatalf("collect: ended=%v err=%v", ended, err)
		}
		requireRun(t, fmt.Sprintf("limit %d: surviving", limit), got, last+1, 30)
		if s.dropped != last {
			t.Fatalf("limit %d: cursor counted %d drops, want %d", limit, s.dropped, last)
		}
	}
}

func TestHubDisconnectPolicy(t *testing.T) {
	h := newHub("q", testSchema(), 8, 4, SlowDisconnect)
	s, err := h.attach(0)
	if err != nil {
		t.Fatal(err)
	}
	publishN(h, 1, 6)
	if _, _, err := h.collect(s, nil, 100); err == nil {
		t.Fatal("lagging subscriber was not severed")
	}
}

func TestHubBlockPolicy(t *testing.T) {
	h := newHub("q", testSchema(), 8, 4, SlowBlock)
	s, err := h.attach(0)
	if err != nil {
		t.Fatal(err)
	}
	publishN(h, 1, 4) // exactly at the limit: publisher not yet blocked
	blocked := make(chan struct{})
	go func() {
		h.publish(5, intElem(5)) // backlog would exceed 4: must wait
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("publisher did not block on a full subscriber backlog")
	case <-time.After(20 * time.Millisecond):
	}
	if _, _, err := h.collect(s, nil, 100); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("publisher still blocked after the subscriber caught up")
	}
	// Detach must also unblock a waiting publisher.
	publishN(h, 6, 3)
	blocked2 := make(chan struct{})
	go func() {
		h.publish(9, intElem(9))
		close(blocked2)
	}()
	h.detach(s)
	select {
	case <-blocked2:
	case <-time.After(2 * time.Second):
		t.Fatal("publisher still blocked after the slow subscriber detached")
	}
}

// TestHubBlockBound pins SlowBlock's decision with three subscribers:
// (a) the slowest detaches while the publisher is blocked on it, and the
// publisher proceeds; (b) a subscriber attaches behind the others, and
// the publisher blocks on it until it catches up. The hub walks its
// subscribers only when a lower bound on their cursors allows a full
// backlog, so (b) fails if attach does not lower the bound that (a)'s
// walk raised.
func TestHubBlockBound(t *testing.T) {
	h := newHub("q", testSchema(), 16, 4, SlowBlock)
	var subs [3]*subCursor
	for i := range subs {
		var err error
		if subs[i], err = h.attach(0); err != nil {
			t.Fatal(err)
		}
	}
	// publishBlocked publishes seq on its own goroutine and requires it
	// to wait; the returned channel is closed once it has published.
	publishBlocked := func(label string, seq uint64) <-chan struct{} {
		published := make(chan struct{})
		go func() {
			h.publish(seq, intElem(int64(seq)))
			close(published)
		}()
		select {
		case <-published:
			t.Fatalf("%s: delivery %d was published past a full backlog", label, seq)
		case <-time.After(20 * time.Millisecond):
		}
		return published
	}
	requirePublished := func(label string, published <-chan struct{}) {
		select {
		case <-published:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: publisher still blocked", label)
		}
	}

	publishN(h, 1, 4)
	for _, s := range subs[:2] {
		if _, _, err := h.collect(s, nil, 100); err != nil {
			t.Fatal(err)
		}
	}
	published := publishBlocked("third subscriber 4 behind", 5)
	h.detach(subs[2])
	requirePublished("after the slowest subscriber detached", published)

	late, err := h.attach(1) // cursor 2, behind the others' 5
	if err != nil {
		t.Fatal(err)
	}
	published = publishBlocked("late subscriber 4 behind", 6)
	got, _, err := collectN(t, h, late, 100)
	if err != nil {
		t.Fatal(err)
	}
	requireRun(t, "late subscriber", got, 2, 5)
	requirePublished("after the late subscriber caught up", published)
}

func TestHubResumeWindow(t *testing.T) {
	h := newHub("q", testSchema(), 4, 4, SlowDrop)
	publishN(h, 1, 10) // retained: 7..10
	// 5 is floor-2: delivery 6 is already gone.
	for _, last := range []uint64{2, 5} {
		if _, err := h.attach(last); !errors.Is(err, ErrResumeExpired) {
			t.Fatalf("resume at %d, below the retention floor: got %v, want ErrResumeExpired", last, err)
		}
	}
	s, err := h.attach(6) // cursor 7 == floor: exactly resumable
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := collectN(t, h, s, 100)
	if err != nil || len(got) != 4 || got[0].seq != 7 {
		t.Fatalf("resume at floor: got %v err %v", got, err)
	}
	// A cursor ahead of the head (post-restore replay wait) is legal
	// and has zero backlog.
	ahead, err := h.attach(25)
	if err != nil {
		t.Fatalf("attach ahead of head: %v", err)
	}
	publishN(h, 11, 2) // replayed deliveries below the ahead cursor
	done := make(chan struct{})
	go func() {
		h.collect(ahead, nil, 1)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("ahead cursor returned deliveries it already saw")
	case <-time.After(20 * time.Millisecond):
	}
	h.kill()
	<-done
}

// TestHubSnapshotBounds takes the checkpoint cut below the floor, inside
// the retained run and above the head of a wrapped ring.
func TestHubSnapshotBounds(t *testing.T) {
	h := newHub("q", testSchema(), 7, 4, SlowDrop)
	publishN(h, 1, 17) // retained: 11..17, wrapped
	if snap := snapshotOf(t, h, 10); len(snap) != 0 {
		t.Fatalf("snapshot below the floor = %v, want nothing", snap)
	}
	requireRun(t, "snapshot(floor)", snapshotOf(t, h, 11), 11, 11)
	requireRun(t, "snapshot(inside)", snapshotOf(t, h, 14), 11, 14)
	requireRun(t, "snapshot(head)", snapshotOf(t, h, 17), 11, 17)
	requireRun(t, "snapshot(above head)", snapshotOf(t, h, 40), 11, 17)
	if snap := snapshotOf(t, newHub("q", testSchema(), 7, 4, SlowDrop), 3); len(snap) != 0 {
		t.Fatalf("snapshot of an empty hub = %v", snap)
	}
}

// TestHubSeedRoundTrip restores a wrapped ring's snapshot into a fresh
// hub and continues publishing at cut+1, across the next wrap.
func TestHubSeedRoundTrip(t *testing.T) {
	h := newHub("q", testSchema(), 7, 4, SlowDrop)
	publishN(h, 1, 19) // retained: 13..19
	snap := snapshotOf(t, h, 16)

	h2 := newHub("q", testSchema(), 7, 7, SlowDrop)
	h2.seed(payloads(snap), 16)
	if _, err := h2.attach(11); !errors.Is(err, ErrResumeExpired) {
		t.Fatalf("resume below the seeded floor: got %v, want ErrResumeExpired", err)
	}
	s, err := h2.attach(12) // floor-1
	if err != nil {
		t.Fatal(err)
	}
	publishN(h2, 15, 2) // engine replay at or below the cut: ignored
	publishN(h2, 17, 3) // 13..19 now fills all seven slots
	got, _, err := collectN(t, h2, s, 100)
	if err != nil {
		t.Fatal(err)
	}
	requireRun(t, "post-seed", got, 13, 19)
	publishN(h2, 20, 5) // wraps past the seeded entries
	got, _, err = collectN(t, h2, s, 100)
	if err != nil {
		t.Fatal(err)
	}
	requireRun(t, "post-seed wrap", got, 20, 24)
	requireRun(t, "post-seed ring", snapshotOf(t, h2, 24), 18, 24)
}

// TestHubSeedShrunkRetain seeds more entries than the hub retains (the
// server restarted with a smaller Retain): the newest survive and the
// resume floor follows them.
func TestHubSeedShrunkRetain(t *testing.T) {
	h := newHub("q", testSchema(), 16, 4, SlowDrop)
	publishN(h, 1, 20) // retained: 5..20
	snap := snapshotOf(t, h, 20)

	h2 := newHub("q", testSchema(), 5, 5, SlowDrop)
	h2.seed(payloads(snap), 20)
	requireRun(t, "seeded ring", snapshotOf(t, h2, 20), 16, 20)
	if _, err := h2.attach(14); !errors.Is(err, ErrResumeExpired) {
		t.Fatalf("resume hint older than the shrunk ring: got %v, want ErrResumeExpired", err)
	}
	s, err := h2.attach(15)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := collectN(t, h2, s, 100)
	if err != nil {
		t.Fatal(err)
	}
	requireRun(t, "after shrink", got, 16, 20)
	publishN(h2, 21, 2)
	if got, _, err = collectN(t, h2, s, 100); err != nil {
		t.Fatal(err)
	}
	requireRun(t, "after shrink, live", got, 21, 22)

	// Nothing retained at the cut: the hub is empty and resumes at cut+1.
	h3 := newHub("q", testSchema(), 5, 4, SlowDrop)
	h3.seed(nil, 9)
	if _, err := h3.attach(8); !errors.Is(err, ErrResumeExpired) {
		t.Fatalf("resume below an empty seeded hub: got %v, want ErrResumeExpired", err)
	}
	if _, err := h3.attach(9); err != nil {
		t.Fatal(err)
	}
}

// TestHubPublishAllocs pins the steady-state cost of a delivery: one
// encoding into bytes the ring already holds, no allocation, whatever the
// ring holds. The element is encoded before publish returns, so one
// overwritten after it (as a lent result tuple is) changes nothing.
func TestHubPublishAllocs(t *testing.T) {
	h := newHub("q", testSchema(), 64, 64, SlowDrop)
	publishN(h, 1, 200) // full and wrapped
	seq, e := uint64(201), intElem(7)
	if n := testing.AllocsPerRun(1000, func() {
		h.publish(seq, e)
		seq++
	}); n != 0 {
		t.Fatalf("publish allocates %v times per delivery, want 0", n)
	}
	vals := e.Tuple().Values
	vals[0] = stream.Int(int64(seq))
	h.publish(seq, e)
	vals[0] = stream.Int(-1)
	requireRun(t, "after the lender overwrote", snapshotOf(t, h, seq)[63:], seq, seq)
}

// BenchmarkHubPublish is the per-delivery cost on the shard worker with
// no subscriber attached. It must not depend on Retain.
func BenchmarkHubPublish(b *testing.B) {
	for _, retain := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("retain=%d", retain), func(b *testing.B) {
			h := newHub("q", testSchema(), retain, retain, SlowBlock)
			publishN(h, 1, 2*retain)
			seq, e := uint64(2*retain+1), intElem(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.publish(seq, e)
				seq++
			}
		})
	}
}

func TestHubSnapshotCut(t *testing.T) {
	h := newHub("q", testSchema(), 16, 8, SlowDrop)
	publishN(h, 1, 10)
	snap := snapshotOf(t, h, 7)
	if len(snap) != 7 || snap[0].seq != 1 || snap[6].seq != 7 {
		t.Fatalf("snapshot(7) = %v, want seqs 1..7", snap)
	}
	// Seeding a fresh hub resumes numbering at the cut.
	h2 := newHub("q", testSchema(), 16, 8, SlowDrop)
	h2.seed(payloads(snap), 7)
	s, err := h2.attach(5)
	if err != nil {
		t.Fatal(err)
	}
	h2.publish(8, intElem(8)) // engine replay continues at cut+1
	got, _, err := collectN(t, h2, s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].seq != 6 || got[2].seq != 8 {
		t.Fatalf("post-seed collect = %v, want seqs 6..8", got)
	}
}
