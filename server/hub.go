package server

import (
	"encoding/binary"
	"fmt"
	"sync"

	"punctsafe/stream"
)

// SlowPolicy selects what the hub does with a subscriber whose pending
// backlog exceeds Config.QueueLimit.
type SlowPolicy int

const (
	// SlowBlock applies backpressure: delivery (and therefore the
	// query's worker) waits until the slow subscriber catches up or
	// disconnects. Zero loss, at the cost of coupling the pipeline to
	// its slowest consumer.
	SlowBlock SlowPolicy = iota
	// SlowDrop skips the oldest pending deliveries for that subscriber,
	// counting each skip in the runtime's dead-letter queue under the
	// query's name. The subscriber stays connected with gaps.
	SlowDrop
	// SlowDisconnect severs the slow subscriber; it may reconnect and
	// resume within the retention window.
	SlowDisconnect
)

func (p SlowPolicy) String() string {
	switch p {
	case SlowBlock:
		return "block"
	case SlowDrop:
		return "drop"
	case SlowDisconnect:
		return "disconnect"
	default:
		return fmt.Sprintf("SlowPolicy(%d)", int(p))
	}
}

// ParseSlowPolicy maps a CLI string to a policy.
func ParseSlowPolicy(s string) (SlowPolicy, error) {
	switch s {
	case "block":
		return SlowBlock, nil
	case "drop":
		return SlowDrop, nil
	case "disconnect":
		return SlowDisconnect, nil
	default:
		return SlowBlock, fmt.Errorf("unknown slow-consumer policy %q (block, drop, disconnect)", s)
	}
}

// subCursor is one subscriber's position in a hub: cursor is the next
// sequence it needs. The hub owns all fields under its mutex; the
// subscriber goroutine reads through hub methods only.
type subCursor struct {
	cursor  uint64
	dropped uint64 // deliveries skipped under SlowDrop
	err     error  // set when the hub severs the subscriber
}

// hub fans one query's delivery stream out to its subscribers. It
// encodes each delivery once, as the frame every subscriber is sent, and
// retains the last Config.Retain frames (the ring's capacity) so
// reconnecting subscribers can resume exactly where they left off. It is
// the unit the server checkpoint persists (frames at or below the
// checkpoint cut, copied as they are) so a crash cannot strand a lagging
// subscriber: everything the engine will not replay is in the snapshot,
// everything newer the engine replays deterministically with identical
// sequence numbers.
type hub struct {
	name  string
	codec *stream.Codec

	mu         sync.Mutex
	cond       *sync.Cond
	ring       ring   // retained delivery frames; ring.next is the next delivery's seq
	payload    []byte // publish's encoding scratch
	queueLimit int
	policy     SlowPolicy
	subs       map[*subCursor]struct{}
	ended      bool // graceful end-of-stream: drain then stop
	killed     bool // abrupt stop: unblock everything now

	// onDrop reports SlowDrop skips (outside the hub lock).
	onDrop func(query string, elem stream.Element, seq uint64)
}

func newHub(name string, schema *stream.Schema, retain, queueLimit int, policy SlowPolicy) *hub {
	h := &hub{
		name:       name,
		codec:      stream.NewCodec(schema),
		ring:       newRing(retain),
		queueLimit: queueLimit,
		policy:     policy,
		subs:       make(map[*subCursor]struct{}),
	}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// seed installs a restored retention ring: payloads are the encoded
// elements of the snapshot's retained deliveries, the contiguous run
// ending at cut (restoreEnvelope rejects anything else), and the next
// live delivery will be cut+1 — the engine's restored delivery counter
// guarantees the replayed outputs pick up numbering exactly there. A
// snapshot written under a larger Retain keeps its newest entries.
func (h *hub) seed(payloads [][]byte, cut uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	floor := cut + 1 - uint64(len(payloads))
	h.ring.reset(floor)
	for i, p := range payloads {
		h.ring.push(floor+uint64(i), p)
	}
}

// publish is the query's delivery hook: called by whatever goroutine
// drives the query, in delivery order, with the engine-assigned seq.
// Under SlowBlock it may wait for slow subscribers. It encodes e into
// the ring before it returns and keeps nothing of it, so e may be lent.
func (h *hub) publish(seq uint64, e stream.Element) {
	var drops []byte // frames skipped under SlowDrop
	h.mu.Lock()
	if seq < h.ring.next {
		// Replay below the restored cut: subscribers that survived the
		// crash already hold these entries via the snapshot seed.
		h.mu.Unlock()
		return
	}
	if h.policy == SlowBlock {
		for !h.killed && h.slowest() >= uint64(h.queueLimit) {
			h.cond.Wait()
		}
	}
	if h.killed {
		h.mu.Unlock()
		return
	}
	var err error
	if h.payload, err = h.codec.Encode(h.payload[:0], e); err != nil {
		h.mu.Unlock()
		panic(fmt.Errorf("%s: delivery %d does not fit the query's output schema: %w", h.name, seq, err))
	}
	switch h.policy {
	case SlowDrop:
		// Skipped before the push: with QueueLimit == Retain the oldest
		// skipped frame sits in the slot this delivery takes.
		for s := range h.subs {
			for lag(seq+1, s.cursor) > uint64(h.queueLimit) {
				if h.onDrop != nil {
					drops = append(drops, h.ring.at(s.cursor)...)
				}
				s.cursor++
				s.dropped++
			}
		}
	case SlowDisconnect:
		for s := range h.subs {
			if l := lag(seq+1, s.cursor); l > uint64(h.queueLimit) {
				s.err = fmt.Errorf("%s: subscriber lagged %d > %d deliveries", h.name, l, h.queueLimit)
				delete(h.subs, s)
			}
		}
	}
	h.ring.push(seq, h.payload)
	h.mu.Unlock()
	h.cond.Broadcast()
	for len(drops) > 0 {
		seq, payload, rest := splitFrame(drops)
		if elem, _, err := h.codec.Decode(payload); err == nil {
			h.onDrop(h.name, elem, seq)
		}
		drops = rest
	}
}

// lag is the pending backlog of a cursor. A cursor AHEAD of next is
// legal — after a crash-restore, a surviving subscriber waits out the
// engine's deterministic replay — and has zero backlog, not an
// underflowed one.
func lag(next, cursor uint64) uint64 {
	if cursor >= next {
		return 0
	}
	return next - cursor
}

// slowest returns the largest pending backlog across subscribers
// (callers hold h.mu).
func (h *hub) slowest() uint64 {
	var worst uint64
	for s := range h.subs {
		if l := lag(h.ring.next, s.cursor); l > worst {
			worst = l
		}
	}
	return worst
}

// attach registers a subscriber that has seen every delivery up to and
// including last. It fails with ErrResumeExpired when deliveries in
// (last, oldest-retained) are already gone. A cursor beyond the current
// head is legal: after a crash the engine replays deliveries the
// subscriber already saw, and the cursor simply waits them out.
func (h *hub) attach(last uint64) (*subCursor, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.killed || h.ended {
		return nil, ErrServerClosed
	}
	if floor := h.ring.floor(); last+1 < floor {
		return nil, fmt.Errorf("%w: resume at %d but oldest retained delivery is %d", ErrResumeExpired, last, floor)
	}
	s := &subCursor{cursor: last + 1}
	h.subs[s] = struct{}{}
	return s, nil
}

// detach removes a subscriber (idempotent) and wakes a blocked
// publisher that may have been waiting on it.
func (h *hub) detach(s *subCursor) {
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
	h.cond.Broadcast()
}

// collect waits for deliveries at or past s.cursor and appends up to max
// of their frames to buf, advancing the cursor: the bytes the subscriber
// is sent, back to back. It returns (frames, false, nil) on data, (nil,
// true, nil) at a graceful end of stream, and an error when the
// subscriber was severed or the hub killed.
func (h *hub) collect(s *subCursor, buf []byte, max int) ([]byte, bool, error) {
	h.mu.Lock()
	defer func() {
		h.mu.Unlock()
		h.cond.Broadcast() // cursor advanced: wake a blocked publisher
	}()
	for {
		if s.err != nil {
			return nil, false, s.err
		}
		if h.killed {
			return nil, false, ErrServerClosed
		}
		if next := h.ring.next; next > s.cursor {
			to := min(s.cursor+uint64(max), next)
			buf = h.ring.appendRange(buf, s.cursor, to)
			s.cursor = to
			return buf, false, nil
		}
		if h.ended {
			return nil, true, nil
		}
		h.cond.Wait()
	}
}

// end marks a graceful end of stream: subscribers drain what is
// retained, then receive the end marker.
func (h *hub) end() {
	h.mu.Lock()
	h.ended = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

// kill unblocks everything immediately (crash path).
func (h *hub) kill() {
	h.mu.Lock()
	h.killed = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

// drained reports whether every attached subscriber has consumed every
// published delivery (used by graceful shutdown to wait for the tail).
func (h *hub) drained() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.subs {
		if s.cursor < h.ring.next {
			return false
		}
	}
	return true
}

// snapshot appends the server checkpoint's record of the retained
// deliveries with seq ≤ cut to dst: their count, then their frames as
// they are. Deliveries above the cut are NOT persisted: the engine
// replays them deterministically after restore, with the same sequence
// numbers (the delivery counter is part of the engine snapshot).
func (h *hub) snapshot(dst []byte, cut uint64) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	from, to := h.ring.floor(), min(cut+1, h.ring.next)
	if to < from {
		to = from
	}
	dst = binary.AppendUvarint(dst, to-from)
	return h.ring.appendRange(dst, from, to)
}
