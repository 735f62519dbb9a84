package server

import "punctsafe/stream"

// hubEntry is one retained delivery: the query output (tuple or
// punctuation) and its 1-based delivery sequence number.
type hubEntry struct {
	seq  uint64
	elem stream.Element
}

// ring is a fixed-capacity, seq-addressed circular log of deliveries:
// the entry with sequence number seq lives in slot seq % cap, and the
// retained entries are always the one contiguous run [floor(), next).
// Pushing costs one slot write whatever the capacity; once full, each
// push overwrites the oldest entry. Not safe for concurrent use — the
// owner (the hub) serializes access.
type ring struct {
	buf  []hubEntry // allocated once, len == capacity
	next uint64     // seq the next push is expected to carry
	n    int        // retained entries, ≤ len(buf)
}

// newRing returns an empty ring of the given capacity whose first push
// is expected at seq 1.
func newRing(capacity int) ring {
	return ring{buf: make([]hubEntry, capacity), next: 1}
}

func (r *ring) len() int { return r.n }

// floor is the oldest retained seq (== next when the ring is empty).
func (r *ring) floor() uint64 { return r.next - uint64(r.n) }

// reset empties the ring; the next push is expected at seq next.
func (r *ring) reset(next uint64) {
	r.next, r.n = next, 0
}

// push retains e under seq. A seq that is not the successor of the last
// push starts a new run (what was retained is forgotten), so slot
// addressing never sees a gap.
func (r *ring) push(seq uint64, e stream.Element) {
	if seq != r.next {
		r.n = 0
	}
	r.buf[seq%uint64(len(r.buf))] = hubEntry{seq: seq, elem: e}
	r.next = seq + 1
	if r.n < len(r.buf) {
		r.n++
	}
}

// at returns the retained element with the given seq; callers guarantee
// floor() ≤ seq < next.
func (r *ring) at(seq uint64) stream.Element {
	return r.buf[seq%uint64(len(r.buf))].elem
}

// appendRange appends the entries with seq in [from, to) to dst, in at
// most two copies (the range may wrap past the last slot). Callers
// guarantee floor() ≤ from ≤ to ≤ next.
func (r *ring) appendRange(dst []hubEntry, from, to uint64) []hubEntry {
	i, n := int(from%uint64(len(r.buf))), int(to-from)
	if tail := len(r.buf) - i; n > tail {
		dst = append(dst, r.buf[i:]...)
		i, n = 0, n-tail
	}
	return append(dst, r.buf[i:i+n]...)
}
