package server

import "encoding/binary"

// ring is a fixed-capacity, seq-addressed circular log of deliveries,
// each kept as the wire frame a subscriber is sent and a checkpoint
// persists — uvarint(seq) uvarint(len) payload, the payload being the
// element's stream.Codec encoding — so a delivery is encoded once however
// many times it is read. The delivery with sequence number seq lives in
// slot seq % cap, and the retained deliveries are always the one
// contiguous run [floor(), next). Pushing costs one frame copy into the
// slot's own bytes, which it keeps for the next lap; once full, each push
// overwrites the oldest delivery. Not safe for concurrent use — the owner
// (the hub) serializes access.
type ring struct {
	buf  [][]byte // one frame per slot, allocated once, len == capacity
	next uint64   // seq the next push is expected to carry
	n    int      // retained deliveries, ≤ len(buf)
}

// newRing returns an empty ring of the given capacity whose first push
// is expected at seq 1.
func newRing(capacity int) ring {
	return ring{buf: make([][]byte, capacity), next: 1}
}

func (r *ring) len() int { return r.n }

// floor is the oldest retained seq (== next when the ring is empty).
func (r *ring) floor() uint64 { return r.next - uint64(r.n) }

// reset empties the ring; the next push is expected at seq next.
func (r *ring) reset(next uint64) {
	r.next, r.n = next, 0
}

// push retains the delivery seq whose encoded element is payload. A seq
// that is not the successor of the last push starts a new run (what was
// retained is forgotten), so slot addressing never sees a gap.
func (r *ring) push(seq uint64, payload []byte) {
	if seq != r.next {
		r.n = 0
	}
	i := seq % uint64(len(r.buf))
	frame := binary.AppendUvarint(r.buf[i][:0], seq)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	r.buf[i] = append(frame, payload...)
	r.next = seq + 1
	if r.n < len(r.buf) {
		r.n++
	}
}

// at returns the retained frame with the given seq, which the next push
// into its slot overwrites; callers guarantee floor() ≤ seq < next.
func (r *ring) at(seq uint64) []byte {
	return r.buf[seq%uint64(len(r.buf))]
}

// appendRange appends the frames with seq in [from, to) to dst, back to
// back. Callers guarantee floor() ≤ from ≤ to ≤ next.
func (r *ring) appendRange(dst []byte, from, to uint64) []byte {
	for seq := from; seq < to; seq++ {
		dst = append(dst, r.at(seq)...)
	}
	return dst
}

// splitFrame parses the frame at the front of b, returning its seq, its
// payload and the bytes after it.
func splitFrame(b []byte) (seq uint64, payload, rest []byte) {
	seq, k := binary.Uvarint(b)
	n, l := binary.Uvarint(b[k:])
	b = b[k+l:]
	return seq, b[:n], b[n:]
}
