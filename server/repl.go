package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// Replication feed, primary side.
//
// The feed is a record stream appended in the engine's ingress order
// (the ingest tap fires inside each commit's critical section, so
// append order IS the order the runtime saw the data):
//
//	0x01 frame:   srcLen src startOffset frameLen frameBytes
//	              — one committed wire-ingest batch; the bytes occupy
//	              [startOffset, startOffset+frameLen) on that source.
//	0x02 barrier: n { srcLen src offset }
//	              — the primary checkpointed at this per-source cut;
//	              the standby checkpoints locally and acks.
//	0x03 end:     the primary shut down gracefully; the stream is
//	              complete (a missing end record means primary loss).
//
// The standby replies with ack records on the same connection:
//
//	n { srcLen src offset }
//
// naming the offsets it has made durable. The primary holds producer
// acks down to the minimum acked floor across attached standbys.
const (
	recFrame   = 0x01
	recBarrier = 0x02
	recEnd     = 0x03
)

// replSender is one attached standby's view of the feed: a cursor into
// the log and the offsets it has acked.
type replSender struct {
	pos   int64 // next feed byte to send
	acked map[string]int64
	gone  bool // evicted (lagged past the buffer bound) or detached
}

// replLog is the bounded in-memory replication backlog. Appends happen
// on the ingest hot path (under the runtime's tap serialization), so
// they are dropped — O(1) — while no standby is attached.
type replLog struct {
	maxBuf int

	mu      sync.Mutex
	cond    *sync.Cond
	buf     []byte
	base    int64 // feed position of buf[0]
	closed  bool
	senders map[*replSender]struct{}
}

func newReplLog(maxBuf int) *replLog {
	l := &replLog{maxBuf: maxBuf, senders: make(map[*replSender]struct{})}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// appendFrame is the engine's IngestTap: one committed batch of raw
// wire frames, in ingress order.
func (l *replLog) appendFrame(source string, frames []byte, start, end int64) {
	rec := make([]byte, 0, len(frames)+len(source)+2+3*binary.MaxVarintLen64)
	rec = append(rec, recFrame)
	rec = binary.AppendUvarint(rec, uint64(len(source)))
	rec = append(rec, source...)
	rec = binary.AppendUvarint(rec, uint64(start))
	rec = binary.AppendUvarint(rec, uint64(len(frames)))
	rec = append(rec, frames...)
	l.append(rec)
}

// appendBarrier records a completed primary checkpoint at the given
// per-source cut.
func (l *replLog) appendBarrier(offsets map[string]int64) {
	rec := append([]byte{recBarrier}, binary.AppendUvarint(nil, uint64(len(offsets)))...)
	for _, src := range sortedKeys(offsets) {
		rec = binary.AppendUvarint(rec, uint64(len(src)))
		rec = append(rec, src...)
		rec = binary.AppendUvarint(rec, uint64(offsets[src]))
	}
	l.append(rec)
}

func (l *replLog) appendEnd() { l.append([]byte{recEnd}) }

func (l *replLog) append(rec []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || len(l.senders) == 0 {
		return // nobody attached: feed positions simply don't advance
	}
	l.buf = append(l.buf, rec...)
	// Bound the backlog: trim bytes every live sender has consumed,
	// then evict the most-lagging sender until the rest fits. An
	// evicted standby reconnects and re-seeds from a fresh snapshot.
	for len(l.buf) > l.maxBuf {
		min := l.base + int64(len(l.buf))
		var worst *replSender
		for s := range l.senders {
			if s.gone {
				continue
			}
			if s.pos < min {
				min = s.pos
			}
			if worst == nil || s.pos < worst.pos {
				worst = s
			}
		}
		if trim := min - l.base; trim > 0 {
			l.buf = append(l.buf[:0], l.buf[trim:]...)
			l.base = min
			continue
		}
		if worst == nil {
			l.base += int64(len(l.buf))
			l.buf = l.buf[:0]
			break
		}
		worst.gone = true
	}
	l.cond.Broadcast()
}

// attach registers a standby at the current feed head. Attach happens
// BEFORE the snapshot is encoded, so records between attach and the
// snapshot cut duplicate snapshot state — the standby discards them by
// offset. There is never a gap.
func (l *replLog) attach() *replSender {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &replSender{pos: l.base + int64(len(l.buf)), acked: make(map[string]int64)}
	l.senders[s] = struct{}{}
	return s
}

func (l *replLog) detach(s *replSender) {
	l.mu.Lock()
	s.gone = true
	delete(l.senders, s)
	l.mu.Unlock()
	l.cond.Broadcast()
}

// ackFloor returns the minimum acked offset for source across attached
// standbys, and whether any standby is attached (no standby = no
// constraint on producer acks).
func (l *replLog) ackFloor(source string) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	floor, held := int64(0), false
	for s := range l.senders {
		if s.gone {
			continue
		}
		off := s.acked[source] // zero until first ack: hold everything
		if !held || off < floor {
			floor, held = off, true
		}
	}
	return floor, held
}

func (l *replLog) setAcked(s *replSender, offsets map[string]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for src, off := range offsets {
		if off > s.acked[src] {
			s.acked[src] = off
		}
	}
}

// pump streams the feed from the sender's cursor to the connection,
// returning when the sender is evicted, the log closes, or the write
// fails (conn closed by Kill/Shutdown or by the peer).
func (l *replLog) pump(s *replSender, c net.Conn) error {
	for {
		l.mu.Lock()
		for !s.gone && !l.closed && s.pos >= l.base+int64(len(l.buf)) {
			l.cond.Wait()
		}
		if s.gone || l.closed {
			l.mu.Unlock()
			return fmt.Errorf("server: replica feed ended")
		}
		if s.pos < l.base {
			// Evicted by a trim racing ahead of the gone flag.
			l.mu.Unlock()
			return fmt.Errorf("server: replica evicted (lagged past %d buffered bytes)", l.maxBuf)
		}
		chunk := append([]byte(nil), l.buf[s.pos-l.base:]...)
		l.mu.Unlock()
		if _, err := c.Write(chunk); err != nil {
			return err
		}
		l.mu.Lock()
		s.pos += int64(len(chunk))
		l.mu.Unlock()
		l.cond.Broadcast()
	}
}

// waitDrained blocks until every live sender has pumped the whole feed
// (graceful shutdown: the end record must reach the standbys), bounded
// by timeout.
func (l *replLog) waitDrained(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		l.mu.Lock()
		drained := true
		end := l.base + int64(len(l.buf))
		for s := range l.senders {
			if !s.gone && s.pos < end {
				drained = false
			}
		}
		l.mu.Unlock()
		if drained {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (l *replLog) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// serveReplica attaches one standby: cursor first, then a consistent
// snapshot (so the snapshot cut is always covered by cursor position),
// then the live feed. A second goroutine consumes the standby's ack
// records, which gate producer acks (see CheckpointNow).
func (s *Server) serveReplica(c net.Conn, br *bufio.Reader, h hello) {
	if s.repl == nil {
		s.reject(c, fmt.Errorf("server: replication not enabled"), "")
		return
	}
	if s.standby.Load() {
		s.reject(c, fmt.Errorf("%w: standby replicating %s", ErrNotPrimary, s.cfg.ReplicaOf), s.primaryRedirect())
		return
	}
	snd := s.repl.attach()
	defer s.repl.detach(snd)

	s.ckptMu.Lock()
	p := s.pack()
	var body []byte
	var err error
	if p == nil || p.rt == nil {
		err = fmt.Errorf("server: no runtime to snapshot")
	} else {
		body, _, err = s.encodeCheckpoint(p, nil)
	}
	s.ckptMu.Unlock()
	if err != nil {
		s.reject(c, fmt.Errorf("server: snapshot: %v", err), "")
		return
	}

	reply := appendOK(nil, s.epoch.Load())
	adv := s.advertise()
	reply = binary.AppendUvarint(reply, uint64(len(adv)))
	reply = append(reply, adv...)
	reply = binary.AppendUvarint(reply, uint64(len(body)))
	reply = append(reply, body...)
	if _, err := c.Write(reply); err != nil {
		s.dropConn(c)
		return
	}
	s.cfg.Logf("punctserve: standby attached (snapshot %d bytes, epoch %d)", len(body), s.epoch.Load())

	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			offsets, err := readAckRecord(br)
			if err != nil {
				c.Close() // ack side died: tear the feed down too
				return
			}
			s.repl.setAcked(snd, offsets)
		}
	}()

	if err := s.repl.pump(snd, c); err != nil && !s.teardownErr() {
		s.cfg.Logf("punctserve: standby detached: %v", err)
	}
	s.dropConn(c)
	<-ackDone
}

// readAckRecord parses one standby ack: n { srcLen src offset }.
func readAckRecord(br *bufio.Reader) (map[string]int64, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxHandshakeName {
		return nil, fmt.Errorf("server: ack source count %d out of range", n)
	}
	offsets := make(map[string]int64, n)
	for i := uint64(0); i < n; i++ {
		src, err := readShortString(br)
		if err != nil {
			return nil, err
		}
		off, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		offsets[src] = int64(off)
	}
	return offsets, nil
}

// appendAckRecord encodes a standby ack record.
func appendAckRecord(dst []byte, offsets map[string]int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(offsets)))
	for _, src := range sortedKeys(offsets) {
		dst = binary.AppendUvarint(dst, uint64(len(src)))
		dst = append(dst, src...)
		dst = binary.AppendUvarint(dst, uint64(offsets[src]))
	}
	return dst
}

// readFeedRecord parses one primary feed record, returning its type and
// (for frames) the source, start offset, and raw frame bytes, or (for
// barriers) the per-source cut.
type feedRecord struct {
	kind    byte
	source  string
	start   int64
	frames  []byte
	offsets map[string]int64
}

func readFeedRecord(br *bufio.Reader) (feedRecord, error) {
	var rec feedRecord
	kind, err := br.ReadByte()
	if err != nil {
		return rec, err
	}
	rec.kind = kind
	switch kind {
	case recFrame:
		if rec.source, err = readShortString(br); err != nil {
			return rec, fmt.Errorf("server: feed frame source: %w", err)
		}
		start, err := binary.ReadUvarint(br)
		if err != nil {
			return rec, fmt.Errorf("server: feed frame offset: %w", err)
		}
		rec.start = int64(start)
		if rec.frames, err = readLenBytes(br); err != nil {
			return rec, fmt.Errorf("server: feed frame bytes: %w", err)
		}
		return rec, nil
	case recBarrier:
		if rec.offsets, err = readAckRecord(br); err != nil {
			return rec, fmt.Errorf("server: feed barrier: %w", err)
		}
		return rec, nil
	case recEnd:
		return rec, nil
	default:
		return rec, fmt.Errorf("server: bad feed record type 0x%02x", kind)
	}
}
