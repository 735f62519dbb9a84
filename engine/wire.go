package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"punctsafe/stream"
)

// The wire format carries multiplexed stream elements from the
// application environment into the input manager (Figure 2):
//
//	frame = uvarint(len(streamName)) streamName uvarint(len(payload)) payload
//
// where payload is the stream.Codec encoding of one element against the
// stream's schema.

// Wire limits: a frame whose declared lengths exceed these is corrupt by
// definition (no legitimate stream name or element comes close).
const (
	maxWireNameLen    = 1 << 16
	maxWirePayloadLen = 1 << 24
)

// WireWriter encodes tagged elements for transmission.
type WireWriter struct {
	w       io.Writer
	streams map[string]wireOut
	// buf holds the element encoding and frame the assembled frame; both
	// are the writer's own scratch, reused by every Write.
	buf, frame []byte
}

// wireOut is one stream's codec with its constant frame head,
// uvarint(len(streamName)) streamName.
type wireOut struct {
	codec *stream.Codec
	head  []byte
}

// NewWireWriter builds a writer for the given stream schemas.
func NewWireWriter(w io.Writer, schemas ...*stream.Schema) *WireWriter {
	ww := &WireWriter{w: w, streams: make(map[string]wireOut, len(schemas))}
	for _, sc := range schemas {
		head := binary.AppendUvarint(nil, uint64(len(sc.Name())))
		ww.streams[sc.Name()] = wireOut{codec: stream.NewCodec(sc), head: append(head, sc.Name()...)}
	}
	return ww
}

// Write encodes one element of the named stream and hands the frame to
// the underlying writer in one call.
func (ww *WireWriter) Write(streamName string, e stream.Element) error {
	out, ok := ww.streams[streamName]
	if !ok {
		return fmt.Errorf("engine: wire writer has no schema for stream %q", streamName)
	}
	payload, err := out.codec.Encode(ww.buf[:0], e)
	if err != nil {
		return err
	}
	ww.buf = payload[:0]
	ww.frame = append(ww.frame[:0], out.head...)
	ww.frame = binary.AppendUvarint(ww.frame, uint64(len(payload)))
	ww.frame = append(ww.frame, payload...)
	_, err = ww.w.Write(ww.frame)
	return err
}

// WireFault describes one corrupt region of the wire a lenient reader
// skipped: either a whole frame whose boundary was parseable (Frame holds
// its raw bytes), or a run of unframeable bytes the reader scanned past
// to resynchronize (Frame is nil).
type WireFault struct {
	// Stream names the frame's stream when the header decoded ("" when
	// the damage hid even that).
	Stream string
	// Offset is the byte offset of the skipped region in the wire.
	Offset int64
	// Skipped is the region's length in bytes.
	Skipped int
	// Frame holds the corrupt frame's raw bytes when its boundary was
	// known; nil for resync scans.
	Frame []byte
	// Err is the decode error that condemned the region.
	Err error
}

// wireStream pairs a stream's canonical name with its codec so frame
// parsing can intern names without allocating per frame.
type wireStream struct {
	name  string
	codec *stream.Codec
	arity int
}

// wireCorruption classifies a parse failure as data damage (as opposed to
// an underlying reader error). frameLen > 0 means the frame's boundary is
// known and the lenient reader can skip it as a unit; frameLen == 0 means
// the framing itself is broken and the reader must scan to resync.
type wireCorruption struct {
	err      error
	frameLen int
	stream   string
}

func (c *wireCorruption) Error() string { return c.err.Error() }
func (c *wireCorruption) Unwrap() error { return c.err }

// TaggedElement is one element of a named stream, as delivered to the
// input manager by the application environment (Figure 2).
type TaggedElement struct {
	Stream string
	Elem   stream.Element
}

// WireReader decodes frames from a multiplexed element stream. It is the
// shared front half of the ingestion paths: DSMS.IngestWire drains it
// into the sequential Push, Runtime.ingestWire into the sharded router.
//
// The reader parses out of a single reusable window buffer: stream names
// are interned and payloads are decoded in place, so steady-state reading
// does not allocate per frame beyond what the decoded element itself
// needs.
type WireReader struct {
	r       io.Reader
	streams map[string]wireStream

	lenient bool
	onFault func(WireFault)

	buf   []byte
	pos   int   // start of unconsumed bytes in buf
	fill  int   // end of valid bytes in buf
	base  int64 // wire offset of buf[0]
	rdErr error // sticky terminal error from r (including io.EOF)
	empty int   // consecutive zero-byte, nil-error reads from r
}

const wireReadChunk = 32 * 1024

// ErrWouldBlock is a transient signal a transport reader may return
// (with zero bytes) to mean "everything available so far has been
// consumed; the next read will block". Unlike every other reader error
// it is NOT latched: the WireReader surfaces it to its caller — which
// can commit partial progress, as Runtime.ingestWire does at these
// drained-pipeline boundaries — and the next Read continues where the
// parse left off.
var ErrWouldBlock = errors.New("engine: wire read would block")

// NewWireReader builds a strict reader for the given stream schemas (the
// streams the wire may carry): the first corrupt frame fails the read, as
// Read documents.
func NewWireReader(r io.Reader, schemas ...*stream.Schema) *WireReader {
	wr := &WireReader{r: r, streams: make(map[string]wireStream, len(schemas))}
	for _, sc := range schemas {
		wr.streams[sc.Name()] = wireStream{name: sc.Name(), codec: stream.NewCodec(sc), arity: sc.Arity()}
	}
	return wr
}

// Lenient switches the reader into skip-and-resync mode: corrupt frames
// and unframeable byte runs are skipped (reported to onFault, which may
// be nil) and Read keeps going until the next good frame or a clean EOF.
// A truncated final frame is reported as one fault. Returns the reader.
func (wr *WireReader) Lenient(onFault func(WireFault)) *WireReader {
	wr.lenient = true
	wr.onFault = onFault
	return wr
}

// Read decodes the next frame. It returns io.EOF at a clean end of input.
// In strict mode (the default) any corrupt frame fails the read; in
// Lenient mode corrupt regions are skipped and reported instead. The
// element is the caller's: a tuple's values are its own, whatever the
// reader reads next.
func (wr *WireReader) Read() (TaggedElement, error) {
	return wr.read(nil)
}

// read is Read decoding a tuple's values, when lend is non-nil, into the
// spare capacity of *lend (grown when short) and extending *lend by them:
// the tuple is valid while the caller leaves those values in place.
func (wr *WireReader) read(lend *[]stream.Value) (TaggedElement, error) {
	for {
		ws, payload, frameLen, err := wr.readRaw()
		if err != nil {
			return TaggedElement{}, err
		}
		e, derr := decodeWireFrame(ws, payload, lend)
		if derr == nil {
			wr.pos += frameLen
			return TaggedElement{Stream: ws.name, Elem: e}, nil
		}
		// Payload damage: the frame's boundary is known, so the lenient
		// reader skips it whole.
		if !wr.lenient {
			return TaggedElement{}, fmt.Errorf("engine: wire: %w", derr)
		}
		wr.skipFrame(ws.name, frameLen, derr)
	}
}

// skipFrame reports a boundary-known corrupt frame as one fault and
// consumes it.
func (wr *WireReader) skipFrame(streamName string, frameLen int, err error) {
	frame := append([]byte(nil), wr.buf[wr.pos:wr.pos+frameLen]...)
	wr.fault(WireFault{
		Stream:  streamName,
		Offset:  wr.base + int64(wr.pos),
		Skipped: frameLen,
		Frame:   frame,
		Err:     fmt.Errorf("engine: wire: %w", err),
	})
	wr.pos += frameLen
}

// readRaw scans to the next well-framed frame of a known stream without
// consuming or decoding it, returning the stream, the payload view into
// the window (valid until the next readRaw or compact) and the frame's
// byte length; the caller consumes by advancing wr.pos. Framing-level
// damage — bad varints, absurd lengths, unknown streams, truncation — is
// skipped and reported here under Lenient; payload damage is the
// caller's concern. Returns io.EOF at a clean end of input.
func (wr *WireReader) readRaw() (wireStream, []byte, int, error) {
	var zero wireStream
	var scanStart int64
	var scanErr error
	scanned := 0
	flushScan := func() {
		if scanned > 0 {
			wr.fault(WireFault{Offset: scanStart, Skipped: scanned, Err: scanErr})
			scanned = 0
		}
	}
	for {
		wr.compact()
		ws, payload, frameLen, err := wr.parseRawFrame()
		if err == nil {
			flushScan()
			return ws, payload, frameLen, nil
		}
		if err == io.EOF {
			flushScan()
			return zero, nil, 0, io.EOF
		}
		var c *wireCorruption
		if !errors.As(err, &c) {
			// Underlying reader failure: not data damage, always fatal at
			// this layer. Reconnecting is the caller's job.
			return zero, nil, 0, fmt.Errorf("engine: wire: %w", err)
		}
		if !wr.lenient {
			return zero, nil, 0, fmt.Errorf("engine: wire: %w", c.err)
		}
		if c.frameLen > 0 {
			// The frame's boundary is known (unknown stream): skip whole.
			flushScan()
			wr.skipFrame(c.stream, c.frameLen, c.err)
			continue
		}
		// Framing broken (bad varint, absurd length, truncation): scan
		// forward one byte at a time until a frame parses again. The whole
		// skipped run is reported as one fault.
		if scanned == 0 {
			scanStart = wr.base + int64(wr.pos)
			scanErr = fmt.Errorf("engine: wire: %w", c.err)
		}
		wr.pos++
		scanned++
	}
}

// Offset returns the absolute wire offset of the next unconsumed byte:
// after a successful Read, the end of the frame just returned. Resumable
// ingestion (IngestWireResume) commits this as the source's resume
// position.
func (wr *WireReader) Offset() int64 {
	return wr.base + int64(wr.pos)
}

func (wr *WireReader) fault(f WireFault) {
	if wr.onFault != nil {
		wr.onFault(f)
	}
}

// compact discards consumed bytes so the window can be refilled in place.
// Compacting on every Read would memmove the rest of the window once per
// frame; instead it waits until the window is fully consumed (a free
// cursor reset) or the consumed prefix covers half the buffer, so at most
// two bytes move per byte consumed and small frames parse with no copying
// at all.
func (wr *WireReader) compact() {
	if wr.pos == 0 || (wr.pos < wr.fill && wr.pos < len(wr.buf)/2) {
		return
	}
	copy(wr.buf, wr.buf[wr.pos:wr.fill])
	wr.base += int64(wr.pos)
	wr.fill -= wr.pos
	wr.pos = 0
}

// fillMore reads more bytes from r into the window without moving the
// unconsumed region (parse indexes stay valid), growing the buffer when
// full. It returns the sticky terminal error once the source is drained.
func (wr *WireReader) fillMore() error {
	if wr.rdErr != nil {
		return wr.rdErr
	}
	if wr.fill == len(wr.buf) {
		grow := len(wr.buf) * 2
		if grow < wireReadChunk {
			grow = wireReadChunk
		}
		nb := make([]byte, grow)
		copy(nb, wr.buf[:wr.fill])
		wr.buf = nb
	}
	n, err := wr.r.Read(wr.buf[wr.fill:])
	wr.fill += n
	if err != nil {
		if err == ErrWouldBlock && n == 0 {
			return err // transient, not latched: the caller may retry
		}
		wr.rdErr = err
		if n == 0 {
			return err
		}
		return nil
	}
	if n == 0 {
		wr.empty++
		if wr.empty >= 100 {
			wr.rdErr = io.ErrNoProgress
			return io.ErrNoProgress
		}
		return nil
	}
	wr.empty = 0
	return nil
}

// need ensures the window holds bytes up to absolute index end. An EOF
// while a frame is partially read means a truncated frame — data damage,
// not a clean end.
func (wr *WireReader) need(end int) error {
	for wr.fill < end {
		if err := wr.fillMore(); err != nil {
			if err == io.EOF {
				return &wireCorruption{err: io.ErrUnexpectedEOF}
			}
			return err
		}
	}
	return nil
}

// uvarint decodes a uvarint at absolute window index p.
func (wr *WireReader) uvarint(p int) (uint64, int, error) {
	for {
		v, n := binary.Uvarint(wr.buf[p:wr.fill])
		if n > 0 {
			return v, n, nil
		}
		if n < 0 {
			return 0, 0, &wireCorruption{err: fmt.Errorf("varint overflow")}
		}
		if err := wr.need(wr.fill + 1); err != nil {
			return 0, 0, err
		}
	}
}

// parseRawFrame parses one frame's boundaries at wr.pos without
// consuming or decoding it, returning the frame's stream, its payload
// view into the window, and the frame's byte length. io.EOF means a
// clean end of input exactly at a frame boundary; *wireCorruption means
// damaged framing (boundary-known when its frameLen is set); anything
// else is an underlying reader error.
func (wr *WireReader) parseRawFrame() (wireStream, []byte, int, error) {
	var zero wireStream
	start := wr.pos
	for wr.fill == start {
		if err := wr.fillMore(); err != nil {
			return zero, nil, 0, err
		}
	}
	nameLen64, n, err := wr.uvarint(start)
	if err != nil {
		return zero, nil, 0, err
	}
	p := start + n
	if nameLen64 > maxWireNameLen {
		return zero, nil, 0, &wireCorruption{err: fmt.Errorf("stream name length %d too large", nameLen64)}
	}
	nameLen := int(nameLen64)
	if err := wr.need(p + nameLen); err != nil {
		return zero, nil, 0, err
	}
	nameBytes := wr.buf[p : p+nameLen]
	p += nameLen
	payloadLen64, n, err := wr.uvarint(p)
	if err != nil {
		return zero, nil, 0, err
	}
	p += n
	if payloadLen64 > maxWirePayloadLen {
		return zero, nil, 0, &wireCorruption{err: fmt.Errorf("payload length %d too large", payloadLen64)}
	}
	payloadLen := int(payloadLen64)
	if err := wr.need(p + payloadLen); err != nil {
		return zero, nil, 0, err
	}
	payload := wr.buf[p : p+payloadLen]
	frameLen := p + payloadLen - start
	ws, ok := wr.streams[string(nameBytes)] // alloc-free map probe
	if !ok {
		return zero, nil, 0, &wireCorruption{
			err:      fmt.Errorf("unknown stream %q", nameBytes),
			frameLen: frameLen,
			stream:   string(nameBytes),
		}
	}
	return ws, payload, frameLen, nil
}

// decodeWireFrame decodes one raw frame's payload: a tuple into values of
// its own, or with lend non-nil into *lend's spare capacity, as read
// documents.
func decodeWireFrame(ws wireStream, payload []byte, lend *[]stream.Value) (stream.Element, error) {
	var buf []stream.Value
	if lend != nil {
		*lend = slices.Grow(*lend, ws.arity)
		buf = (*lend)[len(*lend):]
	}
	e, buf, rest, err := ws.codec.DecodeInto(buf, payload)
	if err != nil {
		return stream.Element{}, fmt.Errorf("stream %q: %w", ws.name, err)
	}
	if len(rest) != 0 {
		return stream.Element{}, fmt.Errorf("stream %q: %d trailing bytes", ws.name, len(rest))
	}
	if lend != nil && !e.IsPunct() {
		*lend = (*lend)[:len(*lend)+len(buf)]
	}
	return e, nil
}

// IngestWire reads frames from r until EOF and pushes each element into
// the DSMS. The schemas declare the streams the wire may carry. It
// returns the number of elements ingested. The sequential path is always
// strict; the sharded Runtime's IngestWire applies its error policy.
func (d *DSMS) IngestWire(r io.Reader, schemas ...*stream.Schema) (int, error) {
	wr := NewWireReader(r, schemas...)
	count := 0
	for {
		te, err := wr.Read()
		if err == io.EOF {
			return count, nil
		}
		if err != nil {
			return count, err
		}
		if err := d.Push(te.Stream, te.Elem); err != nil {
			return count, err
		}
		count++
	}
}

// IngestWire reads frames from r until EOF and routes each element to the
// runtime's shards. It returns the number of elements routed (delivery is
// asynchronous; Close and Wait to drain). Under the Drop and Quarantine
// policies the reader runs in skip-and-resync mode: corrupt frames are
// counted (and, under Quarantine, retained raw) in the dead-letter queue
// instead of aborting the ingest. It commits no resume offset and is not
// tapped; IngestWireResume is the resumable form of the same loop.
func (rt *Runtime) IngestWire(r io.Reader, schemas ...*stream.Schema) (int, error) {
	return rt.ingestWire("IngestWire", "", r, schemas)
}

// IngestWireResume is the resumable counterpart of IngestWire: r must
// already be positioned at the named source's committed resume offset
// (rt.ResumeOffset(source): zero on a fresh runtime, the checkpointed
// offset after a restore), and the advancing offset is committed
// atomically with each routed batch. A runtime restored from a
// checkpoint therefore resumes exactly after the last frame inside the
// snapshot — no lost and no duplicated tuples. No reconnection is
// attempted — a read failure surfaces after committing everything read
// before it, and a caller that reconnects reopens its transport at
// rt.ResumeOffset(source). The serving front-end feeds each producer connection
// through this path: the connection handshake positions the client at
// the resume offset, and reconnection is the client's job.
//
// Under Drop and Quarantine a corrupt region is dead-lettered in the same
// commit as the first batch whose offset moves past it, so faults are
// exactly-once across a crash too.
//
// Like IngestWire, it decodes every tuple into one value buffer it reuses
// batch after batch: whatever keeps a tuple past its commit copies it.
func (rt *Runtime) IngestWireResume(source string, r io.Reader, schemas ...*stream.Schema) (int, error) {
	return rt.ingestWire("IngestWireResume", source, r, schemas)
}

// ingestWire is the one wire-ingest loop. Frames are decoded and routed
// in batches: contiguous same-stream runs (up to ingestBatch frames)
// travel through commit as one mailbox hand-off per subscribed shard,
// preserving per-shard element order while amortizing routing and
// locking. An empty source commits no offset and is not tapped. The
// batch's tuples are lent: their values are decoded into one buffer the
// loop reuses once the batch is committed, and commit copies what it
// keeps.
func (rt *Runtime) ingestWire(op, source string, r io.Reader, schemas []*stream.Schema) (int, error) {
	start := rt.ResumeOffset(source)
	var rec *tapRecorder
	if rt.tap != nil && source != "" {
		rec = &tapRecorder{r: r, base: start, mark: start}
		r = rec
	}
	wr := NewWireReader(r, schemas...)
	wr.base = start
	var pendingFaults []WireFault
	if rt.policy != Fail {
		wr.Lenient(func(f WireFault) {
			pendingFaults = append(pendingFaults, f)
		})
	}
	const ingestBatch = 128
	batch := make([]stream.Element, 0, ingestBatch)
	var vals []stream.Value // the batch's tuple values, back to back
	batchStream := ""
	count := 0
	flush := func(off int64) error {
		var ready []DeadLetter
		rest := pendingFaults[:0]
		for _, f := range pendingFaults {
			if f.Offset+int64(f.Skipped) <= off {
				ready = append(ready, DeadLetter{Stream: f.Stream, Frame: f.Frame, Err: f.Err})
			} else {
				rest = append(rest, f)
			}
		}
		pendingFaults = rest
		if len(ready) == 0 && len(batch) == 0 {
			return nil
		}
		if err := rt.commit(op, source, batchStream, batch, true, ready, off, rec); err != nil {
			return err
		}
		count += len(batch)
		batch, vals = batch[:0], vals[:0]
		return nil
	}
	lastEnd := start
	for {
		te, err := wr.read(&vals)
		if err == io.EOF {
			// A clean EOF consumes the whole wire: trailing skipped regions
			// commit with the final offset.
			if ferr := flush(wr.Offset()); ferr != nil {
				return count, ferr
			}
			return count, nil
		}
		if err != nil {
			if ferr := flush(lastEnd); ferr != nil {
				return count, ferr
			}
			if errors.Is(err, ErrWouldBlock) {
				// The transport drained its buffered bytes: progress so
				// far is committed, the next Read blocks for more.
				continue
			}
			return count, err
		}
		if len(batch) > 0 && (te.Stream != batchStream || len(batch) >= ingestBatch) {
			if ferr := flush(lastEnd); ferr != nil {
				return count, ferr
			}
			if !te.Elem.IsPunct() {
				// The committed values are free: move the pending tuple's
				// from the end of vals to the front.
				vals = append(vals, te.Elem.Tuple().Values...)
				te.Elem = stream.TupleElement(stream.NewTuple(vals...))
			}
		}
		batchStream = te.Stream
		batch = append(batch, te.Elem)
		lastEnd = wr.Offset()
	}
}

// tapRecorder wraps a wire-ingest reader, retaining every byte read
// until the commit that covers it fires the tap. The retained window is
// bounded by the ingest batch size plus one frame: release trims it at
// every commit.
type tapRecorder struct {
	r    io.Reader
	buf  []byte
	base int64 // wire offset of buf[0]
	mark int64 // bytes below mark have been handed to the tap
}

func (t *tapRecorder) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.buf = append(t.buf, p[:n]...)
	}
	return n, err
}

// pending returns the raw bytes in [mark, off) and their start offset.
// The slice is valid until release.
func (t *tapRecorder) pending(off int64) ([]byte, int64) {
	return t.buf[t.mark-t.base : off-t.base], t.mark
}

// release marks everything below off as committed and trims the buffer.
func (t *tapRecorder) release(off int64) {
	t.buf = append(t.buf[:0], t.buf[off-t.base:]...)
	t.base = off
	t.mark = off
}
