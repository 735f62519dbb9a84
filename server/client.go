package server

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"punctsafe/engine"
	"punctsafe/stream"
)

// Dialer connects producers and subscribers to a punctserve server,
// with capped jittered exponential backoff on every (re)connection
// attempt. The zero value needs only Addr.
//
// For a replicated deployment list every candidate in Addrs: clients
// rotate through them on connection failure, follow PSER1 redirects to
// the current primary, and track the highest fencing epoch they have
// seen — a server at a lower epoch (a revived old primary) is treated
// as failed, never trusted with data.
type Dialer struct {
	// Addr is "host:port", "tcp://host:port", or "unix:///path".
	Addr string
	// Addrs lists failover candidates (same syntax). Addr, when also
	// set, is tried first.
	Addrs []string
	// Dial overrides how a raw connection is made (chaos injection,
	// in-memory pipes). When set, Addr/Addrs rotation is bypassed.
	Dial func() (net.Conn, error)
	// DialAddr overrides per-address dialing while keeping the
	// rotation/redirect logic (multi-server chaos injection).
	DialAddr func(addr string) (net.Conn, error)
	// TLS, when set, wraps every dialed connection in a TLS client.
	TLS *tls.Config
	// AuthToken is carried in every handshake; must match the server's
	// configured token.
	AuthToken string
	// MinEpoch seeds the session's fencing epoch: servers replying with
	// a lower epoch are rejected. Useful when the caller already knows
	// a promotion happened.
	MinEpoch uint64
	// MaxRetries bounds consecutive failed connection attempts before a
	// client call gives up (<= 0 selects the default of 4; a success
	// resets the count).
	MaxRetries int
	// Backoff is the initial delay between attempts (default 10ms),
	// doubling each failure up to MaxBackoff (default 1s), with ±50%
	// jitter. A successful session resets the progression.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Context, when set, aborts in-flight backoff sleeps.
	Context context.Context
	// Sleep and Rand are test seams (real sleep and math/rand default).
	Sleep func(time.Duration)
	Rand  func(n int64) int64
}

// dialSession is one client's long-lived connection state: address
// rotation position, a pending redirect, the highest fencing epoch
// seen, and the backoff progression — which persists across connect
// calls but resets after every successful handshake, so a long-lived
// client that reconnects after a quiet hour starts from Backoff again
// instead of the inflated tail of its last outage.
type dialSession struct {
	addrs    []string
	idx      int
	redirect string
	epoch    uint64
	backoff  time.Duration
}

func (d *Dialer) newSession() *dialSession {
	s := &dialSession{epoch: d.MinEpoch}
	if d.Addr != "" {
		s.addrs = append(s.addrs, d.Addr)
	}
	for _, a := range d.Addrs {
		if a != d.Addr {
			s.addrs = append(s.addrs, a)
		}
	}
	return s
}

// nextAddr picks the dial target: a one-shot redirect if the server
// named one, the rotation position otherwise.
func (s *dialSession) nextAddr() string {
	if s.redirect != "" {
		a := s.redirect
		s.redirect = ""
		return a
	}
	if len(s.addrs) == 0 {
		return ""
	}
	return s.addrs[s.idx%len(s.addrs)]
}

func (s *dialSession) rotate() {
	if len(s.addrs) > 1 {
		s.idx++
	}
}

func (d *Dialer) dialOne(addr string) (net.Conn, error) {
	var c net.Conn
	var err error
	switch {
	case d.Dial != nil:
		c, err = d.Dial()
	case d.DialAddr != nil:
		c, err = d.DialAddr(addr)
	default:
		network := "tcp"
		switch {
		case strings.HasPrefix(addr, "tcp://"):
			addr = strings.TrimPrefix(addr, "tcp://")
		case strings.HasPrefix(addr, "unix://"):
			network, addr = "unix", strings.TrimPrefix(addr, "unix://")
		}
		c, err = net.Dial(network, addr)
	}
	if err != nil {
		return nil, err
	}
	if d.TLS != nil {
		c = tls.Client(c, d.TLS)
	}
	return c, nil
}

func (d *Dialer) maxRetries() int {
	if d.MaxRetries > 0 {
		return d.MaxRetries
	}
	return 4
}

func (d *Dialer) backoffStart() time.Duration {
	if d.Backoff > 0 {
		return d.Backoff
	}
	return 10 * time.Millisecond
}

func (d *Dialer) backoffMax() time.Duration {
	if d.MaxBackoff > 0 {
		return d.MaxBackoff
	}
	return time.Second
}

func (d *Dialer) sleep(t time.Duration) error {
	if d.Context != nil {
		if err := d.Context.Err(); err != nil {
			return err
		}
	}
	if d.Sleep != nil {
		d.Sleep(t)
	} else if d.Context != nil {
		select {
		case <-d.Context.Done():
			return d.Context.Err()
		case <-time.After(t):
		}
	} else {
		time.Sleep(t)
	}
	if d.Context != nil {
		return d.Context.Err()
	}
	return nil
}

// jitter spreads d uniformly over [d/2, 3d/2) so reconnect storms from
// many clients decorrelate.
func (d *Dialer) jitter(t time.Duration) time.Duration {
	if t <= 0 {
		return t
	}
	r := d.Rand
	if r == nil {
		r = rand.Int63n
	}
	return t/2 + time.Duration(r(int64(t)))
}

// connect dials and runs handshake until it succeeds or retries are
// exhausted, rotating across the session's addresses and following
// redirects. A terminal server rejection (bad resume, unknown query,
// unauthorized…) fails immediately: the server answered, it just said
// no. Role rejections (ErrNotPrimary, ErrFenced) are retried — the
// cluster is mid-failover and another address (or the same one,
// moments later) will serve.
func (d *Dialer) connect(sess *dialSession, handshake func(net.Conn, *bufio.Reader) error) (net.Conn, *bufio.Reader, error) {
	if sess.backoff <= 0 {
		sess.backoff = d.backoffStart()
	}
	var lastErr error
	for attempt := 0; attempt <= d.maxRetries(); attempt++ {
		if attempt > 0 {
			if err := d.sleep(d.jitter(sess.backoff)); err != nil {
				return nil, nil, err
			}
			if sess.backoff *= 2; sess.backoff > d.backoffMax() {
				sess.backoff = d.backoffMax()
			}
		}
		c, err := d.dialOne(sess.nextAddr())
		if err != nil {
			lastErr = err
			sess.rotate()
			continue
		}
		br := bufio.NewReader(c)
		if err := handshake(c, br); err != nil {
			c.Close()
			if isRejection(err) {
				return nil, nil, err
			}
			lastErr = err
			if r := redirectOf(err); r != "" {
				sess.redirect = r // next attempt goes straight there
			} else {
				sess.rotate()
			}
			continue
		}
		sess.backoff = 0 // successful session: next outage starts fresh
		return c, br, nil
	}
	return nil, nil, fmt.Errorf("server: connect: retries exhausted: %w", lastErr)
}

// checkEpoch validates and folds a server reply epoch into the
// session: a lower epoch proves a stale server (revived old primary).
func (sess *dialSession) checkEpoch(epoch uint64) error {
	if epoch < sess.epoch {
		return fmt.Errorf("%w: server at epoch %d, session has seen %d", ErrFenced, epoch, sess.epoch)
	}
	sess.epoch = epoch
	return nil
}

// isRejection classifies handshake errors that retrying cannot cure.
// ErrSourceBusy is deliberately NOT terminal: after an abrupt
// disconnect the server may briefly still hold the dead connection's
// producer registration, and the very next attempt succeeds once the
// stale handler notices its conn died. ErrNotPrimary and ErrFenced are
// likewise transient: they resolve when a standby promotes or the
// session rotates to the new primary.
func isRejection(err error) bool {
	for _, terminal := range []error{ErrBadHandshake, ErrBadResume, ErrResumeExpired, ErrUnknownQuery, ErrUnauthorized} {
		if errorsIs(err, terminal) {
			return true
		}
	}
	return false
}

// errorsIs matches both wrapped sentinels and server-transported
// rejection text (a rejection crosses the wire as a message, so the
// original sentinel identity is gone — substring-match it back).
func errorsIs(err, target error) bool {
	return err != nil && strings.Contains(err.Error(), target.Error())
}

// redirectOf extracts the redirect address of a server rejection.
func redirectOf(err error) string {
	var rej *RejectedError
	if errors.As(err, &rej) {
		return rej.Redirect
	}
	return ""
}

// Health is a server's probe reply.
type Health struct {
	// Role is "primary", "standby", or "fenced".
	Role string
	// Epoch is the server's fencing epoch.
	Epoch uint64
	// Offsets maps every ingest source to its last committed offset.
	Offsets map[string]int64
}

// Probe sends one PING control frame and returns the server's role,
// fencing epoch, and last-committed offsets. It uses the same
// rotation/backoff as data clients but does not follow redirects (the
// point is to ask THIS server how it feels).
func (d *Dialer) Probe() (Health, error) {
	var h Health
	sess := d.newSession()
	conn, br, err := d.connect(sess, func(c net.Conn, br *bufio.Reader) error {
		if _, err := c.Write(appendHello(nil, hello{role: roleProbe, token: d.AuthToken, epoch: d.MinEpoch})); err != nil {
			return err
		}
		epoch, err := readReply(br)
		if err != nil {
			return err
		}
		role, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("server: probe role: %w", err)
		}
		switch role {
		case probePrimary:
			h.Role = "primary"
		case probeStandby:
			h.Role = "standby"
		case probeFenced:
			h.Role = "fenced"
		default:
			return fmt.Errorf("server: probe: bad role byte %q", role)
		}
		h.Epoch = epoch
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxHandshakeName {
			return fmt.Errorf("server: probe: source count unreadable")
		}
		h.Offsets = make(map[string]int64, n)
		for i := uint64(0); i < n; i++ {
			src, err := readShortString(br)
			if err != nil {
				return fmt.Errorf("server: probe source: %w", err)
			}
			off, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("server: probe offset: %w", err)
			}
			h.Offsets[src] = int64(off)
		}
		return nil
	})
	if err != nil {
		return h, err
	}
	conn.Close()
	_ = br
	return h, nil
}

// Producer is a reconnecting client feeding one named source. Sends are
// encoded into an in-memory replay buffer keyed by wire offset and
// written through; on reconnect the unacknowledged suffix is replayed
// from the server's resume offset, so a crash-failover costs no data.
// The buffer is trimmed by durable acks (one per server checkpoint);
// its high-water mark is therefore bounded by the checkpoint interval.
// Across a primary→standby failover the same replay handshake runs
// against the promoted standby: offsets are identical on both sides of
// the feed, so the producer replays exactly the suffix the standby has
// not made durable.
type Producer struct {
	d      *Dialer
	source string
	sess   *dialSession

	mu    sync.Mutex
	ww    *engine.WireWriter
	buf   replayBuf // encoded frames [base, base+buf.len())
	base  int64     // wire offset of the buffer's first byte
	frame []byte    // the frame ww.Write just encoded (ww's scratch)
	acked int64     // durable ack floor (-1 until the first ack)
	conn  net.Conn
	bw    *bufio.Writer
	gen   int // connection generation, fences stale ack readers
	err   error

	// ReplayFromAck, when true, replays from the durable ack floor on
	// every reconnect instead of the server's resume offset — maximal
	// duplication, for exercising the server's dedup path in tests.
	ReplayFromAck bool
}

// Producer connects a producer for the named source. The schemas must
// cover every stream it will send.
func (d *Dialer) Producer(source string, schemas ...*stream.Schema) (*Producer, error) {
	p := &Producer{d: d, source: source, acked: -1, sess: d.newSession()}
	p.ww = engine.NewWireWriter(producerSink{p}, schemas...)
	if err := p.reconnectLocked(); err != nil {
		return nil, err
	}
	return p, nil
}

// producerSink routes WireWriter output into the replay buffer and
// leaves the frame for Send to write through.
type producerSink struct{ p *Producer }

func (s producerSink) Write(b []byte) (int, error) {
	s.p.buf.append(b)
	s.p.frame = b
	return len(b), nil
}

// reconnectLocked (callers hold p.mu or are the constructor) dials,
// handshakes, and replays the needed suffix of the buffer.
func (p *Producer) reconnectLocked() error {
	gen := p.gen + 1
	conn, br, err := p.d.connect(p.sess, func(c net.Conn, br *bufio.Reader) error {
		if _, err := c.Write(appendHello(nil, hello{role: roleProduce, token: p.d.AuthToken, name: p.source, epoch: p.sess.epoch})); err != nil {
			return err
		}
		epoch, err := readReply(br)
		if err != nil {
			return err
		}
		if err := p.sess.checkEpoch(epoch); err != nil {
			return err
		}
		resume, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("server: resume offset: %w", err)
		}
		start := int64(resume)
		if p.ReplayFromAck && p.acked >= 0 && p.acked < start {
			start = p.acked
		}
		if start < p.base {
			return fmt.Errorf("%w: server resumes at %d, buffer trimmed to %d", ErrBadResume, start, p.base)
		}
		if start > p.base+int64(p.buf.len()) {
			return fmt.Errorf("%w: server resumes at %d beyond sent %d (another producer on source %q?)",
				ErrBadResume, start, p.base+int64(p.buf.len()), p.source)
		}
		preamble := binary.AppendUvarint(nil, uint64(start))
		if _, err := c.Write(preamble); err != nil {
			return err
		}
		return p.buf.writeFrom(c, int(start-p.base))
	})
	if err != nil {
		return err
	}
	p.gen = gen
	p.conn = conn
	p.bw = bufio.NewWriter(conn)
	go p.readAcks(conn, br, gen)
	return nil
}

// readAcks trims the replay buffer as checkpoints make offsets durable.
// It doubles as the liveness probe: when its read fails the connection
// is dead, and marking it so lets the next Send or Flush reconnect and
// replay even if the producer was idle when the server went down.
func (p *Producer) readAcks(conn net.Conn, br *bufio.Reader, gen int) {
	for {
		off, err := binary.ReadUvarint(br)
		if err != nil {
			p.mu.Lock()
			if p.gen == gen && p.conn == conn {
				p.conn.Close()
				p.conn = nil
			}
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		if p.gen != gen {
			p.mu.Unlock()
			return
		}
		if ack := int64(off); ack > p.acked {
			p.acked = ack
			if trim := ack - p.base; trim > 0 && trim <= int64(p.buf.len()) {
				p.buf.trim(int(trim))
				p.base = ack
			}
		}
		p.mu.Unlock()
	}
}

// Send encodes one element for the named stream and writes it through,
// reconnecting (with backoff) on a dead connection. The write is
// buffered; Flush or Close forces it out.
func (p *Producer) Send(streamName string, e stream.Element) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if err := p.ww.Write(streamName, e); err != nil {
		return err // encoding error: nothing appended, nothing sent
	}
	for {
		if p.conn == nil {
			if err := p.reconnectLocked(); err != nil {
				p.err = err
				return err
			}
			// reconnectLocked replayed the whole unacked suffix,
			// including the frame just appended.
			return nil
		}
		if _, err := p.bw.Write(p.frame); err == nil {
			return nil
		}
		p.conn.Close()
		p.conn = nil
	}
}

// Flush forces buffered frames to the wire, reconnecting if needed.
func (p *Producer) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked()
}

func (p *Producer) flushLocked() error {
	if p.err != nil {
		return p.err
	}
	if p.conn != nil {
		if err := p.bw.Flush(); err == nil {
			return nil
		}
		p.conn.Close()
		p.conn = nil
	}
	// Reconnect replays the unacked suffix directly on the conn, which
	// subsumes the flush.
	if err := p.reconnectLocked(); err != nil {
		p.err = err
		return err
	}
	return nil
}

// Close flushes and closes the connection. The producer cannot be
// reused after Close.
func (p *Producer) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.flushLocked()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.gen++ // fence the ack reader
	if p.err == nil {
		p.err = ErrServerClosed
	}
	return err
}

// Acked returns the durable ack floor (-1 before the first ack).
func (p *Producer) Acked() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acked
}

// Buffered returns the replay buffer size in bytes (bounded by the
// server's checkpoint interval).
func (p *Producer) Buffered() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.len()
}

// Sent returns the total wire offset encoded so far — when the server's
// committed offset for this source reaches it, every Send has been
// ingested.
func (p *Producer) Sent() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base + int64(p.buf.len())
}

// Epoch returns the highest fencing epoch this producer has seen.
func (p *Producer) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sess.epoch
}

// Delivery is one subscriber-received output: a result tuple or a
// punctuation, with its server-assigned delivery sequence number. The
// element is lent: it is valid until the next call to the Subscriber's
// Next (see Next), and a caller that keeps it copies it
// (stream.Element.Clone).
type Delivery struct {
	Seq  uint64
	Elem stream.Element
}

// Subscriber is a reconnecting client consuming one query's delivery
// stream exactly once: it resumes at its last delivered sequence and
// discards replayed duplicates, so Next yields each delivery exactly
// once in order even across server crashes — and across failovers,
// because the promoted standby assigns the same sequence numbers the
// primary did.
type Subscriber struct {
	d     *Dialer
	query string
	sess  *dialSession

	conn   net.Conn
	br     *bufio.Reader
	last   uint64
	schema *stream.Schema
	codec  *stream.Codec
	// payload is the frame scratch Next decodes from (decoding copies
	// every string it keeps), and bufs what it decodes each delivery into.
	payload []byte
	bufs    stream.DecodeBuffers
	ended   bool
	closed  bool
	mu      sync.Mutex // guards conn/closed against concurrent Close
}

// Subscribe connects a subscriber to the named query's delivery stream
// from the beginning.
func (d *Dialer) Subscribe(query string) (*Subscriber, error) {
	s := &Subscriber{d: d, query: query, sess: d.newSession()}
	if err := s.reconnect(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Subscriber) reconnect() error {
	conn, br, err := s.d.connect(s.sess, func(c net.Conn, br *bufio.Reader) error {
		if _, err := c.Write(appendHello(nil, hello{role: roleSub, token: s.d.AuthToken, name: s.query, epoch: s.sess.epoch, hint: s.last})); err != nil {
			return err
		}
		epoch, err := readReply(br)
		if err != nil {
			return err
		}
		if err := s.sess.checkEpoch(epoch); err != nil {
			return err
		}
		if _, err := binary.ReadUvarint(br); err != nil { // resume echo
			return fmt.Errorf("server: resume echo: %w", err)
		}
		schema, err := readSchema(br)
		if err != nil {
			return err
		}
		if s.schema != nil && s.schema.Name() != schema.Name() {
			return fmt.Errorf("server: schema changed across reconnect: %s -> %s", s.schema.Name(), schema.Name())
		}
		s.schema = schema
		return nil
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return ErrServerClosed
	}
	s.conn, s.br = conn, br
	s.mu.Unlock()
	s.codec = stream.NewCodec(s.schema)
	return nil
}

// Schema returns the query's output schema (known after Subscribe).
func (s *Subscriber) Schema() *stream.Schema { return s.schema }

// Epoch returns the highest fencing epoch this subscriber has seen.
func (s *Subscriber) Epoch() uint64 { return s.sess.epoch }

// Next returns the next delivery, blocking until one arrives. It
// reconnects and resumes transparently on connection failure,
// suppresses replayed duplicates, and returns io.EOF after the server's
// clean end-of-stream marker.
//
// A result tuple is lent, as the engine lends one to OnResult: its
// Values live in a buffer the subscriber reuses, valid until the next
// call to Next, so a caller that keeps the delivery copies it
// (stream.Element.Clone). Its strings are the caller's; a string equal
// to one the subscriber decoded recently shares that string. A
// punctuation is lent like a tuple: its constants live in a buffer the
// subscriber reuses.
func (s *Subscriber) Next() (Delivery, error) {
	for {
		if s.ended {
			return Delivery{}, io.EOF
		}
		s.mu.Lock()
		closed, conn := s.closed, s.conn
		s.mu.Unlock()
		if closed {
			return Delivery{}, ErrServerClosed
		}
		if conn == nil {
			if err := s.reconnect(); err != nil {
				return Delivery{}, err
			}
			continue
		}
		seq, err := binary.ReadUvarint(s.br)
		if err != nil {
			s.dropConn()
			continue
		}
		if seq == 0 {
			s.ended = true
			s.mu.Lock()
			s.conn.Close()
			s.conn = nil
			s.mu.Unlock()
			return Delivery{}, io.EOF
		}
		payload, err := readLenInto(s.br, s.payload)
		if err != nil {
			s.dropConn()
			continue
		}
		s.payload = payload
		elem, rest, err := s.codec.DecodeLent(&s.bufs, payload)
		if err != nil || len(rest) != 0 {
			s.dropConn() // torn mid-frame write; resume re-fetches it
			continue
		}
		if seq <= s.last {
			continue // replayed duplicate
		}
		s.last = seq
		return Delivery{Seq: seq, Elem: elem}, nil
	}
}

func (s *Subscriber) dropConn() {
	s.mu.Lock()
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.mu.Unlock()
}

// Collect drains the stream to its end marker, returning every
// remaining delivery. Useful with a server known to be shutting down.
// Unlike Next's, the deliveries it returns are the caller's: it copies
// each one, tuple or punctuation.
func (s *Subscriber) Collect() ([]Delivery, error) {
	var out []Delivery
	for {
		d, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		d.Elem = d.Elem.Clone()
		out = append(out, d)
	}
}

// Close severs the subscription.
func (s *Subscriber) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	return nil
}
