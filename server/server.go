package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"punctsafe/engine"
	"punctsafe/stream"
)

// serverCkptMagic seals the server checkpoint: the engine snapshot plus
// every hub's retained deliveries at the same cut, in one atomic file.
//
//	"PSRVCK02" uvarint(epoch) uvarint(len(engineBlob)) engineBlob
//	uvarint(nqueries) { str(name) uvarint(cut) uvarint(nentries)
//	                    { uvarint(seq) uvarint(len) codecPayload } }
//	crc32-IEEE(everything before)
const serverCkptMagic = "PSRVCK02"

// ErrCorruptServerCheckpoint classifies an unreadable server snapshot.
var ErrCorruptServerCheckpoint = errors.New("server: corrupt checkpoint")

// Config assembles a Server.
type Config struct {
	// Listener accepts producer and subscriber connections (TCP or unix
	// socket). The server owns it and closes it on shutdown. Wrap it in
	// tls.NewListener for transport security; clients set Dialer.TLS.
	Listener net.Listener
	// Build registers schemes and queries on a fresh DSMS. It runs once
	// at startup and again (on a fresh DSMS) when restoring from a
	// checkpoint or installing a replication snapshot, so it must be
	// deterministic.
	Build func(*engine.DSMS) error
	// Schemas are the input stream schemas producers may send.
	Schemas []*stream.Schema
	// Runtime tunes the wrapped runtime (error policy, buffers).
	Runtime engine.RuntimeOptions
	// CheckpointPath, when set, enables durability: the server restores
	// from this file at startup when it exists, checkpoints to it every
	// CheckpointEvery (and at graceful shutdown), and acks producers
	// with the durable offsets each checkpoint commits. Empty disables
	// checkpoints AND producer acks.
	CheckpointPath  string
	CheckpointEvery time.Duration
	// QueueLimit bounds a subscriber's pending backlog before the slow
	// consumer policy applies (default 256). Must be ≤ Retain.
	QueueLimit int
	// Retain is how many recent deliveries each query keeps for
	// reconnecting subscribers (default 1024). A subscriber resuming
	// below the retention floor is rejected with ErrResumeExpired. It is
	// a memory and checkpoint-size setting, not a speed one: the ring is
	// allocated once at Retain slots per query, each holding one
	// delivery's encoded frame — the bytes every subscriber is sent and
	// every checkpoint persists, built once per delivery into bytes the
	// slot keeps for its next lap — and every checkpoint copies the whole
	// ring. Restarting with a smaller Retain keeps the newest deliveries
	// of the restored ring.
	Retain int
	// Slow selects the slow-consumer policy (default SlowBlock).
	Slow SlowPolicy
	// DrainTimeout bounds how long a graceful Shutdown waits for
	// connected subscribers to consume the final deliveries before
	// ending their streams anyway (default 10s).
	DrainTimeout time.Duration
	// AuthToken, when set, is a shared secret every hello must carry;
	// mismatches are rejected with ErrUnauthorized before any role is
	// serviced.
	AuthToken string
	// Advertise is the address clients should be redirected to when
	// this server is (or becomes) the primary. Defaults to the
	// listener's address — set it when the listener binds a wildcard.
	Advertise string
	// ReplListener, when set, accepts warm-standby replication
	// connections and enables the replication feed (an engine ingest
	// tap recording ingress order). The server owns and closes it.
	ReplListener net.Listener
	// ReplBuffer bounds the in-memory replication backlog in bytes
	// (default 16 MiB). A standby lagging beyond it is evicted and must
	// reconnect with a fresh snapshot.
	ReplBuffer int
	// ReplicaOf, when set, starts the server as a warm standby
	// replicating from the given primary replication address. It
	// rejects producers/subscribers (with a redirect to the primary)
	// until promoted by Promote or PromoteTimeout.
	ReplicaOf string
	// ReplicaDial overrides how the standby dials ReplicaOf (chaos
	// injection, in-memory pipes). Defaults to tcp/unix by prefix, as
	// Dialer.Addr.
	ReplicaDial func(addr string) (net.Conn, error)
	// PromoteTimeout, on a standby, bounds how long a lost replication
	// feed is re-dialed before the standby promotes itself. Zero
	// disables automatic promotion (Promote still works).
	PromoteTimeout time.Duration
	// Logf, when set, receives server lifecycle and connection logs.
	Logf func(format string, args ...any)
}

// enginePack bundles one engine incarnation: the DSMS, its runtime, and
// the per-query delivery hubs wired to it. The primary builds exactly
// one; a standby builds a fresh pack per installed snapshot (every
// feed (re)connect), swapping it in atomically.
type enginePack struct {
	d    *engine.DSMS
	rt   *engine.Runtime
	hubs map[string]*hub
}

// Server wraps a runtime behind a listener. See the package comment for
// the HA contract.
type Server struct {
	cfg Config
	eng atomic.Pointer[enginePack]

	// epoch is the fencing epoch: bumped on every promotion, persisted
	// in the checkpoint, carried in every protocol reply. fenced is set
	// when a hello proves a newer primary exists; a fenced server
	// rejects all data and replication roles.
	epoch   atomic.Uint64
	fenced  atomic.Bool
	standby atomic.Bool

	// observed is the highest fencing epoch any peer hello has carried.
	// A standby folds it into its promotion epoch instead of fencing:
	// rotating clients routinely reach a fresh standby before its first
	// snapshot install, and a standby serves no data roles, so a newer
	// epoch cannot split-brain through it.
	observed atomic.Uint64

	repl *replLog // primary-side feed; non-nil iff ReplListener set
	stb  *standbyRunner

	mu        sync.Mutex
	producers map[string]net.Conn // active producer conn per source
	conns     map[net.Conn]struct{}
	replConns map[net.Conn]struct{} // attached standby feed conns
	stopping  bool
	killed    bool

	ckptMu      sync.Mutex  // serializes checkpoints and the acks they send
	ckptScratch ckptScratch // CheckpointNow's encoding buffers (ckptMu)

	acceptWg sync.WaitGroup // accept loops + producer/subscriber handshakes
	replWg   sync.WaitGroup // replica feed senders
	subWg    sync.WaitGroup // subscriber writers (drain after runtime)
	tickMu   sync.Mutex     // guards tickStarted (promotion vs shutdown)
	tickOn   bool
	tickStop chan struct{}
	tickWg   sync.WaitGroup

	doneMu  sync.Mutex
	doneErr error
	done    chan struct{}
}

// New builds the DSMS, restores from cfg.CheckpointPath when the file
// exists (fresh start otherwise), and begins serving on cfg.Listener.
// With cfg.ReplicaOf set it starts in standby mode instead: no local
// runtime until the first snapshot from the primary is installed.
func New(cfg Config) (*Server, error) {
	if cfg.Listener == nil {
		return nil, fmt.Errorf("server: Config.Listener is required")
	}
	if cfg.Build == nil {
		return nil, fmt.Errorf("server: Config.Build is required")
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 256
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 1024
	}
	if cfg.QueueLimit > cfg.Retain {
		return nil, fmt.Errorf("server: QueueLimit %d exceeds Retain %d (reconnect resume would be impossible)", cfg.QueueLimit, cfg.Retain)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.ReplBuffer <= 0 {
		cfg.ReplBuffer = 16 << 20
	}
	s := &Server{
		cfg:       cfg,
		producers: make(map[string]net.Conn),
		conns:     make(map[net.Conn]struct{}),
		replConns: make(map[net.Conn]struct{}),
		tickStop:  make(chan struct{}),
		done:      make(chan struct{}),
	}
	if cfg.ReplListener != nil {
		s.repl = newReplLog(cfg.ReplBuffer)
	}

	if cfg.ReplicaOf != "" {
		// Standby: the engine starts when the first snapshot arrives.
		s.standby.Store(true)
		s.stb = newStandbyRunner(s)
		s.acceptWg.Add(1)
		go s.acceptLoop(cfg.Listener)
		if cfg.ReplListener != nil {
			s.acceptWg.Add(1)
			go s.acceptLoop(cfg.ReplListener)
		}
		s.stb.start()
		cfg.Logf("punctserve: standby of %s, serving on %s", cfg.ReplicaOf, cfg.Listener.Addr())
		return s, nil
	}

	p, err := s.newPack()
	if err != nil {
		return nil, err
	}
	var blob []byte
	epoch := uint64(1)
	if cfg.CheckpointPath != "" {
		raw, err := os.ReadFile(cfg.CheckpointPath)
		switch {
		case err == nil:
			if blob, epoch, err = s.restoreEnvelope(p, raw); err != nil {
				return nil, err
			}
		case errors.Is(err, os.ErrNotExist):
			// fresh start
		default:
			return nil, fmt.Errorf("server: reading checkpoint: %w", err)
		}
	}
	s.epoch.Store(epoch)
	if err := s.startPack(p, blob); err != nil {
		return nil, err
	}
	if blob != nil {
		cfg.Logf("punctserve: restored from %s (epoch %d)", cfg.CheckpointPath, epoch)
	}
	s.eng.Store(p)

	s.acceptWg.Add(1)
	go s.acceptLoop(cfg.Listener)
	if cfg.ReplListener != nil {
		s.acceptWg.Add(1)
		go s.acceptLoop(cfg.ReplListener)
	}
	s.startCheckpointLoop()
	cfg.Logf("punctserve: serving on %s (epoch %d)", cfg.Listener.Addr(), epoch)
	return s, nil
}

// newPack builds a fresh DSMS + hubs (no runtime yet).
func (s *Server) newPack() (*enginePack, error) {
	d := engine.New()
	if err := s.cfg.Build(d); err != nil {
		return nil, fmt.Errorf("server: build: %w", err)
	}
	p := &enginePack{d: d, hubs: make(map[string]*hub)}
	for _, name := range d.Queries() {
		reg, _ := d.Get(name)
		h := newHub(name, reg.Output, s.cfg.Retain, s.cfg.QueueLimit, s.cfg.Slow)
		h.onDrop = func(query string, elem stream.Element, seq uint64) {
			if rt := s.runtime(); rt != nil {
				rt.AddDeadLetter(engine.DeadLetter{
					Query: query,
					Elem:  elem,
					Err:   fmt.Errorf("server: delivery %d dropped: subscriber backlog over %d (policy %v)", seq, s.cfg.QueueLimit, s.cfg.Slow),
				})
			}
		}
		reg.SetDeliveryHook(h.publish)
		p.hubs[name] = h
	}
	return p, nil
}

// startPack starts the pack's runtime, restoring from blob when given.
// When replication is enabled the runtime records every committed wire
// ingest into the feed, in ingress order.
func (s *Server) startPack(p *enginePack, blob []byte) error {
	opts := s.cfg.Runtime
	if s.repl != nil {
		opts.IngestTap = s.repl.appendFrame
	}
	if blob != nil {
		rt, err := p.d.RestoreRuntime(bytes.NewReader(blob), opts)
		if err != nil {
			return fmt.Errorf("server: restore: %w", err)
		}
		p.rt = rt
		return nil
	}
	p.rt = p.d.RunSharded(opts)
	return nil
}

func (s *Server) startCheckpointLoop() {
	if s.cfg.CheckpointPath == "" || s.cfg.CheckpointEvery <= 0 {
		return
	}
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	if s.tickOn {
		return
	}
	select {
	case <-s.tickStop:
		return // already shutting down
	default:
	}
	s.tickOn = true
	s.tickWg.Add(1)
	go s.checkpointLoop()
}

// pack returns the current engine incarnation (nil on a standby before
// its first snapshot install).
func (s *Server) pack() *enginePack { return s.eng.Load() }

func (s *Server) runtime() *engine.Runtime {
	if p := s.pack(); p != nil {
		return p.rt
	}
	return nil
}

// Addr returns the listener address (handy with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.cfg.Listener.Addr() }

// primaryRedirect is the address a standby points rejected data
// clients at: the primary's advertised client address once the feed
// handshake has taught it, the replication address before that.
func (s *Server) primaryRedirect() string {
	if s.stb != nil {
		if a := s.stb.primaryAddr(); a != "" {
			return a
		}
	}
	return s.cfg.ReplicaOf
}

// advertise is the address this server hands out in redirects.
func (s *Server) advertise() string {
	if s.cfg.Advertise != "" {
		return s.cfg.Advertise
	}
	return s.cfg.Listener.Addr().String()
}

// Runtime exposes the wrapped runtime for stats and dead letters (nil
// on a standby that has not installed a snapshot yet).
func (s *Server) Runtime() *engine.Runtime { return s.runtime() }

// Epoch returns the server's current fencing epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// IsPrimary reports whether the server currently serves data roles.
func (s *Server) IsPrimary() bool { return !s.standby.Load() && !s.fenced.Load() }

func (s *Server) acceptLoop(l net.Listener) {
	defer s.acceptWg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return // listener closed by Shutdown/Kill
		}
		s.mu.Lock()
		if s.stopping {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.acceptWg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	delete(s.replConns, c)
	s.mu.Unlock()
	c.Close()
}

// reject refuses a connection with the server's epoch and an optional
// redirect to the current primary.
func (s *Server) reject(c net.Conn, err error, redirect string) {
	writeReject(c, s.epoch.Load(), err, redirect)
	s.dropConn(c)
}

// observeEpoch self-fences when a peer proves a newer primary exists:
// every data role this server could serve from now on risks
// split-brain, so it stops serving all of them. The fence is sticky
// until restart. A standby is exempt — it rejects data roles anyway and
// its epoch lags until the next snapshot install — but the observed
// epoch is recorded so a later promotion lands strictly above anything
// the clients have already seen.
func (s *Server) observeEpoch(peer uint64) {
	for {
		cur := s.observed.Load()
		if peer <= cur || s.observed.CompareAndSwap(cur, peer) {
			break
		}
	}
	if s.standby.Load() {
		return
	}
	if peer > s.epoch.Load() && !s.fenced.Swap(true) {
		s.cfg.Logf("punctserve: fenced: peer at epoch %d, own epoch %d", peer, s.epoch.Load())
	}
}

func (s *Server) serveConn(c net.Conn) {
	defer s.acceptWg.Done()
	br := bufio.NewReader(c)
	h, err := readHello(br)
	if err != nil {
		s.reject(c, err, "")
		return
	}
	if s.cfg.AuthToken != "" && h.token != s.cfg.AuthToken {
		s.reject(c, ErrUnauthorized, "")
		return
	}
	s.observeEpoch(h.epoch)
	if h.role == roleProbe {
		s.serveProbe(c)
		return
	}
	if s.fenced.Load() {
		s.reject(c, ErrFenced, "")
		return
	}
	if h.role == roleReplica {
		// The feed sender outlives the accept drain (producers are
		// severed and waited first, and the final checkpoint barrier
		// must still reach the standby), so it runs under replWg.
		s.mu.Lock()
		s.replConns[c] = struct{}{}
		s.mu.Unlock()
		s.replWg.Add(1)
		go func() {
			defer s.replWg.Done()
			s.serveReplica(c, br, h)
		}()
		return
	}
	if s.standby.Load() {
		s.reject(c, fmt.Errorf("%w: standby replicating %s", ErrNotPrimary, s.cfg.ReplicaOf), s.primaryRedirect())
		return
	}
	switch h.role {
	case roleProduce:
		s.serveProducer(c, br, h)
	case roleSub:
		s.serveSubscriber(c, br, h)
	}
}

// serveProbe answers a health probe: role byte, fencing epoch (in the
// OK header), and every source's last-committed offset.
func (s *Server) serveProbe(c net.Conn) {
	role := byte(probePrimary)
	switch {
	case s.fenced.Load():
		role = probeFenced
	case s.standby.Load():
		role = probeStandby
	}
	reply := appendOK(nil, s.epoch.Load())
	reply = append(reply, role)
	var offsets map[string]int64
	if rt := s.runtime(); rt != nil {
		offsets = rt.SourceOffsets()
	}
	reply = binary.AppendUvarint(reply, uint64(len(offsets)))
	for _, src := range sortedKeys(offsets) {
		reply = binary.AppendUvarint(reply, uint64(len(src)))
		reply = append(reply, src...)
		reply = binary.AppendUvarint(reply, uint64(offsets[src]))
	}
	c.Write(reply)
	s.dropConn(c)
}

// serveProducer ingests one producer connection: handshake, resume
// preamble, then raw wire frames committed through the engine's
// offset-exact ingest path. Acks ride the checkpoint loop, not this
// goroutine.
func (s *Server) serveProducer(c net.Conn, br *bufio.Reader, h hello) {
	s.mu.Lock()
	if _, busy := s.producers[h.name]; busy {
		s.mu.Unlock()
		s.reject(c, fmt.Errorf("%w: source %q already has an active producer", ErrSourceBusy, h.name), "")
		return
	}
	s.producers[h.name] = c
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.producers, h.name)
		s.mu.Unlock()
		s.dropConn(c)
	}()

	rt := s.runtime()
	resume := rt.ResumeOffset(h.name)
	reply := binary.AppendUvarint(appendOK(nil, s.epoch.Load()), uint64(resume))
	if _, err := c.Write(reply); err != nil {
		return
	}
	start, err := binary.ReadUvarint(br)
	if err != nil {
		return
	}
	if int64(start) > resume {
		writeReject(c, s.epoch.Load(), fmt.Errorf("%w: producer starts at %d, server resumes at %d", ErrBadResume, start, resume), "")
		return
	}
	// The producer replays from its own buffer floor; skip the prefix
	// the runtime has already committed so the reader lands exactly on
	// the resume offset.
	if skip := resume - int64(start); skip > 0 {
		if _, err := io.CopyN(io.Discard, br, skip); err != nil {
			return
		}
	}
	n, err := rt.IngestWireResume(h.name, &drainBoundaryReader{br: br}, s.cfg.Schemas...)
	if err != nil && !s.teardownErr() {
		s.cfg.Logf("punctserve: producer %q: after %d elements: %v", h.name, n, err)
	}
}

// drainBoundaryReader signals engine.ErrWouldBlock exactly once each
// time the buffered bytes run out, so the ingest loop commits whatever
// the producer has sent before the read actually blocks — a connection
// that pauses mid-stream still has all its complete frames committed.
type drainBoundaryReader struct {
	br       *bufio.Reader
	signaled bool
}

func (d *drainBoundaryReader) Read(p []byte) (int, error) {
	if !d.signaled && d.br.Buffered() == 0 {
		d.signaled = true
		return 0, engine.ErrWouldBlock
	}
	d.signaled = false
	return d.br.Read(p)
}

// teardownErr reports whether connection errors are expected because
// the server itself is closing conns.
func (s *Server) teardownErr() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopping || s.killed
}

// serveSubscriber streams seq-stamped deliveries for one query.
func (s *Server) serveSubscriber(c net.Conn, br *bufio.Reader, h hello) {
	p := s.pack()
	hub, ok := p.hubs[h.name]
	if !ok {
		s.reject(c, fmt.Errorf("%w: %q", ErrUnknownQuery, h.name), "")
		return
	}
	cur, err := hub.attach(h.hint)
	if err != nil {
		s.reject(c, err, "")
		return
	}
	reg, _ := p.d.Get(h.name)
	reply := binary.AppendUvarint(appendOK(nil, s.epoch.Load()), h.hint)
	reply = appendSchema(reply, reg.Output)
	if _, err := c.Write(reply); err != nil {
		hub.detach(cur)
		s.dropConn(c)
		return
	}

	// A reader goroutine watches for the peer closing (or sending
	// anything unexpected) so a dead subscriber can never wedge a
	// SlowBlock publisher: conn death detaches the cursor.
	s.subWg.Add(1)
	go func() {
		defer s.subWg.Done()
		io.Copy(io.Discard, br)
		hub.detach(cur)
		c.Close()
	}()

	s.subWg.Add(1)
	go func() {
		defer s.subWg.Done()
		defer hub.detach(cur)
		defer s.dropConn(c)
		var frames []byte // this connection's frame scratch
		for {
			var ended bool
			var err error
			frames, ended, err = hub.collect(cur, frames[:0], 64)
			if err != nil {
				return
			}
			if ended {
				c.Write([]byte{0}) // end-of-stream: seq 0
				return
			}
			if _, err := c.Write(frames); err != nil {
				return
			}
		}
	}()
}

func (s *Server) checkpointLoop() {
	defer s.tickWg.Done()
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.tickStop:
			return
		case <-t.C:
			if err := s.CheckpointNow(); err != nil && !s.teardownErr() {
				s.cfg.Logf("punctserve: checkpoint: %v", err)
			}
		}
	}
}

// ckptScratch holds the buffers one checkpoint encoding fills. The
// server keeps one (under ckptMu) for its periodic checkpoints, so a
// long-lived server stops producing a checkpoint-sized block of garbage
// every CheckpointEvery; it starts empty and grows on first use.
type ckptScratch struct {
	engine bytes.Buffer
	body   []byte
}

// encodeCheckpoint serializes the full server checkpoint body (callers
// hold ckptMu) and returns the engine summary taken at its cut. It builds
// the body in sc's buffers, so the body is valid until the next encoding
// into the same sc; a caller that uses the body after releasing ckptMu
// passes nil and owns what it gets.
func (s *Server) encodeCheckpoint(p *enginePack, sc *ckptScratch) ([]byte, engine.CheckpointSummary, error) {
	if sc == nil {
		sc = new(ckptScratch)
	}
	sc.engine.Reset()
	sum, err := p.rt.CheckpointSummary(&sc.engine)
	if err != nil {
		return nil, sum, err
	}
	body := append(sc.body[:0], serverCkptMagic...)
	body = binary.AppendUvarint(body, s.epoch.Load())
	body = binary.AppendUvarint(body, uint64(sc.engine.Len()))
	body = append(body, sc.engine.Bytes()...)
	body = binary.AppendUvarint(body, uint64(len(p.hubs)))
	for _, name := range p.d.Queries() {
		cut := sum.Delivered[name]
		body = binary.AppendUvarint(body, uint64(len(name)))
		body = append(body, name...)
		body = binary.AppendUvarint(body, cut)
		body = p.hubs[name].snapshot(body, cut)
	}
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	sc.body = body
	return body, sum, nil
}

// CheckpointNow takes one durable checkpoint — the engine snapshot and
// every hub's retained ring at the same cut, in one atomic file — then
// acks every connected producer with its durable offset. With
// replication enabled the checkpoint also appends a barrier record to
// the feed, and producer acks are held down to the attached standbys'
// acknowledged floor: an offset is only acked once BOTH the local file
// and every attached standby have it, so promoting a standby can never
// lose an acked frame.
func (s *Server) CheckpointNow() error {
	if s.cfg.CheckpointPath == "" {
		return fmt.Errorf("server: no checkpoint path configured")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	p := s.pack()
	if p == nil || p.rt == nil {
		return fmt.Errorf("server: no runtime to checkpoint")
	}
	body, sum, err := s.encodeCheckpoint(p, &s.ckptScratch)
	if err != nil {
		return err
	}

	tmp := s.cfg.CheckpointPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(body); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.cfg.CheckpointPath)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}

	if s.repl != nil {
		s.repl.appendBarrier(sum.Offsets)
	}

	// Ack producers with the offsets this checkpoint made durable: a
	// client may trim its replay buffer up to (and resume from) exactly
	// these — never the live offsets, which a crash would rewind.
	s.mu.Lock()
	acks := make(map[net.Conn]int64, len(s.producers))
	for source, c := range s.producers {
		if off, ok := sum.Offsets[source]; ok {
			if s.repl != nil {
				if floor, held := s.repl.ackFloor(source); held && floor < off {
					off = floor
				}
			}
			acks[c] = off
		}
	}
	s.mu.Unlock()
	for c, off := range acks {
		c.Write(binary.AppendUvarint(nil, uint64(off)))
	}
	return nil
}

// restoreEnvelope validates a server checkpoint, seeds the pack's hubs
// from its retained rings, and returns the embedded engine snapshot and
// the fencing epoch it was sealed at.
func (s *Server) restoreEnvelope(p *enginePack, raw []byte) ([]byte, uint64, error) {
	fail := func(what string) ([]byte, uint64, error) {
		return nil, 0, fmt.Errorf("%w: %s", ErrCorruptServerCheckpoint, what)
	}
	if len(raw) < len(serverCkptMagic)+4 || string(raw[:len(serverCkptMagic)]) != serverCkptMagic {
		return fail("bad magic")
	}
	bodyEnd := len(raw) - 4
	if crc32.ChecksumIEEE(raw[:bodyEnd]) != binary.LittleEndian.Uint32(raw[bodyEnd:]) {
		return fail("checksum mismatch")
	}
	rd := bytes.NewReader(raw[len(serverCkptMagic):bodyEnd])
	epoch, err := binary.ReadUvarint(rd)
	if err != nil || epoch == 0 {
		return fail("epoch")
	}
	blobLen, err := binary.ReadUvarint(rd)
	if err != nil || blobLen > uint64(rd.Len()) {
		return fail("engine snapshot length")
	}
	blob := make([]byte, blobLen)
	io.ReadFull(rd, blob)
	nq, err := binary.ReadUvarint(rd)
	if err != nil || nq > uint64(rd.Len()) {
		return fail("query count")
	}
	br := bufio.NewReader(rd)
	var vals []stream.Value // each retained element is decoded only to validate it
	for i := uint64(0); i < nq; i++ {
		name, err := readShortString(br)
		if err != nil {
			return fail("query name")
		}
		h, ok := p.hubs[name]
		if !ok {
			return fail(fmt.Sprintf("snapshot names unregistered query %q", name))
		}
		cut, err := binary.ReadUvarint(br)
		if err != nil {
			return fail("delivery cut")
		}
		n, err := binary.ReadUvarint(br)
		if err != nil || n > cut+1 {
			return fail("retained entry count")
		}
		var payloads [][]byte
		for j := uint64(0); j < n; j++ {
			// The ring is the contiguous run of n deliveries ending at
			// the cut; anything else cannot be addressed by seq.
			seq, err := binary.ReadUvarint(br)
			if err != nil || seq != cut-n+1+j {
				return fail("retained entry seq")
			}
			payload, err := readLenBytes(br)
			if err != nil {
				return fail("retained entry payload")
			}
			var rest []byte
			if _, vals, rest, err = h.codec.DecodeInto(vals, payload); err != nil || len(rest) != 0 {
				return fail("retained entry element")
			}
			payloads = append(payloads, payload)
		}
		h.seed(payloads, cut)
	}
	return blob, epoch, nil
}

// readLenBytes reads one length-prefixed byte string into memory of its
// own, for callers that keep what they read.
func readLenBytes(br *bufio.Reader) ([]byte, error) { return readLenInto(br, nil) }

// readLenInto is readLenBytes into buf's storage, grown when too small:
// for callers that are done with the bytes before they read again.
func readLenInto(br *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<24 {
		return nil, fmt.Errorf("length %d out of range", n)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Shutdown drains gracefully: stop accepting, sever producers (their
// in-flight frames commit), drain the runtime into the hubs, take a
// final checkpoint (whose barrier reaches attached standbys), send the
// feed's end-of-stream record, let subscribers consume the tail, then
// send end-of-stream markers and close. Safe to call once.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return s.Wait()
	}
	s.stopping = true
	producers := make([]net.Conn, 0, len(s.producers))
	for _, c := range s.producers {
		producers = append(producers, c)
	}
	s.mu.Unlock()

	s.cfg.Listener.Close()
	if s.cfg.ReplListener != nil {
		s.cfg.ReplListener.Close()
	}
	close(s.tickStop)
	s.tickWg.Wait()

	if s.stb != nil {
		s.stb.stop()
	}

	for _, c := range producers {
		c.Close()
	}
	s.acceptWg.Wait() // producer ingest committed and done

	p := s.pack()
	var err error
	if p != nil && p.rt != nil {
		p.rt.Close()
		err = p.rt.Wait() // all deliveries have reached the hubs
	}

	if s.cfg.CheckpointPath != "" && p != nil && p.rt != nil {
		if cerr := s.CheckpointNow(); err == nil {
			err = cerr
		}
	}

	drainBy := s.cfg.DrainTimeout
	if drainBy <= 0 {
		drainBy = 10 * time.Second
	}

	// Hand the tail to attached standbys: the final barrier above is
	// already in the feed; the end record tells them the stream is
	// complete (promote-on-end, not crash recovery).
	if s.repl != nil {
		s.repl.appendEnd()
		s.repl.waitDrained(drainBy)
		s.repl.close()
	}
	s.closeReplicaConns()
	s.replWg.Wait()

	// Let connected subscribers consume everything, then end streams.
	if p != nil {
		deadline := time.Now().Add(drainBy)
		for !allDrained(p.hubs) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		for _, h := range p.hubs {
			h.end()
		}
	}
	s.subWg.Wait()

	s.finish(err)
	return err
}

func (s *Server) closeReplicaConns() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.replConns))
	for c := range s.replConns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func allDrained(hubs map[string]*hub) bool {
	for _, h := range hubs {
		if !h.drained() {
			return false
		}
	}
	return true
}

// Kill is the in-process kill -9: the runtime aborts mid-element, every
// connection is severed, nothing further is checkpointed. Use New with
// the same Config (and checkpoint path) to restart in place, or let an
// attached standby promote.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return
	}
	s.stopping = true
	s.killed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	p := s.pack()
	if p != nil && p.rt != nil {
		p.rt.Kill()
	}
	s.cfg.Listener.Close()
	if s.cfg.ReplListener != nil {
		s.cfg.ReplListener.Close()
	}
	close(s.tickStop)
	s.tickWg.Wait()
	if s.stb != nil {
		s.stb.kill()
	}
	if s.repl != nil {
		s.repl.close()
	}
	for _, c := range conns {
		c.Close()
	}
	if p != nil {
		for _, h := range p.hubs {
			h.kill()
		}
	}
	s.acceptWg.Wait()
	s.replWg.Wait()
	s.subWg.Wait()
	var err error
	if p != nil && p.rt != nil {
		p.rt.Close()
		err = p.rt.Wait()
		if errors.Is(err, engine.ErrKilled) {
			err = nil
		}
	}
	s.finish(err)
}

func (s *Server) finish(err error) {
	s.doneMu.Lock()
	defer s.doneMu.Unlock()
	select {
	case <-s.done:
		return
	default:
	}
	s.doneErr = err
	close(s.done)
}

// Wait blocks until the server has fully stopped (Shutdown or Kill)
// and returns its terminal error.
func (s *Server) Wait() error {
	<-s.done
	s.doneMu.Lock()
	defer s.doneMu.Unlock()
	return s.doneErr
}
