package faultinject

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjectedReset is returned by a ChaosConn whose seeded byte budget
// ran out: the underlying connection is closed abruptly, mid-frame if
// that is where the budget landed — the network analogue of an RST.
// Peers observe an ordinary connection error; the injecting side can
// distinguish chaos from real failures by errors.Is against this.
var ErrInjectedReset = errors.New("faultinject: injected connection reset")

// ChaosConfig tunes a seeded network-fault injector. The zero value
// injects nothing; each field enables one fault class.
type ChaosConfig struct {
	// Seed drives every choice the injector makes. The same seed over
	// the same traffic produces the same faults.
	Seed int64
	// PartialReads, when true, makes Read return fewer bytes than
	// requested at seeded points (1 ≤ n ≤ len(p)), exercising callers
	// that wrongly assume one Read per frame.
	PartialReads bool
	// PartialWrites, when true, splits Write into several short writes
	// of the full buffer at seeded points. Write still honours the
	// net.Conn contract (n == len(p) unless an error occurred).
	PartialWrites bool
	// MaxDelay, when positive, injects a seeded latency spike of up to
	// this duration before some reads and writes. Keep it small (tens
	// of microseconds) — it models jitter, not outage.
	MaxDelay time.Duration
	// CutAfter, when positive, arms the reset budget: after roughly
	// CutAfter bytes have crossed the connection (reads + writes), the
	// conn is closed abruptly and ErrInjectedReset returned. CutJitter
	// spreads the exact point uniformly over [CutAfter, CutAfter+CutJitter].
	CutAfter  int
	CutJitter int
}

// ChaosConn wraps a net.Conn with seeded fault injection per
// ChaosConfig. It is safe for the usual net.Conn discipline (one reader
// goroutine, one writer goroutine, Close from anywhere).
type ChaosConn struct {
	net.Conn

	mu     sync.Mutex
	rng    *rand.Rand
	cfg    ChaosConfig
	budget int // remaining bytes until injected reset; -1 = unarmed
	cut    bool
}

// NewChaosConn wraps c. Each conn draws its own fault schedule from
// cfg.Seed; wrap distinct conns with distinct seeds (ChaosDialer does
// this automatically).
func NewChaosConn(c net.Conn, cfg ChaosConfig) *ChaosConn {
	rng := rand.New(rand.NewSource(cfg.Seed))
	budget := -1
	if cfg.CutAfter > 0 {
		budget = cfg.CutAfter
		if cfg.CutJitter > 0 {
			budget += rng.Intn(cfg.CutJitter + 1)
		}
	}
	return &ChaosConn{Conn: c, rng: rng, cfg: cfg, budget: budget}
}

// plan decides, under the lock, what to inject for an I/O of size n:
// a delay, a shortened size, and whether the reset budget just expired.
func (c *ChaosConn) plan(n int, partial bool) (delay time.Duration, allowed int, cut bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cut {
		return 0, 0, true
	}
	if c.cfg.MaxDelay > 0 && c.rng.Intn(4) == 0 {
		delay = time.Duration(c.rng.Int63n(int64(c.cfg.MaxDelay))) + 1
	}
	allowed = n
	if partial && n > 1 && c.rng.Intn(3) == 0 {
		allowed = 1 + c.rng.Intn(n)
	}
	if c.budget >= 0 {
		if c.budget == 0 {
			c.cut = true
			return delay, 0, true
		}
		if allowed > c.budget {
			allowed = c.budget
		}
		c.budget -= allowed
	}
	return delay, allowed, false
}

func (c *ChaosConn) Read(p []byte) (int, error) {
	delay, allowed, cut := c.plan(len(p), c.cfg.PartialReads)
	if cut {
		c.Conn.Close()
		return 0, ErrInjectedReset
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if len(p) > allowed {
		p = p[:allowed]
	}
	return c.Conn.Read(p)
}

func (c *ChaosConn) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		delay, allowed, cut := c.plan(len(p)-written, c.cfg.PartialWrites)
		if cut {
			c.Conn.Close()
			return written, ErrInjectedReset
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		n, err := c.Conn.Write(p[written : written+allowed])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ErrSevered is returned by a NetGate-wrapped conn after Close: the
// link is cut for good and the underlying conn closed.
var ErrSevered = errors.New("faultinject: link severed")

// NetGate wraps a net.Conn with a controllable partition. Hold stalls
// every subsequent Read and Write (traffic parks at the gate; bytes are
// neither lost nor reordered — an I/O already inside the kernel
// completes); Release lets parked and future I/O proceed; Close fails
// parked and future I/O with ErrSevered. It models the two network
// faults ChaosConn cannot: a clean pause (standby lag, GC stall, slow
// link) and a hard partition, both under test control rather than a
// seeded schedule.
type NetGate struct {
	net.Conn

	mu      sync.Mutex
	cond    *sync.Cond
	held    bool
	severed bool
}

// NewNetGate wraps c with an open gate.
func NewNetGate(c net.Conn) *NetGate {
	g := &NetGate{Conn: c}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Hold stalls all subsequent reads and writes until Release or Close.
func (g *NetGate) Hold() {
	g.mu.Lock()
	g.held = true
	g.mu.Unlock()
}

// Release re-opens the gate, letting parked and future I/O proceed.
func (g *NetGate) Release() {
	g.mu.Lock()
	g.held = false
	g.mu.Unlock()
	g.cond.Broadcast()
}

// pass parks while the gate is held and reports whether the link has
// been severed.
func (g *NetGate) pass() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.held && !g.severed {
		g.cond.Wait()
	}
	if g.severed {
		return ErrSevered
	}
	return nil
}

func (g *NetGate) Read(p []byte) (int, error) {
	if err := g.pass(); err != nil {
		return 0, err
	}
	n, err := g.Conn.Read(p)
	if err != nil {
		g.mu.Lock()
		severed := g.severed
		g.mu.Unlock()
		if severed {
			err = ErrSevered
		}
	}
	return n, err
}

func (g *NetGate) Write(p []byte) (int, error) {
	if err := g.pass(); err != nil {
		return 0, err
	}
	n, err := g.Conn.Write(p)
	if err != nil {
		g.mu.Lock()
		severed := g.severed
		g.mu.Unlock()
		if severed {
			err = ErrSevered
		}
	}
	return n, err
}

func (g *NetGate) Close() error {
	g.mu.Lock()
	g.severed = true
	g.mu.Unlock()
	g.cond.Broadcast()
	return g.Conn.Close()
}

// ChaosDialer wraps a dial function so every successful dial yields a
// ChaosConn with a per-conn seed derived from cfg.Seed. Use it to
// inject faults on the client side of a connection (the listener side
// stays clean), e.g. under a reconnecting producer.
func ChaosDialer(dial func() (net.Conn, error), cfg ChaosConfig) func() (net.Conn, error) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(cfg.Seed))
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		perConn := cfg
		perConn.Seed = rng.Int63()
		mu.Unlock()
		return NewChaosConn(c, perConn), nil
	}
}
