package server_test

// Warm-standby replication and horizontal failover acceptance suite.
// The headline (TestStandbyFailoverEquivalence) extends the restart
// crash-equivalence guarantee to promotion: kill the primary at seeded
// points mid-stream, let the warm standby promote itself, let the
// clients rotate over on their own, and require the subscriber-observed
// delivery stream — tuples, punctuations, order, sequence numbers — to
// be element-for-element identical to an uninterrupted single-server
// run. The satellites pin the protocol edges: mid-snapshot feed cuts,
// standby lag gating producer acks, fencing of revived old primaries,
// probe health, and a repeated kill→promote→re-seed soak.

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"punctsafe/internal/faultinject"
	"punctsafe/server"
	"punctsafe/stream"
	"punctsafe/workload"
)

// haNode is one server of a replicated pair/chain, with its socket and
// checkpoint paths allocated up front so client dialers can list every
// candidate address before the server behind it exists.
type haNode struct {
	srv  *server.Server
	sock string // client (data) socket
	repl string // replication socket
	ckpt string
}

func nodePaths(dir, name string) *haNode {
	return &haNode{
		sock: filepath.Join(dir, name+".sock"),
		repl: filepath.Join(dir, name+".repl"),
		ckpt: filepath.Join(dir, name+".ckpt"),
	}
}

func (n *haNode) addr() string { return "unix://" + n.sock }

// haConfig is the shared node configuration: every node (primary or
// standby) gets a replication listener so a promoted standby can feed
// the next standby in turn.
func haConfig(t testing.TB, n *haNode) server.Config {
	t.Helper()
	item, bid := workload.AuctionSchemas()
	return server.Config{
		Listener:       listenUnix(t, n.sock),
		ReplListener:   listenUnix(t, n.repl),
		Build:          buildAuction,
		Schemas:        []*stream.Schema{item, bid},
		CheckpointPath: n.ckpt,
		Advertise:      n.addr(),
	}
}

func startPrimaryNode(t testing.TB, n *haNode) {
	t.Helper()
	cfg := haConfig(t, n)
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.srv = srv
}

// startStandbyNode starts n as a warm standby of `of`. A nil dial uses
// the real unix transport; tests inject chaos or gates through it.
func startStandbyNode(t testing.TB, n *haNode, of *haNode, promote time.Duration, dial func(string) (net.Conn, error)) {
	t.Helper()
	cfg := haConfig(t, n)
	cfg.ReplicaOf = "unix://" + of.repl
	cfg.ReplicaDial = dial
	cfg.PromoteTimeout = promote
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.srv = srv
}

// haDialer lists every node's client address as a failover candidate.
func haDialer(nodes ...*haNode) *server.Dialer {
	d := &server.Dialer{
		MaxRetries: 200,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
	}
	for _, n := range nodes {
		d.Addrs = append(d.Addrs, n.addr())
	}
	return d
}

// waitSynced polls until the node's engine has committed the source up
// to the target wire offset (requires an installed snapshot first).
func waitSynced(t testing.TB, n *haNode, source string, target int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if rt := n.srv.Runtime(); rt != nil && rt.ResumeOffset(source) == target {
			return
		}
		if time.Now().After(deadline) {
			got := int64(-1)
			if rt := n.srv.Runtime(); rt != nil {
				got = rt.ResumeOffset(source)
			}
			t.Fatalf("standby stuck at offset %d, want %d", got, target)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitPromoted(t testing.TB, n *haNode) {
	t.Helper()
	select {
	case <-n.srv.Promoted():
	case <-time.After(10 * time.Second):
		t.Fatal("standby never promoted")
	}
}

// ackAll drives checkpoints until the producer's durable ack floor
// reaches everything it sent — with a standby attached this proves the
// standby acked those offsets too (CheckpointNow gates on its floor).
func ackAll(t testing.TB, srv *server.Server, prod *server.Producer) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for prod.Acked() != prod.Sent() {
		if err := srv.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("ack floor stuck at %d, sent %d", prod.Acked(), prod.Sent())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStandbyReplicationBasic pins the happy path: the standby mirrors
// the primary's state, probes report the right roles, producer acks are
// gated on the standby's durable floor, and a graceful primary shutdown
// hands the cluster over (feed end → standby promotes → clients read
// the complete stream from it).
func TestStandbyReplicationBasic(t *testing.T) {
	feed := auctionFeed()
	want := referenceDeliveries(t, feed)
	dir := t.TempDir()
	p, s := nodePaths(dir, "p"), nodePaths(dir, "s")
	startPrimaryNode(t, p)
	startStandbyNode(t, s, p, 50*time.Millisecond, nil)

	item, bid := workload.AuctionSchemas()
	prod, err := haDialer(p, s).Producer("feed", item, bid)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range feed {
		if err := prod.Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	waitIngested(t, p.srv, prod, "feed")
	ackAll(t, p.srv, prod)
	waitSynced(t, s, "feed", prod.Sent())

	if h, err := (&server.Dialer{Addr: p.addr()}).Probe(); err != nil || h.Role != "primary" || h.Epoch != 1 {
		t.Fatalf("primary probe: %+v, %v", h, err)
	}
	if h, err := (&server.Dialer{Addr: s.addr()}).Probe(); err != nil || h.Role != "standby" {
		t.Fatalf("standby probe: %+v, %v", h, err)
	} else if h.Offsets["feed"] != prod.Sent() {
		t.Fatalf("standby probe offset %d, want %d", h.Offsets["feed"], prod.Sent())
	}

	prod.Close()
	if err := p.srv.Shutdown(); err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
	waitPromoted(t, s) // clean feed end + PromoteTimeout>0 = planned handover
	if !s.srv.IsPrimary() || s.srv.Epoch() != 2 {
		t.Fatalf("promoted standby: primary=%v epoch=%d", s.srv.IsPrimary(), s.srv.Epoch())
	}

	sub, err := haDialer(s).Subscribe(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, errc := collectAsync(sub)
	if err := s.srv.Shutdown(); err != nil {
		t.Fatalf("standby shutdown: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("subscriber: %v", err)
	}
	requireSameStream(t, "handover", deliveryStrings(<-got), want)
	if sub.Epoch() != 2 {
		t.Fatalf("subscriber epoch %d, want 2", sub.Epoch())
	}
}

// TestStandbyFailoverEquivalence is the headline: at each seeded crash
// point the primary is killed mid-stream (engine aborted mid-element,
// sockets severed, feed cut wherever it happens to be), the standby
// promotes after its timeout, and producers and subscribers fail over
// by themselves. The delivered stream must be exact.
func TestStandbyFailoverEquivalence(t *testing.T) {
	feed := auctionFeed()
	want := referenceDeliveries(t, feed)
	for _, k := range faultinject.CrashPoints(len(feed), 3, 9341) {
		k := k
		t.Run(fmt.Sprintf("crash_at_%d", k), func(t *testing.T) {
			runStandbyFailover(t, feed, want, k, 25, nil, false)
		})
	}
	// Kill immediately after the checkpoint barrier: the barrier may be
	// in flight to (or mid-apply on) the standby when the primary dies.
	t.Run("mid_barrier", func(t *testing.T) {
		runStandbyFailover(t, feed, want, len(feed)/2, 0, nil, false)
	})
}

// TestStandbyFailoverChaos repeats the failover with chaos on every
// wire: clients dial through seeded fault injectors with maximal replay
// duplication (ReplayFromAck), and the standby's own feed connection is
// cut every few KB, forcing repeated reconnect+fresh-snapshot cycles
// before (and racing with) the kill.
func TestStandbyFailoverChaos(t *testing.T) {
	feed := auctionFeed()
	want := referenceDeliveries(t, feed)
	for i, k := range faultinject.CrashPoints(len(feed), 2, 5519) {
		k, seed := k, int64(4400+i)
		t.Run(fmt.Sprintf("crash_at_%d", k), func(t *testing.T) {
			// The cut budget must be able to exceed the whole feed's wire
			// size (9.7 KB): when the checkpoint finds the standby's ack
			// floor at 0, ReplayFromAck replays from offset 0 inside
			// every reconnect, and a budget capped below that can never
			// complete one.
			chaos := faultinject.ChaosConfig{
				Seed:         seed,
				PartialReads: true, PartialWrites: true,
				MaxDelay: 50 * time.Microsecond,
				CutAfter: 4096, CutJitter: 8192,
			}
			runStandbyFailover(t, feed, want, k, 25, &chaos, true)
		})
	}
}

func runStandbyFailover(t *testing.T, feed []workload.Input, want []string, k, post int, chaos *faultinject.ChaosConfig, replayFromAck bool) {
	dir := t.TempDir()
	p, s := nodePaths(dir, "p"), nodePaths(dir, "s")
	startPrimaryNode(t, p)

	var replicaDial func(string) (net.Conn, error)
	if chaos != nil {
		// The standby's feed connection gets its own chaos budget: each
		// cut forces a reconnect with a fresh snapshot install.
		feedChaos := *chaos
		feedChaos.Seed = chaos.Seed + 2
		feedChaos.CutAfter, feedChaos.CutJitter = 16384, 8192
		base := func() (net.Conn, error) { return net.Dial("unix", p.repl) }
		cd := faultinject.ChaosDialer(base, feedChaos)
		replicaDial = func(string) (net.Conn, error) { return cd() }
	}
	startStandbyNode(t, s, p, 40*time.Millisecond, replicaDial)

	item, bid := workload.AuctionSchemas()
	subDl, prodDl := haDialer(p, s), haDialer(p, s)
	if chaos != nil {
		mk := func(seedShift int64) func(string) (net.Conn, error) {
			cfg := *chaos
			cfg.Seed += seedShift
			var n atomic.Int64
			return func(addr string) (net.Conn, error) {
				c, err := net.Dial("unix", addr[len("unix://"):])
				if err != nil {
					return nil, err
				}
				per := cfg
				per.Seed += n.Add(1)
				return faultinject.NewChaosConn(c, per), nil
			}
		}
		prodDl.DialAddr = mk(0)
		subDl.DialAddr = mk(1)
	}

	sub, err := subDl.Subscribe(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Collect by count, not by end-of-stream: the subscriber may still be
	// mid-reconnect when the test would otherwise shut the promoted
	// standby down, and a drain only reaches subscribers that are
	// attached. Once all deliveries have arrived it is provably attached,
	// and the non-chaos path then verifies the clean drain explicitly.
	got, errc := collectNAsync(sub, len(want))

	prod, err := prodDl.Producer("feed", item, bid)
	if err != nil {
		t.Fatal(err)
	}
	prod.ReplayFromAck = replayFromAck
	send := func(from, to int) {
		for _, it := range feed[from:to] {
			if err := prod.Send(it.Stream, it.Elem); err != nil {
				t.Fatal(err)
			}
		}
		if err := prod.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Make sure the standby is attached before the first checkpoint so
	// producer acks are gated on its floor from the start.
	waitSynced(t, s, "feed", 0)

	send(0, k)
	waitIngested(t, p.srv, prod, "feed")
	if err := p.srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	cut := k + post
	if cut > len(feed) {
		cut = len(feed)
	}
	send(k, cut)

	p.srv.Kill() // primary dead: feed severed wherever it happens to be
	waitPromoted(t, s)

	send(cut, len(feed))
	waitIngested(t, s.srv, prod, "feed")
	if prod.Epoch() != 2 {
		t.Fatalf("producer epoch %d after failover, want 2", prod.Epoch())
	}
	prod.Close()

	if err := <-errc; err != nil {
		t.Fatalf("subscriber after failover: %v", err)
	}
	requireSameStream(t, "standby-failover", deliveryStrings(<-got), want)
	if err := s.srv.Shutdown(); err != nil {
		t.Fatalf("standby shutdown: %v", err)
	}
	if chaos == nil {
		// The attached subscriber must see the drain as a clean
		// end-of-stream (under chaos an injected reset may sever it).
		if _, err := sub.Next(); err != io.EOF {
			t.Fatalf("want io.EOF after standby drain, got %v", err)
		}
	}
	sub.Close()
}

// TestMidSnapshotCrashPromotion cuts the replica handshake mid-snapshot
// transfer (twice), requires the standby to recover by redialing for a
// fresh snapshot, and then proves the eventual promotion still serves
// the exact stream.
func TestMidSnapshotCrashPromotion(t *testing.T) {
	feed := auctionFeed()
	want := referenceDeliveries(t, feed)
	dir := t.TempDir()
	p, s := nodePaths(dir, "p"), nodePaths(dir, "s")
	startPrimaryNode(t, p)

	item, bid := workload.AuctionSchemas()
	prod, err := haDialer(p).Producer("feed", item, bid)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range feed {
		if err := prod.Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	waitIngested(t, p.srv, prod, "feed") // snapshot will be comfortably over the cut budget

	var dials atomic.Int64
	dial := func(string) (net.Conn, error) {
		c, err := net.Dial("unix", p.repl)
		if err != nil {
			return nil, err
		}
		n := dials.Add(1)
		if n <= 2 {
			// The snapshot is several KB: a ~300-byte budget lands the
			// cut inside the snapshot read.
			return faultinject.NewChaosConn(c, faultinject.ChaosConfig{
				Seed: 100 + n, CutAfter: 250, CutJitter: 100,
			}), nil
		}
		return c, nil
	}
	startStandbyNode(t, s, p, 40*time.Millisecond, dial)
	waitSynced(t, s, "feed", prod.Sent())
	if n := dials.Load(); n < 3 {
		t.Fatalf("standby synced in %d dials; the mid-snapshot cuts never fired", n)
	}
	prod.Close()

	p.srv.Kill()
	waitPromoted(t, s)
	sub, err := haDialer(s).Subscribe(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, errc := collectAsync(sub)
	if err := s.srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("subscriber: %v", err)
	}
	requireSameStream(t, "mid-snapshot", deliveryStrings(<-got), want)
}

// TestStandbyLagHoldsAcks pins the exactly-once ack gate: while the
// standby's feed is partitioned (held, not severed), primary
// checkpoints must NOT ack producers past the standby's durable floor —
// otherwise a producer could trim bytes that a subsequent promotion
// has never seen. Releasing the partition lets the floor catch up.
func TestStandbyLagHoldsAcks(t *testing.T) {
	feed := auctionFeed()
	dir := t.TempDir()
	p, s := nodePaths(dir, "p"), nodePaths(dir, "s")
	startPrimaryNode(t, p)

	var gateMu atomic.Pointer[faultinject.NetGate]
	dial := func(string) (net.Conn, error) {
		c, err := net.Dial("unix", p.repl)
		if err != nil {
			return nil, err
		}
		g := faultinject.NewNetGate(c)
		gateMu.Store(g)
		return g, nil
	}
	startStandbyNode(t, s, p, 0, dial) // no auto-promotion: pure replication

	item, bid := workload.AuctionSchemas()
	prod, err := haDialer(p).Producer("feed", item, bid)
	if err != nil {
		t.Fatal(err)
	}
	half := len(feed) / 2
	for _, it := range feed[:half] {
		if err := prod.Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, p.srv, prod, "feed")
	ackAll(t, p.srv, prod)
	floor := prod.Acked()
	waitSynced(t, s, "feed", floor)

	gateMu.Load().Hold() // partition: the standby can neither read the feed nor write acks

	for _, it := range feed[half:] {
		if err := prod.Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, p.srv, prod, "feed")
	for i := 0; i < 3; i++ {
		if err := p.srv.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := prod.Acked(); got != floor {
		t.Fatalf("acks advanced to %d during standby partition (floor %d): promotion could lose acked frames", got, floor)
	}

	gateMu.Load().Release()
	ackAll(t, p.srv, prod)
	if prod.Acked() != prod.Sent() {
		t.Fatalf("acks stuck at %d after release, sent %d", prod.Acked(), prod.Sent())
	}

	prod.Close()
	s.srv.Kill()
	if err := p.srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestFencingDuelingPrimaries revives a killed old primary from its own
// checkpoint after the standby has promoted, and requires the fencing
// epoch to keep it harmless: clients that have seen the new epoch
// refuse it (and fence it in passing), fresh clients get bounced to a
// live address, and its probe admits it is fenced.
func TestFencingDuelingPrimaries(t *testing.T) {
	feed := auctionFeed()
	want := referenceDeliveries(t, feed)
	dir := t.TempDir()
	a, b := nodePaths(dir, "a"), nodePaths(dir, "b")
	startPrimaryNode(t, a)
	startStandbyNode(t, b, a, 0, nil) // manual promotion

	item, bid := workload.AuctionSchemas()
	prod, err := haDialer(a, b).Producer("feed", item, bid)
	if err != nil {
		t.Fatal(err)
	}
	half := len(feed) / 2
	for _, it := range feed[:half] {
		if err := prod.Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, a.srv, prod, "feed")
	ackAll(t, a.srv, prod) // also guarantees a.ckpt exists for the revival

	a.srv.Kill()
	if err := b.srv.Promote(); err != nil {
		t.Fatal(err)
	}
	waitPromoted(t, b)
	if got := b.srv.Epoch(); got != 2 {
		t.Fatalf("promoted epoch %d, want 2", got)
	}
	for _, it := range feed[half:] {
		if err := prod.Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, b.srv, prod, "feed")
	if prod.Epoch() != 2 {
		t.Fatalf("producer epoch %d after promotion, want 2", prod.Epoch())
	}

	// Revive the dead primary from its checkpoint: it comes back at
	// epoch 1, convinced it is still the primary.
	cfg := haConfig(t, a)
	revived, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !revived.IsPrimary() || revived.Epoch() != 1 {
		t.Fatalf("revived: primary=%v epoch=%d, want primary at epoch 1", revived.IsPrimary(), revived.Epoch())
	}

	// A client that has seen epoch 2 rejects the stale server — and its
	// epoch-2 hello fences it in passing.
	staleDl := haDialer(a)
	staleDl.MaxRetries = 2
	staleDl.MinEpoch = 2
	if _, err := staleDl.Producer("feed2", item, bid); err == nil {
		t.Fatal("epoch-2 client accepted the revived epoch-1 primary")
	} else if !contains(err, server.ErrFenced) {
		t.Fatalf("want a fencing rejection, got %v", err)
	}
	if revived.IsPrimary() {
		t.Fatal("revived primary still claims the primary role after seeing epoch 2")
	}
	if h, err := (&server.Dialer{Addr: a.addr()}).Probe(); err != nil || h.Role != "fenced" {
		t.Fatalf("revived probe: %+v, %v", h, err)
	}

	// A fresh client listing both addresses bounces off the fenced
	// server and lands on the real primary.
	sub, err := haDialer(a, b).Subscribe(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Epoch() != 2 {
		t.Fatalf("fresh subscriber landed at epoch %d, want 2", sub.Epoch())
	}
	got, errc := collectAsync(sub)
	prod.Close()
	revived.Kill()
	if err := b.srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("subscriber: %v", err)
	}
	requireSameStream(t, "fencing", deliveryStrings(<-got), want)
}

// TestFailoverSoak runs repeated kill→promote→new-standby cycles over
// one continuous stream: each round the primary is killed mid-stream,
// the standby promotes, a fresh standby is seeded from the new primary,
// and the clients follow along. The final stream must be exact and the
// epoch must have advanced once per promotion. SOAKFAILOVER_CYCLES
// raises the round count (make soakfailover).
func TestFailoverSoak(t *testing.T) {
	cycles := 3
	if v := os.Getenv("SOAKFAILOVER_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad SOAKFAILOVER_CYCLES %q", v)
		}
		cycles = n
	}
	feed := auctionFeed()
	want := referenceDeliveries(t, feed)
	dir := t.TempDir()

	nodes := make([]*haNode, cycles+2)
	for i := range nodes {
		nodes[i] = nodePaths(dir, fmt.Sprintf("n%d", i))
	}
	startPrimaryNode(t, nodes[0])
	startStandbyNode(t, nodes[1], nodes[0], 40*time.Millisecond, nil)

	dl := haDialer(nodes...)
	sub, err := dl.Subscribe(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	// By count, not end-of-stream: the final drain must not start until
	// the subscriber has provably caught up (see runStandbyFailover).
	got, errc := collectNAsync(sub, len(want))

	item, bid := workload.AuctionSchemas()
	prod, err := haDialer(nodes...).Producer("feed", item, bid)
	if err != nil {
		t.Fatal(err)
	}

	chunk := (len(feed) + cycles) / (cycles + 1)
	sent := 0
	for cycle := 0; cycle <= cycles; cycle++ {
		primary, standby := nodes[cycle], nodes[cycle+1]
		to := sent + chunk
		if cycle == cycles || to > len(feed) {
			to = len(feed)
		}
		waitSynced(t, standby, "feed", prod.Sent()) // standby attached before acks flow
		for _, it := range feed[sent:to] {
			if err := prod.Send(it.Stream, it.Elem); err != nil {
				t.Fatal(err)
			}
		}
		if err := prod.Flush(); err != nil {
			t.Fatal(err)
		}
		sent = to
		waitIngested(t, primary.srv, prod, "feed")
		ackAll(t, primary.srv, prod)
		if cycle == cycles {
			prod.Close()
			if err := <-errc; err != nil {
				t.Fatalf("subscriber: %v", err)
			}
			requireSameStream(t, "soak", deliveryStrings(<-got), want)
			if err := primary.srv.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if _, err := sub.Next(); err != io.EOF {
				t.Fatalf("want io.EOF after final drain, got %v", err)
			}
			// The clean feed end hands over to the last standby too.
			waitPromoted(t, standby)
			standby.srv.Kill()
			break
		}
		primary.srv.Kill()
		waitPromoted(t, standby)
		if got, wantEpoch := standby.srv.Epoch(), uint64(cycle+2); got != wantEpoch {
			t.Fatalf("cycle %d: promoted epoch %d, want %d", cycle, got, wantEpoch)
		}
		startStandbyNode(t, nodes[cycle+2], standby, 40*time.Millisecond, nil)
	}
	sub.Close()
}

// TestProbe pins the health frame against a plain primary.
func TestProbe(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "s.sock")
	item, bid := workload.AuctionSchemas()
	srv, err := server.New(server.Config{
		Listener: listenUnix(t, sock),
		Build:    buildAuction,
		Schemas:  []*stream.Schema{item, bid},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()

	dl := testDialer(sock)
	prod, err := dl.Producer("feed", item, bid)
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	for _, it := range auctionFeed()[:10] {
		if err := prod.Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	waitIngested(t, srv, prod, "feed")

	h, err := testDialer(sock).Probe()
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "primary" || h.Epoch != 1 {
		t.Fatalf("probe: %+v", h)
	}
	if h.Offsets["feed"] != prod.Sent() {
		t.Fatalf("probe offset %d, want %d", h.Offsets["feed"], prod.Sent())
	}
}
