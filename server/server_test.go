package server_test

// The serving-layer acceptance suite. The headline test extends the
// engine's crash-equivalence guarantee across the network boundary:
// kill the server mid-stream at seeded crash points, restart it from
// the latest checkpoint, let the clients reconnect on their own, and
// require the subscriber-observed delivery stream — tuples,
// punctuations, order, and sequence numbers — to be element-for-element
// identical to an uninterrupted run. Zero loss, zero duplicates.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"punctsafe/engine"
	"punctsafe/internal/faultinject"
	"punctsafe/server"
	"punctsafe/stream"
	"punctsafe/workload"
)

const testQuery = "auction"

func buildAuction(d *engine.DSMS) error {
	for _, s := range workload.AuctionSchemes().All() {
		d.RegisterScheme(s)
	}
	_, err := d.Register(testQuery, workload.AuctionQuery(), engine.Options{EnforcePromises: true})
	return err
}

func auctionFeed() []workload.Input {
	return workload.Auction(workload.AuctionConfig{
		Items: 60, MaxBidsPerItem: 4, OpenWindow: 3,
		PunctuateItems: true, PunctuateClose: true, Seed: 11,
	})
}

// referenceDeliveries runs the query in-process, uninterrupted, and
// returns every delivery as "seq|elem" in order — the ground truth the
// network path must reproduce exactly.
func referenceDeliveries(t testing.TB, feed []workload.Input) []string {
	t.Helper()
	d := engine.New()
	if err := buildAuction(d); err != nil {
		t.Fatal(err)
	}
	reg, _ := d.Get(testQuery)
	var out []string
	reg.SetDeliveryHook(func(seq uint64, e stream.Element) {
		out = append(out, fmt.Sprintf("%d|%s", seq, e))
	})
	rt := d.RunSharded(engine.RuntimeOptions{})
	for _, it := range feed {
		if err := rt.Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	rt.Close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	return out
}

func listenUnix(t testing.TB, path string) net.Listener {
	t.Helper()
	os.Remove(path)
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func testDialer(addr string) *server.Dialer {
	// Generous retries: a failover test window spans a kill, a restart,
	// and an engine restore.
	return &server.Dialer{
		Addr:       "unix://" + addr,
		MaxRetries: 100,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
	}
}

// collectAsync drains a subscriber until EOF on its own goroutine.
func collectAsync(sub *server.Subscriber) (<-chan []server.Delivery, <-chan error) {
	out := make(chan []server.Delivery, 1)
	errc := make(chan error, 1)
	go func() {
		ds, err := sub.Collect()
		out <- ds
		errc <- err
	}()
	return out, errc
}

// collectNAsync gathers exactly n deliveries then stops — for chaos
// runs, where the clean end-of-stream marker may be severed by an
// injected reset and the expected count is known up front. Loss still
// fails (fewer than n arrive → timeout), duplication still fails (Next
// yields strictly increasing seqs, so an extra delivery would displace
// an expected one in the comparison). Next lends each delivery, so it
// keeps copies, as Collect does.
func collectNAsync(sub *server.Subscriber, n int) (<-chan []server.Delivery, <-chan error) {
	out := make(chan []server.Delivery, 1)
	errc := make(chan error, 1)
	go func() {
		var ds []server.Delivery
		var err error
		for len(ds) < n {
			var d server.Delivery
			if d, err = sub.Next(); err != nil {
				break
			}
			d.Elem = d.Elem.Clone()
			ds = append(ds, d)
		}
		if err == io.EOF {
			err = nil
		}
		out <- ds
		errc <- err
	}()
	return out, errc
}

// waitIngested polls until the server has committed every byte the
// producer encoded.
func waitIngested(t testing.TB, s *server.Server, p *server.Producer, source string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Runtime().ResumeOffset(source) != p.Sent() {
		// Re-flush each round: an idle producer only notices a dead
		// connection (and replays) when it next touches it.
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("server stuck at offset %d, producer sent %d",
				s.Runtime().ResumeOffset(source), p.Sent())
		}
		time.Sleep(time.Millisecond)
	}
}

func deliveryStrings(ds []server.Delivery) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%d|%s", d.Seq, d.Elem)
	}
	return out
}

func requireSameStream(t testing.TB, label string, got, want []string) {
	t.Helper()
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: delivery %d: got %q, want %q", label, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: got %d deliveries, want %d", label, len(got), len(want))
	}
}

func TestServeBasic(t *testing.T) {
	feed := auctionFeed()
	want := referenceDeliveries(t, feed)

	dir := t.TempDir()
	sock := filepath.Join(dir, "s.sock")
	item, bid := workload.AuctionSchemas()
	srv, err := server.New(server.Config{
		Listener:       listenUnix(t, sock),
		Build:          buildAuction,
		Schemas:        []*stream.Schema{item, bid},
		CheckpointPath: filepath.Join(dir, "ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}

	dl := testDialer(sock)
	sub, err := dl.Subscribe(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, errc := collectAsync(sub)

	prod, err := dl.Producer("feed", item, bid)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range feed {
		if err := prod.Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	waitIngested(t, srv, prod, "feed")
	prod.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("subscriber: %v", err)
	}
	requireSameStream(t, "basic", deliveryStrings(<-got), want)
}

// TestServeSQLProjection serves a SQL view with a two-column select list:
// the subscriber is told the projected schema and receives exactly the
// tuples an in-process OnResult run of the same script receives, under
// consecutive sequence numbers (a punctuation the projection absorbs is
// not delivered and takes none).
func TestServeSQLProjection(t *testing.T) {
	const script = `
CREATE STREAM item (sellerid INT, itemid INT, name STRING, initialprice FLOAT);
CREATE STREAM bid (bidderid INT, itemid INT, increase FLOAT);
DECLARE SCHEME ON item (itemid);
DECLARE SCHEME ON bid (itemid);
SELECT item.itemid, bid.increase FROM item, bid WHERE item.itemid = bid.itemid;
`
	feed := auctionFeed()
	var want []string
	d := engine.New()
	if _, err := d.RegisterSQL("v", script, engine.Options{OnResult: func(tu stream.Tuple) {
		want = append(want, stream.TupleElement(tu).String())
	}}); err != nil {
		t.Fatal(err)
	}
	for _, in := range feed {
		if err := d.Push(in.Stream, in.Elem); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	sock := filepath.Join(t.TempDir(), "s.sock")
	item, bid := workload.AuctionSchemas()
	srv, err := server.New(server.Config{
		Listener: listenUnix(t, sock),
		Build: func(d *engine.DSMS) error {
			_, err := d.RegisterSQL("v", script, engine.Options{})
			return err
		},
		Schemas: []*stream.Schema{item, bid},
	})
	if err != nil {
		t.Fatal(err)
	}
	dl := testDialer(sock)
	sub, err := dl.Subscribe("v#1")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Schema().Arity() != 2 {
		t.Fatalf("subscriber was told the schema %s, want the two projected columns", sub.Schema())
	}
	got, errc := collectAsync(sub)
	prod, err := dl.Producer("feed", item, bid)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range feed {
		if err := prod.Send(in.Stream, in.Elem); err != nil {
			t.Fatal(err)
		}
	}
	waitIngested(t, srv, prod, "feed")
	prod.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("subscriber: %v", err)
	}
	var tuples []string
	for i, dv := range <-got {
		if dv.Seq != uint64(i+1) {
			t.Fatalf("delivery %d carries seq %d", i, dv.Seq)
		}
		if !dv.Elem.IsPunct() {
			tuples = append(tuples, dv.Elem.String())
		}
	}
	requireSameStream(t, "projected view", tuples, want)
}

// TestCrashFailoverEquivalence is the acceptance headline: at each
// seeded crash point the server checkpoints, keeps serving, is killed
// mid-stream (engine aborted mid-element, every socket severed, no
// goodbye), restarts from the checkpoint file, and the clients
// reconnect and resume by themselves. The subscriber must observe the
// exact uninterrupted delivery stream.
func TestCrashFailoverEquivalence(t *testing.T) {
	feed := auctionFeed()
	want := referenceDeliveries(t, feed)
	for _, k := range faultinject.CrashPoints(len(feed), 3, 1207) {
		k := k
		t.Run(fmt.Sprintf("crash_at_%d", k), func(t *testing.T) {
			runFailover(t, feed, want, k, nil, false)
		})
	}
}

// TestCrashFailoverChaos repeats the failover run with a chaos dialer
// on both clients (partial reads/writes, latency spikes, injected
// resets every few KB) and maximal replay duplication
// (ReplayFromAck): every reconnect resends from the durable ack floor,
// so the server's offset dedup and the subscriber's seq dedup are both
// exercised hard. The delivered stream must still be exact.
func TestCrashFailoverChaos(t *testing.T) {
	feed := auctionFeed()
	want := referenceDeliveries(t, feed)
	ks := faultinject.CrashPoints(len(feed), 2, 4099)
	for i, k := range ks {
		k, seed := k, int64(7300+i)
		t.Run(fmt.Sprintf("crash_at_%d", k), func(t *testing.T) {
			chaos := faultinject.ChaosConfig{
				Seed:         seed,
				PartialReads: true, PartialWrites: true,
				MaxDelay: 50 * time.Microsecond,
				CutAfter: 4096, CutJitter: 4096,
			}
			runFailover(t, feed, want, k, &chaos, true)
		})
	}
}

func runFailover(t *testing.T, feed []workload.Input, want []string, k int, chaos *faultinject.ChaosConfig, replayFromAck bool) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "s.sock")
	ckpt := filepath.Join(dir, "ckpt")
	item, bid := workload.AuctionSchemas()
	cfg := server.Config{
		Build:          buildAuction,
		Schemas:        []*stream.Schema{item, bid},
		CheckpointPath: ckpt,
	}

	cfg.Listener = listenUnix(t, sock)
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dl := testDialer(sock)
	subDl, prodDl := dl, dl
	if chaos != nil {
		// ChaosDialer needs a base dial func; build it from the addr.
		base := func() (net.Conn, error) { return net.Dial("unix", sock) }
		p, s := *dl, *dl
		c1, c2 := *chaos, *chaos
		c2.Seed = chaos.Seed + 1
		p.Dial = faultinject.ChaosDialer(base, c1)
		s.Dial = faultinject.ChaosDialer(base, c2)
		prodDl, subDl = &p, &s
	}

	sub, err := subDl.Subscribe(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Collect by count, not by end-of-stream: after the kill the
	// subscriber is in reconnect backoff, and a Shutdown that raced it
	// would end the stream before it re-attached.
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

	send(0, k)
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// Hold the last element back for the restarted server: it yields the
	// final deliveries, so a subscriber that has them all is provably
	// attached to srv2 when the drain below starts.
	post := k + 25
	if post > len(feed)-1 {
		post = len(feed) - 1
	}
	send(k, post)

	srv.Kill() // engine aborted mid-element, sockets severed

	cfg.Listener = listenUnix(t, sock)
	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	send(post, len(feed))
	waitIngested(t, srv2, prod, "feed")
	prod.Close()
	if err := <-errc; err != nil {
		t.Fatalf("subscriber after failover: %v", err)
	}
	requireSameStream(t, "failover", deliveryStrings(<-got), want)
	if chaos != nil {
		// Under chaos the end marker itself can be severed mid-write,
		// and the shut-down server is not there to resume from.
		sub.Close()
	}
	if err := srv2.Shutdown(); err != nil {
		t.Fatalf("shutdown after failover: %v", err)
	}
	if chaos == nil {
		if d, err := sub.Next(); err != io.EOF {
			t.Fatalf("after shutdown: got delivery %v, err %v; want a clean end of stream", d, err)
		}
	}
}

func TestSourceBusy(t *testing.T) {
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
	p1, err := dl.Producer("feed", item, bid)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	dl2 := testDialer(sock)
	dl2.MaxRetries = 1
	if _, err := dl2.Producer("feed", item, bid); err == nil {
		t.Fatal("second producer for the same source was accepted")
	} else if !errors.Is(err, server.ErrRejected) && !contains(err, server.ErrSourceBusy) {
		t.Fatalf("want a source-busy rejection, got %v", err)
	}
}

func TestUnknownQuery(t *testing.T) {
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
	dl.MaxRetries = 1
	if _, err := dl.Subscribe("nope"); err == nil {
		t.Fatal("subscribing to an unknown query succeeded")
	} else if !contains(err, server.ErrUnknownQuery) {
		t.Fatalf("want an unknown-query rejection, got %v", err)
	}
}

func contains(err, sentinel error) bool {
	return err != nil && sentinel != nil &&
		len(err.Error()) >= len(sentinel.Error()) &&
		(errors.Is(err, sentinel) || stringsContains(err.Error(), sentinel.Error()))
}

func stringsContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSubscriberReconnectResume severs the subscriber's connection
// mid-stream (without touching the server) and requires Next to resume
// without loss or duplication.
func TestSubscriberReconnectResume(t *testing.T) {
	feed := auctionFeed()
	want := referenceDeliveries(t, feed)

	dir := t.TempDir()
	sock := filepath.Join(dir, "s.sock")
	item, bid := workload.AuctionSchemas()
	srv, err := server.New(server.Config{
		Listener:       listenUnix(t, sock),
		Build:          buildAuction,
		Schemas:        []*stream.Schema{item, bid},
		CheckpointPath: filepath.Join(dir, "ckpt"),
		Retain:         1 << 16, // keep everything: this test lags on purpose
		QueueLimit:     1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A chaos dialer with a byte budget: the subscriber's conn is cut
	// every ~2KB, mid-frame wherever the budget lands.
	base := func() (net.Conn, error) { return net.Dial("unix", sock) }
	dl := testDialer(sock)
	dl.Dial = faultinject.ChaosDialer(base, faultinject.ChaosConfig{
		Seed: 99, CutAfter: 2048, CutJitter: 1024,
	})
	sub, err := dl.Subscribe(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, errc := collectNAsync(sub, len(want))

	prodDl := testDialer(sock)
	prod, err := prodDl.Producer("feed", item, bid)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range feed {
		if err := prod.Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	waitIngested(t, srv, prod, "feed")
	prod.Close()
	if err := <-errc; err != nil {
		t.Fatalf("subscriber: %v", err)
	}
	requireSameStream(t, "reconnect-resume", deliveryStrings(<-got), want)
	sub.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestProducerAcksTrimBuffer pins the durability contract: acks carry
// only checkpoint-committed offsets, and the replay buffer shrinks to
// the unacked suffix.
func TestProducerAcksTrimBuffer(t *testing.T) {
	feed := auctionFeed()
	dir := t.TempDir()
	sock := filepath.Join(dir, "s.sock")
	item, bid := workload.AuctionSchemas()
	srv, err := server.New(server.Config{
		Listener:       listenUnix(t, sock),
		Build:          buildAuction,
		Schemas:        []*stream.Schema{item, bid},
		CheckpointPath: filepath.Join(dir, "ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}

	dl := testDialer(sock)
	prod, err := dl.Producer("feed", item, bid)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range feed {
		if err := prod.Send(it.Stream, it.Elem); err != nil {
			t.Fatal(err)
		}
	}
	waitIngested(t, srv, prod, "feed")
	if prod.Acked() > 0 {
		t.Fatalf("acked %d bytes before any checkpoint", prod.Acked())
	}
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for prod.Acked() != prod.Sent() {
		if time.Now().After(deadline) {
			t.Fatalf("ack stuck at %d, sent %d", prod.Acked(), prod.Sent())
		}
		time.Sleep(time.Millisecond)
	}
	if prod.Buffered() != 0 {
		t.Fatalf("replay buffer holds %d bytes past the ack floor", prod.Buffered())
	}
	prod.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdownEndsSubscribers pins the drain order: Shutdown
// must deliver everything already ingested, then send the end marker.
func TestGracefulShutdownEndsSubscribers(t *testing.T) {
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
	dl := testDialer(sock)
	sub, err := dl.Subscribe(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var subErr error
	go func() {
		defer wg.Done()
		_, subErr = sub.Collect()
	}()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if subErr != nil && subErr != io.EOF {
		t.Fatalf("subscriber did not end cleanly: %v", subErr)
	}
}
