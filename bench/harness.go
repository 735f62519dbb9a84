package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"punctsafe/engine"
	"punctsafe/server"
	"punctsafe/stream"
)

const (
	queryName  = "q"
	sourceName = "bench"
)

var (
	// outDir holds everything a run writes: result and trace files, and
	// the server passes' socket and checkpoint files. It is relative to
	// the working directory so the socket path stays under the 108-byte
	// sun_path limit wherever the checkout lives.
	outDir = "bench/out"
)

// consumer is the receiving end of every pass: it counts and checksums
// the results for the oracle check and, in the paced phase, times each
// result from the due time of its newest input. It is fed by exactly one
// goroutine (the shard worker, the partition merger, or the subscriber
// loop); the sender reads received and newest, and everything else only
// after the pipeline has drained.
type consumer struct {
	idxCols  []int // output columns that carry an input's send index
	received atomic.Int64
	checksum uint64

	// Paced phase only (clk == nil otherwise).
	clk     clock
	perTick int
	lat     []int64      // ns from due time to delivery, one per result
	newest  atomic.Int64 // highest send index seen in any result
}

func sendIndex(v stream.Value) int {
	if v.Kind() == stream.KindFloat {
		return int(v.AsFloat())
	}
	return int(v.AsInt())
}

func (c *consumer) onResult(t stream.Tuple) {
	c.checksum += hashTuple(t.Values)
	if c.clk != nil {
		newest := 0
		for _, col := range c.idxCols {
			if i := sendIndex(t.Values[col]); i > newest {
				newest = i
			}
		}
		c.lat = append(c.lat, int64(c.clk.Now()-dueOf(newest, c.perTick)))
		if int64(newest) > c.newest.Load() {
			c.newest.Store(int64(newest))
		}
	}
	c.received.Add(1)
}

// pipeline is the system under test behind one way of feeding it.
type pipeline interface {
	// send hands the system a run of elements of stream s.
	send(s int, elems []stream.Element) error
	// flush forces buffered sends out; the paced phase calls it per tick.
	flush() error
	// drain returns once every element sent has been fully processed
	// and, as far as the system can tell, every result delivered; expect
	// is the number of results the oracle says are coming.
	drain(expect int) error
	// stop shuts the system down; further calls return the same error.
	stop() error
	// query is the registered query's handle; its state counters may be
	// read once stop has returned.
	query() *engine.Registered
}

func register(d *engine.DSMS, f *feed, partitions int, onResult func(stream.Tuple)) (*engine.Registered, error) {
	for _, s := range f.schemes.All() {
		d.RegisterScheme(s)
	}
	return d.Register(queryName, f.q, engine.Options{
		EnforcePromises: true,
		// Without §5.1 punctuation purging the punctuation store holds
		// every punctuation ever received, and each 20 ms checkpoint
		// serializes all of it: the serving pass turns quadratic in the
		// feed length. Bounded state includes the punctuation store.
		PurgePunctuations: true,
		Partitions:        partitions,
		OnResult:          onResult,
	})
}

// runtimePipe feeds an in-process sharded runtime through SendBatch and
// receives results through Options.OnResult.
type runtimePipe struct {
	f   *feed
	reg *engine.Registered
	rt  *engine.Runtime
}

func startRuntime(f *feed, partitions int, c *consumer) (*runtimePipe, error) {
	d := engine.New()
	reg, err := register(d, f, partitions, c.onResult)
	if err != nil {
		return nil, err
	}
	return &runtimePipe{f: f, reg: reg, rt: d.RunSharded(engine.RuntimeOptions{})}, nil
}

func (p *runtimePipe) send(s int, elems []stream.Element) error {
	return p.rt.SendBatch(p.f.names[s], elems)
}
func (p *runtimePipe) flush() error { return nil }

// drain asks for the query's stats: the request travels through the
// mailbox (every partition's mailbox, for a partitioned query) behind
// every element sent, so its answer means they have all been joined and
// OnResult has run for every result. The runtime stays open.
func (p *runtimePipe) drain(int) error {
	_, err := p.rt.Stats(queryName)
	return err
}
func (p *runtimePipe) stop() error {
	p.rt.Close()
	return p.rt.Wait()
}
func (p *runtimePipe) query() *engine.Registered { return p.reg }

// serverPipe feeds a server.Server over a unix socket with one Producer
// and receives deliveries with one Subscriber, as a punctserve
// deployment would: periodic durable checkpoints (so producer acks and
// replay-buffer trimming run), blocking slow-consumer policy.
type serverPipe struct {
	f       *feed
	c       *consumer
	reg     *engine.Registered
	srv     *server.Server
	prod    *server.Producer
	sub     *server.Subscriber
	subDone chan error
	files   []string
	stopped bool
	stopErr error

	// Traced runs only: how long New took, and the producer's ack lag
	// sampled every millisecond until ackStop is closed.
	startTook time.Duration
	ackLag    []int64
	ackStop   chan struct{}
	ackDone   chan struct{}
}

var pipeSeq atomic.Int64

func startServer(f *feed, partitions int, c *consumer) (*serverPipe, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("p%d-%d", os.Getpid(), pipeSeq.Add(1)))
	sock, ckpt := base+".sock", base+".ckpt"
	p := &serverPipe{f: f, c: c, files: []string{sock, ckpt, ckpt + ".tmp"}, subDone: make(chan error, 1)}
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	p.srv, err = server.New(server.Config{
		Listener: l,
		Build: func(d *engine.DSMS) error {
			reg, err := register(d, f, partitions, nil)
			p.reg = reg
			return err
		},
		Schemas:         f.schemas,
		CheckpointPath:  ckpt,
		CheckpointEvery: 20 * time.Millisecond,
		Slow:            server.SlowBlock, // QueueLimit and Retain stay at the server's defaults
	})
	p.startTook = time.Since(t0)
	if err != nil {
		l.Close()
		p.removeFiles()
		return nil, err
	}
	dialer := func() *server.Dialer {
		return &server.Dialer{Addr: "unix://" + sock, Backoff: 2 * time.Millisecond}
	}
	if p.sub, err = dialer().Subscribe(queryName); err == nil {
		p.prod, err = dialer().Producer(sourceName, f.schemas...)
	}
	if err != nil {
		p.stop()
		return nil, err
	}
	go func() {
		for {
			d, err := p.sub.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				p.subDone <- err
				return
			}
			if !d.Elem.IsPunct() {
				c.onResult(d.Elem.Tuple())
			}
		}
	}()
	return p, nil
}

// sampleAckLag measures, at millisecond resolution, how long a wire
// offset the producer has sent stays unacknowledged: the wait for the
// next durable checkpoint, which also bounds its replay buffer.
func (p *serverPipe) sampleAckLag() {
	p.ackStop, p.ackDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.ackDone)
		type mark struct {
			off int64
			at  time.Time
		}
		var pending []mark
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.ackStop:
				return
			case now := <-t.C:
				acked := p.prod.Acked()
				for len(pending) > 0 && pending[0].off <= acked {
					p.ackLag = append(p.ackLag, int64(now.Sub(pending[0].at)))
					pending = pending[1:]
				}
				if sent := p.prod.Sent(); len(pending) == 0 || sent > pending[len(pending)-1].off {
					pending = append(pending, mark{sent, now})
				}
			}
		}
	}()
}

func (p *serverPipe) send(s int, elems []stream.Element) error {
	name := p.f.names[s]
	for _, e := range elems {
		if err := p.prod.Send(name, e); err != nil {
			return err
		}
	}
	return nil
}

func (p *serverPipe) flush() error { return p.prod.Flush() }

func (p *serverPipe) drain(expect int) error {
	if err := p.prod.Flush(); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	poll := func(what string, done func() bool) error {
		for !done() {
			if time.Now().After(deadline) {
				return fmt.Errorf("server pass: timed out waiting for %s", what)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
	rt := p.srv.Runtime()
	if err := poll("ingest", func() bool { return rt.ResumeOffset(sourceName) == p.prod.Sent() }); err != nil {
		return err
	}
	// The stats request travels through the shard's mailbox behind every
	// ingested element: when it is answered they have all been joined
	// and their results published to the hub.
	if _, err := rt.Stats(queryName); err != nil {
		return err
	}
	return poll("deliveries", func() bool { return p.c.received.Load() >= int64(expect) })
}

func (p *serverPipe) query() *engine.Registered { return p.reg }

func (p *serverPipe) stop() error {
	if p.stopped {
		return p.stopErr
	}
	p.stopped = true
	if p.ackStop != nil {
		close(p.ackStop)
		<-p.ackDone
	}
	if p.prod != nil {
		if err := p.prod.Close(); err != nil {
			p.stopErr = err
		}
	}
	if err := p.srv.Shutdown(); err != nil && p.stopErr == nil {
		p.stopErr = err
	}
	if p.prod != nil { // the subscriber loop runs only once both are connected
		if err := <-p.subDone; err != nil && p.stopErr == nil {
			p.stopErr = err
		}
	}
	if p.sub != nil {
		p.sub.Close()
	}
	p.removeFiles()
	return p.stopErr
}

func (p *serverPipe) removeFiles() {
	for _, name := range p.files {
		os.Remove(name)
	}
}

// start brings up the workload's own pipeline, fresh.
func (l *loaded) start(c *consumer) (pipeline, error) {
	if l.sp.server {
		return startServer(l.f, l.sp.partitions, c)
	}
	return startRuntime(l.f, l.sp.partitions, c)
}

// loaded is a workload made ready by setup: its feed, the reference
// answer, and where the send indexes sit in a result.
type loaded struct {
	sp      *spec
	f       *feed
	layout  []column
	idxCols []int
	want    oracle
}

func (l *loaded) consumer() *consumer { return &consumer{idxCols: l.idxCols} }

// setup does everything a pass needs done first — generate the feed from
// the seed, register the query (safety check, plan choice), start the
// runtime or server and connect to it, compute the reference answer —
// and reports how long that took. The pipeline it started is shut down
// again outside the timed part; every pass starts its own.
func setup(sp *spec, seed int64, n int) (*loaded, time.Duration, error) {
	t0 := time.Now()
	l := &loaded{sp: sp, f: makeFeed(sp, seed, n)}
	p, err := l.start(l.consumer())
	if err != nil {
		return nil, 0, err
	}
	defer p.stop()
	if l.layout, err = outputLayout(l.f.q, p.query().OutputSchema()); err != nil {
		return nil, 0, err
	}
	for c, col := range l.layout {
		if col.attr == sp.payload(l.f.schemas[col.stream]) {
			l.idxCols = append(l.idxCols, c)
		}
	}
	if len(l.idxCols) != l.f.q.N() {
		return nil, 0, fmt.Errorf("%s: %d send-index columns in the output, want %d", sp.name, len(l.idxCols), l.f.q.N())
	}
	l.want = reference(l.f, l.layout)
	took := time.Since(t0)
	if l.want.count == 0 {
		return nil, 0, fmt.Errorf("%s: the reference join is empty; the feed measures nothing", sp.name)
	}
	return l, took, p.stop()
}

// sendAll pushes feed elements [lo, hi) through the pipeline in
// same-stream runs, each call under a span when tracing.
func sendAll(p pipeline, f *feed, lo, hi int, tr *tracer, name spanName, parent int32) (sent int, err error) {
	for i := lo; i < hi; {
		j := f.runEnd(i, min(hi, i+maxRun))
		sp := tr.begin(name, parent)
		err := p.send(int(f.sidx[i]), f.elems[i:j])
		tr.end(sp)
		if err != nil {
			return i - lo, err
		}
		i = j
	}
	return hi - lo, nil
}

// usage is a reading of the process-wide cost counters.
type usage struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	pauseNs uint64
	numGC   uint32
	heap    uint64 // bytes in use; the live heap when read right after runtime.GC
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		pauseNs: ms.PauseTotalNs,
		numGC:   ms.NumGC,
		heap:    ms.HeapAlloc,
	}
}

// pass is what one saturation pass measured.
type pass struct {
	Elements   int     `json:"elements"`
	Seconds    float64 `json:"seconds"`
	CPUSeconds float64 `json:"cpu_seconds"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	GCPauseMs  float64 `json:"gc_pause_ms"`
	GCCycles   uint32  `json:"gc_cycles"`
	StatePeak  int     `json:"state_peak_tuples"`
	FinalState int     `json:"final_state_tuples"`
	Results    int     `json:"results"`
	// HeapRetainedMB is measured in traced passes only.
	HeapRetainedMB float64  `json:"heap_retained_mb,omitempty"`
	Failed         int      `json:"failed"`
	Failures       []string `json:"failures,omitempty"`
}

func (p *pass) fail(n int, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	p.Failed += n
	p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
}

// check compares a finished pass against the oracle.
func (p *pass) check(l *loaded, c *consumer, reg *engine.Registered) {
	p.Results = int(c.received.Load())
	p.StatePeak, p.FinalState = reg.MaxState(), reg.TotalState()
	if d := p.Results - l.want.count; d != 0 {
		p.fail(max(d, -d), "%d results, the reference join has %d", p.Results, l.want.count)
	} else if c.checksum != l.want.checksum {
		p.fail(1, "result checksum %016x, the reference join has %016x", c.checksum, l.want.checksum)
	}
	if p.FinalState != 0 {
		p.fail(p.FinalState, "%d tuples still stored after the closed feed drained", p.FinalState)
	}
}

// saturate runs one closed-loop pass: a fresh pipeline, the whole feed
// sent as fast as backpressure allows by this one goroutine, timed until
// the system has drained. start is the pipeline to use (the workload's
// own, or a ladder rung's variant).
func (l *loaded) saturate(start func(*consumer) (pipeline, error), tr *tracer, name spanName) (pass, error) {
	runtime.GC()
	var heap0 uint64
	if tr != nil {
		heap0 = readUsage().heap
	}
	c := l.consumer()
	p, err := start(c)
	if err != nil {
		return pass{}, err
	}
	defer p.stop()
	n := len(l.f.elems)
	res := pass{Elements: n}
	rung := tr.begin(name, -1)
	before := readUsage()
	sent, err := sendAll(p, l.f, 0, n, tr, spanSend, rung.idx)
	if err == nil {
		d := tr.begin(spanDrain, rung.idx)
		err = p.drain(l.want.count)
		tr.end(d)
	}
	after := readUsage()
	tr.end(rung)
	if err != nil {
		res.fail(n-sent, "send or drain: %v", err)
	}
	res.Seconds = after.at.Sub(before.at).Seconds()
	res.CPUSeconds = (after.cpu - before.cpu).Seconds()
	res.AllocBytes = after.alloc - before.alloc
	res.Mallocs = after.mallocs - before.mallocs
	res.GCPauseMs = float64(after.pauseNs-before.pauseNs) / 1e6
	res.GCCycles = after.numGC - before.numGC
	if tr != nil {
		// What the system holds on to once the feed has been through it
		// and it is still open: the whole-process side of bounded state.
		runtime.GC()
		res.HeapRetainedMB = (float64(readUsage().heap) - float64(heap0)) / (1 << 20)
	}
	if err := p.stop(); err != nil {
		res.fail(1, "shutdown: %v", err)
	}
	res.check(l, c, p.query())
	return res, nil
}

// segment is one open-loop replay of the feed.
type segment struct {
	pass
	Samples int     `json:"latency_samples"`
	P50Ms   float64 `json:"latency_p50_ms"`
	P99Ms   float64 `json:"latency_p99_ms"`
	// WindowP50Ms is the median latency of each tenth of the segment's
	// results, in the order they arrived: what latency_p50_ms is read from.
	WindowP50Ms []float64       `json:"latency_window_p50_ms"`
	BacklogMid  float64         `json:"backlog_mid_elements"`
	BacklogEnd  float64         `json:"backlog_end_elements"`
	lat         []int64         // per result, ns from due time to delivery
	late, wake  []time.Duration // per tick, see pace
}

// pacedSegment replays the whole feed open-loop on a fresh pipeline:
// every tick the elements due in it are sent, however far behind the
// system is, and each result is timed from the due time of its newest
// input. The backlog (elements due by now that no result has been seen
// for: in flight, or held up in the sender) is sampled every tick, for
// pool's sustainability check.
func (l *loaded) pacedSegment() (segment, error) {
	n := len(l.f.elems)
	perTick := l.sp.rate / int(time.Second/tick)
	ticks := (n + perTick - 1) / perTick
	clk := &wallClock{}
	c := l.consumer()
	c.clk, c.perTick = clk, perTick
	c.lat = make([]int64, 0, l.want.count)
	c.newest.Store(-1)
	runtime.GC()
	p, err := l.start(c)
	if err != nil {
		return segment{}, err
	}
	defer p.stop()
	res := segment{pass: pass{Elements: n}}
	backlog := make([]float64, 0, ticks)
	clk.start = time.Now()
	res.late, res.wake, err = pace(clk, ticks, func(k int) error {
		lo := k * perTick
		if _, err := sendAll(p, l.f, lo, min(n, lo+perTick), nil, 0, -1); err != nil {
			return err
		}
		if err := p.flush(); err != nil {
			return err
		}
		due := min(n, (int(clk.Now()/tick)+1)*perTick)
		backlog = append(backlog, float64(int64(due-1)-c.newest.Load()))
		return nil
	})
	if err == nil {
		err = p.drain(l.want.count)
	}
	res.Seconds = clk.Now().Seconds()
	if err != nil {
		res.fail(n, "paced send or drain: %v", err)
	}
	if err := p.stop(); err != nil {
		res.fail(1, "shutdown: %v", err)
	}
	res.check(l, c, p.query())
	res.WindowP50Ms = windowP50s(c.lat)
	slices.Sort(c.lat)
	res.lat, res.Samples = c.lat, len(c.lat)
	res.P50Ms = float64(percentile(c.lat, 50)) / 1e6
	res.P99Ms = float64(percentile(c.lat, 99)) / 1e6

	// Medians over the last twentieth of each half, so one stall (a GC
	// cycle, a checkpoint barrier) at the sampling instant decides little.
	if w := len(backlog) / 20; w > 0 {
		res.BacklogMid = median(backlog[len(backlog)/2-w : len(backlog)/2])
		res.BacklogEnd = median(backlog[len(backlog)-w:])
	}
	return res, nil
}

// windowP50s cuts a segment's latencies, in arrival order, into ten runs
// of equal length (about 100 ms of the feed each; fewer when that would
// leave a run under 32 samples) and returns each run's median in ms. A
// stretch of interference from the host then spoils the windows it falls
// on and not the whole segment.
func windowP50s(lat []int64) []float64 {
	k := max(1, min(10, len(lat)/32))
	out := make([]float64, 0, k)
	for w := 0; w < k && len(lat) > 0; w++ {
		run := slices.Clone(lat[w*len(lat)/k : (w+1)*len(lat)/k])
		slices.Sort(run)
		out = append(out, float64(percentile(run, 50))/1e6)
	}
	return out
}

// pacedResult is the paced phase: its segments' samples pooled.
type pacedResult struct {
	Rate    int     `json:"rate_eps"`
	Seconds float64 `json:"seconds"`
	Samples int     `json:"latency_samples"`
	P50Ms   float64 `json:"latency_p50_ms"`
	P99Ms   float64 `json:"latency_p99_ms"`
	MaxMs   float64 `json:"latency_max_ms"`
	// GenLateP99Ms is the generator's own lateness (pace's wake);
	// SendLateP99Ms also counts ticks held up by the previous send.
	GenLateP50Ms  float64 `json:"gen_late_p50_ms"`
	GenLateP99Ms  float64 `json:"gen_late_p99_ms"`
	SendLateP99Ms float64 `json:"send_late_p99_ms"`
	LateGenerator bool    `json:"late_generator"`
	// BacklogGrowth is the median over segments of the backlog at a
	// segment's end minus the backlog at its midpoint, in elements.
	BacklogGrowth float64   `json:"backlog_growth_elements"`
	Unsustainable bool      `json:"unsustainable"`
	Segments      []segment `json:"segments"`
}

// pool computes the phase's percentiles over every segment's samples, and
// decides whether the rate was sustainable: a rate the system cannot keep
// up with makes the backlog grow all through every segment, so it is
// larger at a segment's end than at its midpoint in most of them, while a
// stall (a checkpoint's fsync, a GC cycle) that happens to fall on the end
// of one segment is outvoted. Growth beyond 20 ms of input is the line.
func pool(rate int, segments []segment) pacedResult {
	res := pacedResult{Rate: rate, Segments: segments}
	var lat, late, wake []int64
	for _, s := range segments {
		res.Seconds += s.Seconds
		lat = append(lat, s.lat...)
		for i := range s.late {
			late = append(late, int64(s.late[i]))
			wake = append(wake, int64(s.wake[i]))
		}
	}
	slices.Sort(lat)
	slices.Sort(late)
	slices.Sort(wake)
	res.Samples = len(lat)
	res.P50Ms = float64(percentile(lat, 50)) / 1e6
	res.P99Ms = float64(percentile(lat, 99)) / 1e6
	res.MaxMs = float64(percentile(lat, 100)) / 1e6
	res.GenLateP50Ms = float64(percentile(wake, 50)) / 1e6
	res.GenLateP99Ms = float64(percentile(wake, 99)) / 1e6
	res.SendLateP99Ms = float64(percentile(late, 99)) / 1e6
	res.LateGenerator = res.GenLateP99Ms > 1
	growth := make([]float64, len(segments))
	for i, s := range segments {
		growth[i] = s.BacklogEnd - s.BacklogMid
	}
	res.BacklogGrowth = median(growth)
	res.Unsustainable = res.BacklogGrowth > float64(rate)*0.02
	return res
}
