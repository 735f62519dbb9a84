package main

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"punctsafe/engine"
	"punctsafe/safety"
	"punctsafe/stream"
)

// The ladder replays the workload's feed once per rung, each rung one
// layer taller than the one below it, with a span around every call the
// bench makes into the layer. A layer's self time is its rung minus the
// rung below; all times are wall nanoseconds per feed element:
//
//	stream.Codec.Encode / Decode
//	engine.WireWriter.Write / WireReader.Read   (wire self = read - decode)
//	exec.Tree.PushBatch                         (exec self)
//	engine.DSMS.Push                            (push self = push - exec)
//	engine.Runtime.SendBatch                    (runtime self = sendbatch - push)
//	engine.Runtime.IngestWire                   (ingest self = ingestwire - read - sendbatch)
//	server.Server over a unix socket            (server self = serve - ingestwire)
//
// From SendBatch up the rungs are concurrent (sender, shard worker and,
// for the server, connection and subscriber goroutines on this host's two
// cores), so a taller rung can take less wall time per element than the
// one below it and a self time can be negative; it is reported as
// measured.

// ladderResult carries the traced run's numbers into the result file.
type ladderResult struct {
	metrics  map[string]float64
	self     map[string]float64 // layer -> self ns/elem
	attempts int
	failed   int
	failures []string
	paced    pacedResult
}

func (r *ladderResult) absorb(rung string, p pass) {
	r.attempts += p.Elements
	r.failed += p.Failed
	for _, f := range p.Failures {
		r.failures = append(r.failures, rung+": "+f)
	}
}

// rungReps is how many times each rung replays the feed; the repetition
// with the median duration is the rung's reading, and the tracer's totals
// (which add up over all repetitions) are divided by it.
const rungReps = 5

// repeat runs a rung rungReps times and returns its median repetition.
func repeat[T any](seconds func(T) float64, run func() (T, error)) (T, error) {
	reps := make([]T, 0, rungReps)
	for i := 0; i < rungReps; i++ {
		r, err := run()
		if err != nil {
			return r, err
		}
		reps = append(reps, r)
	}
	slices.SortFunc(reps, func(a, b T) int { return cmp.Compare(seconds(a), seconds(b)) })
	return reps[rungReps/2], nil
}

func passSeconds(p pass) float64 { return p.Seconds }

// climb runs every rung and derives the per-layer metrics.
func (l *loaded) climb(tr *tracer) (*ladderResult, error) {
	f := l.f
	n := float64(len(f.elems))
	res := &ladderResult{metrics: map[string]float64{}, self: map[string]float64{}}
	m := res.metrics
	perElem := func(seconds float64) float64 { return seconds * 1e9 / n }
	// spanNs is the mean time per repetition spent under a span name.
	spanNs := func(name spanName) float64 { return tr.ns(name) / rungReps }

	// stream.Codec, then engine wire framing over the same elements.
	var encoded int
	var wire []byte
	var readAllocs uint64
	for i := 0; i < rungReps; i++ {
		var err error
		if encoded, err = l.codecRung(tr); err != nil {
			return nil, err
		}
		if wire, readAllocs, err = l.wireRung(tr); err != nil {
			return nil, err
		}
	}
	m["stream.codec.encode_ns_per_elem"] = spanNs(spanEncode) / n
	m["stream.codec.decode_ns_per_elem"] = spanNs(spanDecode) / n
	m["stream.codec.bytes_per_elem"] = float64(encoded) / n
	wireRead := spanNs(spanRead) / n
	m["engine.wire.write_ns_per_frame"] = spanNs(spanWrite) / n
	m["engine.wire.read_ns_per_frame"] = wireRead
	m["engine.wire.read_allocs_per_frame"] = float64(readAllocs) / n
	m["engine.wire.read_mb_per_s"] = float64(len(wire)) / 1e6 / (spanNs(spanRead) / 1e9)

	// exec.Tree.PushBatch.
	ex, err := repeat(func(r execResult) float64 { return r.Seconds }, func() (execResult, error) { return l.execRung(tr) })
	if err != nil {
		return nil, err
	}
	res.absorb("exec", ex.pass)
	execNs := perElem(ex.Seconds)
	m["exec.join.tuple_ns_per_elem"] = spanNs(spanTuples) / float64(f.tuples)
	m["exec.purge.punct_ns_per_elem"] = spanNs(spanPuncts) / float64(f.puncts)
	m["exec.join.results_per_elem"] = float64(ex.Results) / n
	m["exec.purge.checks_per_purged"] = ex.checksPerPurged
	m["exec.state.mean_tuples"] = ex.meanState
	m["exec.punctstore.peak_puncts"] = float64(ex.peakPuncts)
	m["exec.allocs_per_elem"] = float64(ex.Mallocs) / n

	// engine.DSMS.Push.
	push, err := repeat(passSeconds, func() (pass, error) { return l.pushRung(tr) })
	if err != nil {
		return nil, err
	}
	res.absorb("push", push)
	pushNs := perElem(push.Seconds)
	m["engine.push.overhead_ns_per_elem"] = pushNs - execNs

	// engine.Runtime.SendBatch: the workload's own runtime options.
	startOwn := func(c *consumer) (pipeline, error) { return startRuntime(f, l.sp.partitions, c) }
	rt, err := repeat(passSeconds, func() (pass, error) { return l.saturate(startOwn, tr, rungRuntime) })
	if err != nil {
		return nil, err
	}
	res.absorb("runtime", rt)
	rtNs := perElem(rt.Seconds)
	m["engine.runtime.mailbox_ns_per_elem"] = rtNs - pushNs
	m["engine.runtime.allocs_per_elem"] = float64(rt.Mallocs) / n

	// engine.Runtime.IngestWire from memory.
	ingest, err := repeat(passSeconds, func() (pass, error) { return l.ingestRung(tr, wire) })
	if err != nil {
		return nil, err
	}
	res.absorb("ingest", ingest)
	ingestNs := perElem(ingest.Seconds)
	m["engine.ingest.overhead_ns_per_elem"] = ingestNs - wireRead - rtNs
	wire = nil

	// The full server.
	var startMs []float64
	var ackLag []int64
	sendBefore := spanNs(spanSend)
	serve, err := repeat(passSeconds, func() (pass, error) {
		var sp *serverPipe
		p, err := l.saturate(func(c *consumer) (pipeline, error) {
			p, err := startServer(f, l.sp.partitions, c)
			if err == nil {
				sp = p
				p.sampleAckLag()
			}
			return p, err
		}, tr, rungServer)
		if err == nil {
			startMs = append(startMs, sp.startTook.Seconds()*1e3)
			ackLag = append(ackLag, sp.ackLag...)
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	res.absorb("server", serve)
	serveNs := perElem(serve.Seconds)
	m["server.send_ns_per_elem"] = (spanNs(spanSend) - sendBefore) / n
	m["server.overhead_ns_per_elem"] = serveNs - ingestNs
	m["server.start_ms"] = median(startMs)
	slices.Sort(ackLag)
	m["server.ack_lag_p50_ms"] = float64(percentile(ackLag, 50)) / 1e6

	// Partition counts 0, 1 and 2 on the same feed, untraced.
	var byParts [3]pass
	for parts := range byParts {
		parts := parts
		p, err := repeat(passSeconds, func() (pass, error) {
			return l.saturate(func(c *consumer) (pipeline, error) { return startRuntime(f, parts, c) }, nil, 0)
		})
		if err != nil {
			return nil, err
		}
		res.absorb(fmt.Sprintf("partitions=%d", parts), p)
		byParts[parts] = p
	}
	m["engine.partition.speedup_vs_p0"] = byParts[0].Seconds / byParts[2].Seconds
	m["engine.partition.p1_overhead_ns_per_elem"] = perElem(byParts[1].Seconds) - perElem(byParts[0].Seconds)
	if m["engine.partition.skew_ratio"], err = l.skewRatio(2); err != nil {
		return nil, err
	}

	// Checkpoint and restore, mid-feed.
	ck, err := l.checkpointRung()
	if err != nil {
		return nil, err
	}
	res.absorb("checkpoint", ck.pass)
	m["engine.checkpoint.write_ms"] = ck.writeMs
	m["engine.checkpoint.bytes"] = float64(ck.bytes)
	m["engine.checkpoint.restore_ms"] = ck.restoreMs

	// Admission cost.
	var regMs, checkUs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := register(engine.New(), f, l.sp.partitions, nil); err != nil {
			return nil, err
		}
		regMs = append(regMs, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		if _, err := safety.Check(f.q, f.schemes); err != nil {
			return nil, err
		}
		checkUs = append(checkUs, time.Since(t0).Seconds()*1e6)
	}
	m["engine.register_ms"] = median(regMs)
	m["safety.check_us"] = median(checkUs)

	// The workload as the untraced run measures it: same pipeline, no
	// spans. The traced top rung against it is the cost of tracing; the
	// sum of the self times against it is what the ladder cannot place.
	// For an in-process workload that is the partition pass just made.
	plain := byParts[l.sp.partitions]
	if l.sp.server {
		if plain, err = repeat(passSeconds, func() (pass, error) { return l.saturate(l.start, nil, 0) }); err != nil {
			return nil, err
		}
		res.absorb("untraced", plain)
	}
	e2eNs := perElem(plain.Seconds)
	top, topNs := rt, rtNs
	res.self["exec"] = execNs
	res.self["engine.push"] = pushNs - execNs
	res.self["engine.runtime"] = rtNs - pushNs
	if l.sp.server {
		top, topNs = serve, serveNs
		res.self["stream.codec"] = m["stream.codec.decode_ns_per_elem"]
		res.self["engine.wire"] = wireRead - m["stream.codec.decode_ns_per_elem"]
		res.self["engine.ingest"] = ingestNs - wireRead - rtNs
		res.self["server"] = serveNs - ingestNs
	}
	sum := 0.0
	for _, v := range res.self {
		sum += v
	}
	m["ladder.exec_ns_per_elem"] = execNs
	m["ladder.push_ns_per_elem"] = pushNs
	m["ladder.runtime_ns_per_elem"] = rtNs
	m["ladder.ingest_ns_per_elem"] = ingestNs
	m["ladder.server_ns_per_elem"] = serveNs
	m["ladder.e2e_ns_per_elem"] = e2eNs
	m["ladder.residual_pct"] = (e2eNs - sum) / e2eNs * 100
	m["trace.overhead_pct"] = (topNs - e2eNs) / e2eNs * 100
	m["process.heap_retained_mb"] = top.HeapRetainedMB
	m["process.gc_pause_total_ms"] = plain.GCPauseMs
	m["process.gc_cycles"] = float64(plain.GCCycles)

	// A short paced phase, for the latency tail and the generator's own
	// punctuality.
	var segments []segment
	for i := 0; i < rungReps; i++ {
		seg, err := l.pacedSegment()
		if err != nil {
			return nil, err
		}
		res.absorb("paced", seg.pass)
		segments = append(segments, seg)
	}
	res.paced = pool(l.sp.rate, segments)
	m["latency.p99_ms"] = res.paced.P99Ms
	m["workload.gen_late_p99_ms"] = res.paced.GenLateP99Ms
	m["workload.punct_ratio"] = float64(f.puncts) / float64(f.tuples)
	return res, nil
}

// codecRung encodes every element with its stream's codec, then decodes
// the bytes again; it returns how many bytes the feed encodes to.
func (l *loaded) codecRung(tr *tracer) (encoded int, err error) {
	f := l.f
	codecs := make([]*stream.Codec, len(f.schemas))
	for i, sc := range f.schemas {
		codecs[i] = stream.NewCodec(sc)
	}
	rung := tr.begin(rungCodec, -1)
	defer tr.end(rung)
	enc := make([]byte, 0, 48*len(f.elems))
	ends := make([]int, len(f.elems))
	for lo := 0; lo < len(f.elems); lo += chunk {
		sp := tr.begin(spanEncode, rung.idx)
		for i := lo; i < min(lo+chunk, len(f.elems)); i++ {
			if enc, err = codecs[f.sidx[i]].Encode(enc, f.elems[i]); err != nil {
				return 0, err
			}
			ends[i] = len(enc)
		}
		tr.end(sp)
	}
	for lo := 0; lo < len(f.elems); lo += chunk {
		sp := tr.begin(spanDecode, rung.idx)
		for i := lo; i < min(lo+chunk, len(f.elems)); i++ {
			start := 0
			if i > 0 {
				start = ends[i-1]
			}
			e, rest, err := codecs[f.sidx[i]].Decode(enc[start:ends[i]])
			if err != nil || len(rest) != 0 || e.IsPunct() != f.elems[i].IsPunct() {
				return 0, fmt.Errorf("codec round trip of element %d: %v (%d bytes left)", i, err, len(rest))
			}
		}
		tr.end(sp)
	}
	return len(enc), nil
}

// wireRung frames every element with WireWriter into memory, then reads
// the frames back with WireReader. It returns the wire bytes and the
// number of heap allocations the reads made.
func (l *loaded) wireRung(tr *tracer) (wire []byte, readAllocs uint64, err error) {
	f := l.f
	rung := tr.begin(rungWire, -1)
	defer tr.end(rung)
	var buf bytes.Buffer
	buf.Grow(56 * len(f.elems))
	ww := engine.NewWireWriter(&buf, f.schemas...)
	for lo := 0; lo < len(f.elems); lo += chunk {
		sp := tr.begin(spanWrite, rung.idx)
		for i := lo; i < min(lo+chunk, len(f.elems)); i++ {
			if err := ww.Write(f.names[f.sidx[i]], f.elems[i]); err != nil {
				return nil, 0, err
			}
		}
		tr.end(sp)
	}
	wire = buf.Bytes()
	wr := engine.NewWireReader(bytes.NewReader(wire), f.schemas...)
	before := readUsage().mallocs
	frames := 0
	for done := false; !done; {
		sp := tr.begin(spanRead, rung.idx)
		for i := 0; i < chunk; i++ {
			if _, err := wr.Read(); err != nil {
				if !errors.Is(err, io.EOF) {
					return nil, 0, err
				}
				done = true
				break
			}
			frames++
		}
		tr.end(sp)
	}
	readAllocs = readUsage().mallocs - before
	if frames != len(f.elems) {
		return nil, 0, fmt.Errorf("wire round trip: read %d frames of %d", frames, len(f.elems))
	}
	return wire, readAllocs, nil
}

type execResult struct {
	pass
	checksPerPurged float64
	meanState       float64
	peakPuncts      int
}

// execRung pushes the feed straight into the registered query's
// exec.Tree, tuples and punctuations in separate calls so each kind is
// timed on its own. The single-tree plan is used whatever the workload's
// partition count; partitioning is measured by its own rungs.
func (l *loaded) execRung(tr *tracer) (execResult, error) {
	f := l.f
	reg, err := register(engine.New(), f, 0, nil)
	if err != nil {
		return execResult{}, err
	}
	tree := reg.Tree
	c := l.consumer()
	consume := func(outs []stream.Element) {
		for _, o := range outs {
			if !o.IsPunct() {
				c.onResult(o.Tuple())
			}
		}
	}
	runtime.GC()
	res := execResult{pass: pass{Elements: len(f.elems)}}
	stateSum := 0.0
	rung := tr.begin(rungExec, -1)
	before := readUsage()
	for i := 0; i < len(f.elems); {
		j := f.kindRunEnd(i, min(len(f.elems), i+maxRun))
		name := spanTuples
		if f.elems[i].IsPunct() {
			name = spanPuncts
		}
		sp := tr.begin(name, rung.idx)
		outs, _, err := tree.PushBatch(int(f.sidx[i]), f.elems[i:j])
		tr.end(sp)
		if err != nil {
			return execResult{}, fmt.Errorf("exec rung, element %d: %w", i, err)
		}
		consume(outs)
		stateSum += float64(tree.TotalState()) * float64(j-i)
		i = j
	}
	outs, err := tree.Flush()
	if err != nil {
		return execResult{}, err
	}
	consume(outs)
	after := readUsage()
	tr.end(rung)
	res.Seconds = after.at.Sub(before.at).Seconds()
	res.Mallocs = after.mallocs - before.mallocs
	res.check(l, c, reg)
	res.meanState = stateSum / float64(len(f.elems))
	var checks, purged uint64
	for _, st := range tree.StatsSnapshot() {
		checks += st.PurgeChecks
		for _, p := range st.TuplesPurged {
			purged += p
		}
		res.peakPuncts += st.MaxPunctStoreSize
	}
	res.checksPerPurged = float64(checks) / float64(max(purged, 1))
	return res, nil
}

// pushRung feeds the sequential engine one element at a time.
func (l *loaded) pushRung(tr *tracer) (pass, error) {
	f := l.f
	d := engine.New()
	c := l.consumer()
	reg, err := register(d, f, 0, c.onResult)
	if err != nil {
		return pass{}, err
	}
	runtime.GC()
	res := pass{Elements: len(f.elems)}
	rung := tr.begin(rungPush, -1)
	before := readUsage()
	for lo := 0; lo < len(f.elems); lo += chunk {
		sp := tr.begin(spanPush, rung.idx)
		for i := lo; i < min(lo+chunk, len(f.elems)); i++ {
			if err := d.Push(f.names[f.sidx[i]], f.elems[i]); err != nil {
				return pass{}, fmt.Errorf("push rung, element %d: %w", i, err)
			}
		}
		tr.end(sp)
	}
	if err := d.Flush(); err != nil {
		return pass{}, err
	}
	after := readUsage()
	tr.end(rung)
	res.Seconds = after.at.Sub(before.at).Seconds()
	res.Mallocs = after.mallocs - before.mallocs
	res.check(l, c, reg)
	return res, nil
}

// ingestRung hands the runtime the whole feed as wire bytes in memory.
func (l *loaded) ingestRung(tr *tracer, wire []byte) (pass, error) {
	f := l.f
	c := l.consumer()
	p, err := startRuntime(f, l.sp.partitions, c)
	if err != nil {
		return pass{}, err
	}
	defer p.stop()
	runtime.GC()
	res := pass{Elements: len(f.elems)}
	rung := tr.begin(rungIngest, -1)
	before := readUsage()
	sp := tr.begin(spanIngest, rung.idx)
	count, err := p.rt.IngestWire(bytes.NewReader(wire), f.schemas...)
	tr.end(sp)
	if err == nil {
		sp = tr.begin(spanDrain, rung.idx)
		err = p.drain(0)
		tr.end(sp)
	}
	after := readUsage()
	tr.end(rung)
	if err != nil || count != len(f.elems) {
		res.fail(len(f.elems)-count, "IngestWire took %d of %d elements: %v", count, len(f.elems), err)
	}
	res.Seconds = after.at.Sub(before.at).Seconds()
	res.Mallocs = after.mallocs - before.mallocs
	if err := p.stop(); err != nil {
		res.fail(1, "shutdown: %v", err)
	}
	res.check(l, c, p.query())
	return res, nil
}

// skewRatio is the busiest replica's share of the feed's tuples over the
// mean share, at the given partition count: 1 is a perfect spread. A
// query that cannot be co-partitioned runs on one tree, which is 1 too.
func (l *loaded) skewRatio(parts int) (float64, error) {
	reg, err := register(engine.New(), l.f, parts, nil)
	if err != nil {
		return 0, err
	}
	if reg.Part == nil {
		return 1, nil
	}
	counts := make([]int, reg.Part.Partitions())
	for i, e := range l.f.elems {
		if !e.IsPunct() {
			counts[reg.Part.PartitionOf(int(l.f.sidx[i]), e.Tuple())]++
		}
	}
	most := 0
	for _, c := range counts {
		most = max(most, c)
	}
	return float64(most) * float64(len(counts)) / float64(l.f.tuples), nil
}

type checkpointResult struct {
	pass
	writeMs, restoreMs float64
	bytes              int
}

// checkpointRung sends the first half of the feed, checkpoints the
// runtime into memory, restores the snapshot into a freshly registered
// engine, and sends the second half there; the two halves' results
// together must still match the oracle.
func (l *loaded) checkpointRung() (checkpointResult, error) {
	f := l.f
	half := len(f.elems) / 2
	c := l.consumer()
	res := checkpointResult{pass: pass{Elements: len(f.elems)}}
	first, err := startRuntime(f, l.sp.partitions, c)
	if err != nil {
		return res, err
	}
	defer first.stop()
	if _, err := sendAll(first, f, 0, half, nil, 0, -1); err != nil {
		return res, err
	}
	var snap bytes.Buffer
	t0 := time.Now()
	if err := first.rt.Checkpoint(&snap); err != nil {
		return res, err
	}
	res.writeMs = time.Since(t0).Seconds() * 1e3
	res.bytes = snap.Len()
	if err := first.stop(); err != nil {
		return res, err
	}

	d := engine.New()
	reg, err := register(d, f, l.sp.partitions, c.onResult)
	if err != nil {
		return res, err
	}
	t0 = time.Now()
	rt, err := d.RestoreRuntime(bytes.NewReader(snap.Bytes()), engine.RuntimeOptions{})
	if err != nil {
		return res, err
	}
	res.restoreMs = time.Since(t0).Seconds() * 1e3
	second := &runtimePipe{f: f, reg: reg, rt: rt}
	defer second.stop()
	if _, err := sendAll(second, f, half, len(f.elems), nil, 0, -1); err != nil {
		return res, err
	}
	if err := second.stop(); err != nil {
		return res, err
	}
	res.check(l, c, reg)
	return res, nil
}
