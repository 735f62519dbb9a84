package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"punctsafe/exec"
	"punctsafe/stream"
)

// The parallel partitioned front-end: when a query registers with
// Options.Partitions, its ingestion no longer funnels through a serial
// router goroutine. Instead every producer (Send, SendBatch, IngestWire)
// computes the co-partition hash itself and scatters its run directly
// into per-partition mailboxes, so tuples flow producer → partition
// worker with no element ever crossing a global serial stage.
//
// Three goroutine roles per partitioned shard:
//
//   - producers (any goroutine calling Send/SendBatch): hash each tuple
//     to its owner with exec.PartitionedTree.PartitionOf (pure, safe
//     concurrently), build one chunk per partition for the run, and —
//     under a short ingress lock — enqueue the chunks followed by a
//     routing script describing the run's global element order. The
//     ingress lock is the only serial point and it covers channel sends
//     only, never join work.
//
//   - P partition workers: each owns one replica tree and drains its own
//     mailbox, pushing chunks through exec's batched path with the same
//     per-element error policy as the sequential shard (recoverable
//     offenders recorded and skipped, panics contained, fatals latched).
//     Tuples of different partitions are processed genuinely in parallel;
//     nothing gathers between punctuations.
//
//   - one merger (the shard's goroutine): replays the routing scripts in
//     ingress order, consuming each worker's result records and folding
//     outputs through the MergeOutputs alignment gate, so delivery
//     order, dead-letter order and error positions are exactly those of
//     the single-tree run even though the workers ran free.
//
// Punctuations are epoch seals rather than barriers: a producer appends
// the punctuation to every partition's chunk in position (sealing the
// epoch in each mailbox) and the workers keep flowing — no
// scatter/gather round trip. Alignment happens only at the merge stage:
// the merger consumes the seal from all P record streams before
// releasing the gate-merged output punctuation, which is the paper's
// safety argument applied per replica (each replica saw the full
// punctuation stream, so its purges are the single tree's purges
// restricted to the keys it owns).
//
// Control requests (Stats, Checkpoint) reuse the same ordering: a
// control chunk is enqueued to every partition mailbox plus the script
// under the ingress lock, each worker acks it in FIFO position and
// parks, and the merger — having by then delivered everything enqueued
// before the request — snapshots the quiescent replicas and releases
// the workers. That preserves the mailbox-FIFO checkpoint barrier
// contract: a checkpoint reflects exactly the elements sent before it.

// opPunct marks a broadcast punctuation in a routing script. Any smaller
// value is the owning partition of a tuple (exec caps partitions at 64,
// far below the sentinel).
const opPunct = 0xFF

// partChunk is one producer hand-off to a partition worker: that
// partition's slice of a run (its owned tuples plus every punctuation,
// in run order, in a takeRun buffer the worker gives back), or a control
// barrier.
type partChunk struct {
	input int
	elems []stream.Element
	ctrl  *shardCtrl
}

// scriptBatch describes one run's global element order to the merger:
// run.ops[i] says which partition's record stream element i's outputs
// come from (or opPunct for a seal consumed from all P). elems carries
// the original elements for dead-letter reporting, in a takeRun buffer
// the merger gives back with the run scratch once the run is delivered.
type scriptBatch struct {
	input  int
	stream string
	elems  []stream.Element
	run    *partRun
	ctrl   *shardCtrl
}

// partRun is one run's routing scratch — the script bytes and the
// per-partition chunk table — recycled through partFront.runFree like the
// records are through free.
type partRun struct {
	ops    []byte
	chunks [][]stream.Element
}

// partRecord is one worker reply covering one chunk: the replica's
// outputs with per-element boundaries, recoverable offenders, or a
// fatal error with the local element index it struck at; the result
// tuples in outs are carved out of vals. Records are recycled through the
// free lists, reset, once the merger has delivered their batch.
type partRecord struct {
	n       int // element count of the chunk this record covers
	outs    []stream.Element
	ends    []int // ends[i] = len(outs) after local element i
	vals    []stream.Value
	offIdx  []int // local indexes of recoverable offenders, ascending
	offErr  []error
	fatal   error
	fatalAt int // local index processing stopped at when fatal != nil
	ctrl    *shardCtrl
}

func (r *partRecord) reset() {
	clear(r.outs)
	r.n = 0
	r.outs, r.ends, r.vals = r.outs[:0], r.ends[:0], exec.ResetValues(r.vals)
	r.offIdx, r.offErr = r.offIdx[:0], r.offErr[:0]
	r.fatal, r.fatalAt = nil, 0
	r.ctrl = nil
}

// Channel capacities: enough slack that producers, workers and merger
// pipeline instead of lock-stepping, small enough that backpressure
// still propagates to Send quickly.
const (
	partInBuffer     = 8
	partOutBuffer    = 4
	partScriptBuffer = 16
)

// partFront is one partitioned shard's parallel ingestion front. The
// partition count and the channel slices are fixed at construction.
type partFront struct {
	s   *shard
	p   int
	in  []chan partChunk   // per-partition worker mailboxes
	out []chan *partRecord // per-partition result streams (worker → merger, SPSC)
	// free recycles records (merger → worker). Each holds every record a
	// partition can have in flight — the out channel's, the one the worker
	// fills and the one the merger reads — so none is ever dropped.
	free   []chan *partRecord
	script chan scriptBatch // run scripts in ingress order (producers → merger)
	// runFree recycles run scratch (merger → producers).
	runFree freeList[*partRun]

	// mu is the ingress lock: it makes "chunks for a run, then its
	// script" atomic across producers, so the script order equals each
	// partition's mailbox order. It guards channel sends only.
	mu sync.Mutex
	wg sync.WaitGroup // partition workers
}

func newPartFront(s *shard) *partFront {
	p := s.reg.Part.Partitions()
	pf := &partFront{
		s:      s,
		p:      p,
		in:     make([]chan partChunk, p),
		out:    make([]chan *partRecord, p),
		free:   make([]chan *partRecord, p),
		script: make(chan scriptBatch, partScriptBuffer),
	}
	pf.wg.Add(p)
	for i := 0; i < p; i++ {
		pf.in[i] = make(chan partChunk, partInBuffer)
		pf.out[i] = make(chan *partRecord, partOutBuffer)
		pf.free[i] = make(chan *partRecord, partOutBuffer+2)
		go pf.worker(i)
	}
	return pf
}

// sendRun routes one contiguous same-stream run: hash outside the lock,
// enqueue under it. elems is a takeRun buffer and the front's from here
// on (the merger keeps it until the run is delivered, then gives it back).
func (pf *partFront) sendRun(input int, streamName string, elems []stream.Element) {
	pt, s := pf.s.reg.Part, pf.s
	run := pf.runFree.pop()
	if run == nil {
		run = &partRun{}
	}
	run.ops = slices.Grow(run.ops[:0], len(elems))[:len(elems)]
	// Every chunk buffer is sized for the whole run, so that every buffer
	// of the shard fits every use.
	run.chunks = slices.Grow(run.chunks[:0], pf.p)[:pf.p] // all nil: cleared below
	chunks := run.chunks
	for p := range chunks {
		chunks[p] = s.takeRun(len(elems))
	}
	for i, e := range elems {
		if e.IsPunct() {
			// Epoch seal: every partition sees the punctuation in position,
			// preserving its order against the tuples that partition owns.
			run.ops[i] = opPunct
			for p := range chunks {
				chunks[p] = append(chunks[p], e)
			}
			continue
		}
		d := pt.PartitionOf(input, e.Tuple())
		run.ops[i] = byte(d)
		chunks[d] = append(chunks[d], e)
	}
	pf.mu.Lock()
	for p, c := range chunks {
		if len(c) == 0 {
			s.giveRun(c)
		} else {
			pf.in[p] <- partChunk{input: input, elems: c}
		}
	}
	clear(chunks)
	pf.script <- scriptBatch{input: input, stream: streamName, elems: elems, run: run}
	pf.mu.Unlock()
}

// recycle puts a delivered run's element buffer and routing scratch back
// into circulation.
func (pf *partFront) recycle(sb scriptBatch) {
	pf.s.giveRun(sb.elems)
	pf.runFree.push(sb.run)
}

// control enqueues a barrier to every partition mailbox and the script.
// The reply arrives on the request's channel once the merger has
// delivered everything enqueued before this call and quiesced the
// workers.
func (pf *partFront) control(c *shardCtrl) {
	c.release = make(chan struct{})
	pf.mu.Lock()
	for p := 0; p < pf.p; p++ {
		pf.in[p] <- partChunk{ctrl: c}
	}
	pf.script <- scriptBatch{ctrl: c}
	pf.mu.Unlock()
}

// close ends the input: the caller (Runtime.Close, under the write side
// of closeMu) guarantees no producer is in flight.
func (pf *partFront) close() {
	for _, ch := range pf.in {
		close(ch)
	}
	close(pf.script)
}

// worker owns replica part: it drains its own mailbox, processing chunks
// through the replica with the element-level error policy and emitting
// one record per chunk. After its replica's first fatal it stops
// processing (the state is no longer meaningful) but keeps the record
// stream aligned with skipped records. On kill it drains without effect
// so producers never block forever.
func (pf *partFront) worker(part int) {
	defer pf.wg.Done()
	in, out, free := pf.in[part], pf.out[part], pf.free[part]
	fatal := false
	for {
		var ck partChunk
		var ok bool
		select {
		case ck, ok = <-in:
			if !ok {
				return
			}
		case <-pf.s.rt.kill:
			drainIn(in)
			return
		}
		rec := pf.record(free)
		if ck.ctrl != nil {
			// Ack in FIFO position — every record for earlier chunks is
			// already in the out stream — then park until the merger has
			// taken its snapshot.
			rec.ctrl = ck.ctrl
			if !pf.emit(out, rec) {
				drainIn(in)
				return
			}
			select {
			case <-ck.ctrl.release:
			case <-pf.s.rt.kill:
				drainIn(in)
				return
			}
			continue
		}
		rec.n = len(ck.elems)
		if !fatal {
			pf.process(part, ck, rec)
			if rec.fatal != nil {
				fatal = true
			}
		}
		pf.s.giveRun(ck.elems)
		if !pf.emit(out, rec) {
			drainIn(in)
			return
		}
	}
}

// drainIn is the post-kill worker loop: consume the mailbox without
// effect until Close closes it, so blocked producers unwind.
func drainIn(in chan partChunk) {
	for range in {
	}
}

// record pops a recycled record or allocates a fresh one.
func (pf *partFront) record(free chan *partRecord) *partRecord {
	select {
	case r := <-free:
		return r
	default:
		return &partRecord{}
	}
}

// emit hands a record to the merger, aborting on kill.
func (pf *partFront) emit(out chan *partRecord, rec *partRecord) bool {
	select {
	case out <- rec:
		return true
	case <-pf.s.rt.kill:
		return false
	}
}

// process pushes a chunk through the worker's replica, applying the
// element-level error policy locally: recoverable offenders are recorded
// and skipped (the merger dead-letters them in global input order),
// anything else stops the chunk at fatalAt.
func (pf *partFront) process(part int, ck partChunk, rec *partRecord) {
	elems := ck.elems
	base := 0
	for base < len(elems) {
		n, err := pf.pushContained(part, ck.input, rec, elems[base:])
		if err == nil {
			return
		}
		at := base + n
		if pf.s.rt.policy != Fail && recoverableError(err) {
			rec.offIdx = append(rec.offIdx, at)
			rec.offErr = append(rec.offErr, err)
			rec.ends = append(rec.ends, len(rec.outs)) // offenders emit nothing
			base = at + 1
			continue
		}
		rec.fatal, rec.fatalAt = err, at
		return
	}
}

// pushContained drives the replica with panic containment (one recover
// frame per chunk segment, as the sequential path does per batch). On
// panic the record's buffers are rewound to the segment start: a panic
// fails the whole shard, so partial outputs are irrelevant, but the
// boundaries must stay consistent for the merger's walk.
func (pf *partFront) pushContained(part, input int, rec *partRecord, elems []stream.Element) (n int, err error) {
	outsMark, endsMark := len(rec.outs), len(rec.ends)
	defer func() {
		if r := recover(); r != nil {
			rec.outs, rec.ends = rec.outs[:outsMark], rec.ends[:endsMark]
			n, err = 0, newPanicError(r)
		}
	}()
	var processed int
	rec.outs, rec.ends, rec.vals, processed, err = pf.s.reg.Part.PushPartitionEnds(part, input, rec.outs, rec.ends, rec.vals, elems)
	return processed, err
}

// partMerger is the merge stage's state: the current record per
// partition with its consumption cursors.
type partMerger struct {
	s  *shard
	pf *partFront

	rec     []*partRecord
	cursor  []int // local element index within rec[p]
	lastEnd []int // output cursor within rec[p].outs
	offCur  []int // offender cursor within rec[p].offIdx
	merged  []stream.Element
}

func newPartMerger(s *shard) *partMerger {
	p := s.pf.p
	return &partMerger{
		s:       s,
		pf:      s.pf,
		rec:     make([]*partRecord, p),
		cursor:  make([]int, p),
		lastEnd: make([]int, p),
		offCur:  make([]int, p),
	}
}

// runPartitioned is the partitioned shard's goroutine: the merge stage.
// It replays routing scripts in ingress order, so delivery is
// deterministic regardless of how the workers interleaved.
func (s *shard) runPartitioned() {
	defer close(s.done)
	m := newPartMerger(s)
	for {
		var sb scriptBatch
		var ok bool
		select {
		case sb, ok = <-s.pf.script:
			if !ok {
				// End of input: the workers exit once their mailboxes
				// close; waiting on them synchronizes replica memory
				// before the final flush reads it.
				s.pf.wg.Wait()
				s.finish()
				return
			}
		case <-s.rt.kill:
			s.killDrain()
			return
		}
		if !m.consume(sb) {
			s.killDrain()
			return
		}
	}
}

// killDrain is the merger's post-kill loop, the crash model's analogue
// of shard.discard: scripts drain without effect, control waiters are
// answered so they unwind, and the workers are joined before done
// closes so Wait leaves no goroutine touching the replicas.
func (s *shard) killDrain() {
	s.materializePassive()
	for sb := range s.pf.script {
		if sb.ctrl != nil {
			s.answerKilled(sb.ctrl)
		}
	}
	s.pf.wg.Wait()
}

// current returns partition p's record under consumption, fetching the
// next one (and resetting the cursors) when the previous was given back.
// Returns false only on kill.
func (m *partMerger) current(p int) (*partRecord, bool) {
	if r := m.rec[p]; r != nil {
		return r, true
	}
	select {
	case r := <-m.pf.out[p]:
		m.rec[p] = r
		m.cursor[p], m.lastEnd[p], m.offCur[p] = 0, 0, 0
		return r, true
	case <-m.s.rt.kill:
		return nil, false
	}
}

func (m *partMerger) release(p int) {
	r := m.rec[p]
	m.rec[p] = nil
	r.reset() // a waiting record holds nothing
	select {
	case m.pf.free[p] <- r:
	default: // free list full; let the GC have it
	}
}

// consume replays one script batch: tuple ops take the next element's
// outputs from the owning partition's record stream, seals take one from
// every stream and release through the alignment gate, control ops
// quiesce and snapshot. Outputs accumulate and deliver once per batch;
// only then are the records they point into (one per partition) given
// back. Returns false only on kill.
func (m *partMerger) consume(sb scriptBatch) bool {
	if sb.ctrl != nil {
		return m.consumeCtrl(sb.ctrl)
	}
	s := m.s
	merged := m.merged[:0]
	for g, op := range sb.run.ops {
		if s.failed {
			// Keep the record streams aligned but deliver nothing; the
			// sequential path likewise drains without processing after
			// its first error.
			if !m.discardOp(op) {
				return false
			}
			continue
		}
		if op == opPunct {
			fatal, ok := m.consumeSeal(sb, g, &merged)
			if !ok {
				return false
			}
			if fatal != nil {
				m.fail(fatal, &merged)
			}
			continue
		}
		p := int(op)
		rec, ok := m.current(p)
		if !ok {
			return false
		}
		li := m.cursor[p]
		if rec.fatal != nil && li >= rec.fatalAt {
			m.fail(rec.fatal, &merged)
			m.cursor[p]++
			continue
		}
		if oc := m.offCur[p]; oc < len(rec.offIdx) && rec.offIdx[oc] == li {
			m.offCur[p]++
			m.lastEnd[p] = rec.ends[li]
			s.deadLetter(sb.stream, sb.elems[g], rec.offErr[oc])
			m.cursor[p]++
			continue
		}
		end := rec.ends[li]
		merged = s.reg.Part.MergeOutputs(merged, p, rec.outs[m.lastEnd[p]:end])
		m.lastEnd[p] = end
		m.cursor[p]++
	}
	m.merged = merged
	s.deliver(merged)
	clear(m.merged)
	m.merged = m.merged[:0]
	for p, r := range m.rec {
		if r != nil && m.cursor[p] >= r.n {
			m.release(p)
		}
	}
	m.pf.recycle(sb)
	return true
}

// fail delivers the outputs merged before the fatal element and fails
// the shard there, truncating delivery exactly where the single tree
// would stop. A panic discards the undelivered prefix instead (the
// sequential path delivers nothing from a panicking batch).
func (m *partMerger) fail(fatal error, merged *[]stream.Element) {
	var pe *PanicError
	if !errors.As(fatal, &pe) {
		m.s.deliver(*merged)
	}
	clear(*merged)
	*merged = (*merged)[:0]
	m.s.failShard(fatal)
}

// consumeSeal consumes one broadcast punctuation: one element from every
// partition's record stream, in partition order, then the verdict.
// Validation is deterministic, so either every replica rejected the
// punctuation or none did; a split verdict means replica state has
// diverged, which is a runtime bug worth failing loudly on. The cursors
// advance only after the gate merge has read every record.
func (m *partMerger) consumeSeal(sb scriptBatch, g int, merged *[]stream.Element) (error, bool) {
	s := m.s
	var fatal error
	offenders := 0
	var offErr error
	for p := 0; p < m.pf.p; p++ {
		rec, ok := m.current(p)
		if !ok {
			return nil, false
		}
		li := m.cursor[p]
		if rec.fatal != nil && li >= rec.fatalAt {
			if fatal == nil {
				fatal = rec.fatal
			}
			continue
		}
		if oc := m.offCur[p]; oc < len(rec.offIdx) && rec.offIdx[oc] == li {
			offenders++
			if offErr == nil {
				offErr = rec.offErr[oc]
			}
		}
	}
	if fatal == nil {
		switch {
		case offenders == 0:
			for p := 0; p < m.pf.p; p++ {
				rec := m.rec[p]
				li := m.cursor[p]
				end := rec.ends[li]
				*merged = s.reg.Part.MergeOutputs(*merged, p, rec.outs[m.lastEnd[p]:end])
				m.lastEnd[p] = end
			}
		case offenders == m.pf.p:
			// Unanimous rejection: the punctuation itself is the
			// offender. Dead-letter it once per subscriber, in script
			// position.
			s.deadLetter(sb.stream, sb.elems[g], offErr)
		default:
			fatal = fmt.Errorf("internal: punctuation rejected by %d of %d partitions", offenders, m.pf.p)
		}
	}
	for p := 0; p < m.pf.p; p++ {
		rec := m.rec[p]
		li := m.cursor[p]
		if rec.fatal == nil || li < rec.fatalAt {
			if oc := m.offCur[p]; oc < len(rec.offIdx) && rec.offIdx[oc] == li {
				m.offCur[p]++
				m.lastEnd[p] = rec.ends[li]
			}
		}
		m.cursor[p]++
	}
	return fatal, true
}

// discardOp keeps the per-partition cursors aligned with the script
// after the shard has failed, consuming without delivering.
func (m *partMerger) discardOp(op byte) bool {
	if op == opPunct {
		for p := 0; p < m.pf.p; p++ {
			if !m.discardOne(p) {
				return false
			}
		}
		return true
	}
	return m.discardOne(int(op))
}

func (m *partMerger) discardOne(p int) bool {
	if _, ok := m.current(p); !ok {
		return false
	}
	m.cursor[p]++
	return true
}

// consumeCtrl is the merge-stage half of a control barrier: consume the
// ack record from every partition — by mailbox FIFO all earlier records
// are consumed and delivered, and every worker is parked on release, so
// the replicas and the gate are quiescent — answer, release.
// Stats are answered even on a failed shard (matching the sequential
// path); checkpointReply itself refuses failed state.
func (m *partMerger) consumeCtrl(c *shardCtrl) bool {
	s := m.s
	for p := 0; p < m.pf.p; p++ {
		rec, ok := m.current(p)
		if !ok {
			// Killed mid-barrier: answer like the kill drain so the
			// waiter unwinds; parked workers unpark via the kill signal.
			s.answerKilled(c)
			return false
		}
		if rec.ctrl != c {
			s.failShard(fmt.Errorf("internal: partition %d out of sync at control barrier", p))
		}
		m.release(p)
	}
	s.answer(c)
	close(c.release)
	return true
}

// failShard marks the shard failed and records the runtime's first
// error, mirroring the sequential flushBatch failure path.
func (s *shard) failShard(err error) {
	s.failed = true
	s.rt.fail(fmt.Errorf("engine: query %q: %w", s.reg.Name, err))
}
