package engine

import (
	"bytes"
	"fmt"
	"math/bits"
	"sync"

	"punctsafe/exec"
	"punctsafe/stream"
)

// The sharded runtime is the concurrent query processor of Figure 2:
// every registered query becomes a shard — one goroutine owning that
// query's exec.Tree and a bounded mailbox feeding it — and the input
// manager becomes a router that fans each element out only to the shards
// subscribed to its stream. exec.MJoin stays single-threaded; concurrency
// lives entirely in this layer. Independent queries therefore process
// independent streams in parallel while each query still sees its input
// in router order.

// RuntimeOptions tunes the sharded runtime.
type RuntimeOptions struct {
	// Buffer is the per-shard mailbox capacity in elements (the
	// backpressure knob): a producer waits while a subscribed shard's
	// mailbox has no room for its run. A run is enqueued whole, never
	// split — a longer one enters an empty mailbox — so a mailbox holds at
	// most Buffer elements or one run. <= 0 selects the default of 256. A
	// partitioned query's per-partition mailboxes keep their own fixed
	// depths.
	Buffer int
	// OnError selects how shards treat recoverable element-level errors
	// (late tuples, malformed elements, panicking filters): Fail stops the
	// shard (the default), Drop discards and counts the offender,
	// Quarantine additionally retains it in the dead-letter queue.
	// Operator panics and state-limit trips always fail their shard.
	OnError ErrorPolicy
	// DeadLetterLimit bounds how many offenders Quarantine retains (<= 0
	// selects the default of 128); the newest offenders win. Counts are
	// never bounded.
	DeadLetterLimit int
	// IngestTap, when set, observes every committed wire-ingest batch in
	// commit order: the source name, the raw frame bytes just committed,
	// and the wire offset range [start, end) they occupy on that source.
	// While a tap is installed, wire-ingest commits are serialized across
	// sources, so the tap's call order IS the runtime's ingress order:
	// replaying the tapped records into a second runtime in call order
	// reproduces the exact interleaving, and therefore the exact output
	// and delivery sequence, of this one. The serving layer's
	// primary→standby replication feed rides this hook. Only
	// IngestWireResume is tapped; IngestWire and direct Send calls
	// bypass it. The callback runs inside the commit critical section and
	// must not call back into the runtime.
	IngestTap func(source string, frames []byte, start, end int64)
}

const defaultShardBuffer = 256

// Runtime executes the registered queries of a DSMS concurrently, one
// shard per query. Register every query and scheme first, then call
// RunSharded; registering on the DSMS while the runtime runs is not
// supported. Feed elements with Send (any number of producer
// goroutines), then Close once all producers are done and Wait for the
// drain. While the runtime runs the DSMS must not be used directly.
type Runtime struct {
	d      *DSMS
	shards []*shard
	byName map[string]*shard
	route  map[string][]*shard
	buffer int // per-shard mailbox capacity in elements
	policy ErrorPolicy
	dlq    *deadLetterQueue

	// tap is RuntimeOptions.IngestTap; tapMu serializes tapped wire-ingest
	// commits across sources so the tap observes a total ingress order.
	tap   func(source string, frames []byte, start, end int64)
	tapMu sync.Mutex

	// closeMu serializes Close against in-flight Send/Stats calls so a
	// mailbox is never closed mid-send. Producers share the read side;
	// Close takes the write side once. Checkpoint also takes the write
	// side: the quiescence barrier must not race new sends, and an offset
	// committed under the read side is therefore atomic with the send it
	// describes.
	closeMu sync.RWMutex
	closed  bool

	// srcMu guards sources, the per-ingest-source committed resume
	// offsets (see commit and Checkpoint).
	srcMu   sync.Mutex
	sources map[string]int64

	// kill, once closed, makes every worker stop processing and drain
	// its mailbox without effect — the crash model of the recovery tests.
	kill     chan struct{}
	killOnce sync.Once

	errMu    sync.Mutex
	firstErr error
}

// shard is one share group's mailbox goroutine — one physical executor,
// any number of subscribed queries. Everything behind it — the
// exec.Tree, its operator stats, the member Registered result buffers —
// is confined to the worker goroutine while the runtime runs, which
// keeps the hot path free of locks.
type shard struct {
	// reg is the executor handle: the share group's driver, whose
	// Tree/Part every member aliases. The group's members are the
	// subscribers outputs fan out to; membership is fixed once the
	// runtime starts, so the worker and producers (dead-letter fan-out)
	// read it without synchronization. active/passive split the members
	// by delivery mode (rebuildSubs): active subscribers carry callbacks
	// and get per-element fan-out; passive ones are served from the
	// shared delivery log below, so the per-element cost of a shared tree
	// is O(active), not O(subscribers).
	reg     *Registered
	active  []*Registered
	passive []*Registered
	// logTuples/logCount are the shared delivery log, maintained only
	// while passive subscribers exist: one copy of every result tuple
	// (appended here instead of into N per-member Results buffers), and the
	// count of all output elements (tuples + punctuations) for delivery
	// sequence numbers. Passive members' Results are materialized as
	// zero-copy slices of this log at barrier points (materialize).
	logTuples []stream.Tuple
	logCount  uint64
	mb        mailbox
	done      chan struct{}
	rt        *Runtime
	idx       int  // position in rt.shards (checkpoint reply routing)
	failed    bool // worker-goroutine-local
	// runs recycles the run buffers producers fill for a partitioned
	// shard's front (takeRun, giveRun).
	runs freeList[[]stream.Element]
	// pf is the shard's parallel partition front-end, non-nil only when
	// the query runs partitioned (Registered.Part). A partitioned shard
	// leaves mb unused: producers route into the front's per-partition
	// mailboxes themselves, and the shard goroutine runs the merge stage
	// (runPartitioned) instead of run.
	pf *partFront
}

// shardCtrl is a control request, answered by a shard's own goroutine at
// the request's FIFO position among the elements: a stats snapshot or a
// checkpoint barrier. A partitioned shard carries it through every
// partition mailbox and the script, and its workers park on release
// until the merger has answered.
type shardCtrl struct {
	stats   chan<- []*exec.Stats
	ckpt    chan<- shardCkpt
	release chan struct{} // partitioned: closed by the merger once answered
}

// control hands a control request to the shard: to its mailbox, or
// through its partition front.
func (s *shard) control(c *shardCtrl) {
	if s.pf != nil {
		s.pf.control(c)
		return
	}
	s.mb.control(c)
}

// answer serves a control request at its FIFO position, with everything
// enqueued before it already delivered: the stats snapshot and the
// checkpoint reply reflect exactly those elements.
func (s *shard) answer(c *shardCtrl) {
	if c.stats != nil {
		s.materializePassive()
		c.stats <- s.reg.StatsSnapshot()
	}
	if c.ckpt != nil {
		c.ckpt <- s.checkpointReply()
	}
}

// answerKilled unwinds a control request's waiter after Kill: a stats
// request gets no snapshot (Stats reports ErrKilled), a checkpoint gets
// ErrKilled.
func (s *shard) answerKilled(c *shardCtrl) {
	if c.stats != nil {
		c.stats <- nil
	}
	if c.ckpt != nil {
		c.ckpt <- shardCkpt{idx: s.idx, err: ErrKilled}
	}
}

// shardMsg is one mailbox entry: a routed run of n > 0 elements of one
// input, queued back to back in the mailbox's elements, or a control
// request (ctrl, with n zero).
type shardMsg struct {
	input int
	n     int
	ctrl  *shardCtrl
}

// mailbox is an unpartitioned shard's input queue: one FIFO of entries
// under one mutex. A producer appends a routed run's elements and the one
// entry describing it; a control request is an entry with no elements.
// The worker swaps out everything queued in one step (take), giving the
// producers the buffers it emptied last time, and clears what it consumed
// before it looks again (release), so no slot pins a tuple while the
// shard idles. A lent run's tuple values are copied into the value
// buffer beside the elements, which is swapped and cleared with them.
// Every buffer starts empty, grows on demand to the shard's high-water
// mark and is reused from then on; a pair that held a run longer than both
// the capacity and maxRunBuf is left to the collector instead.
type mailbox struct {
	mu sync.Mutex
	// space is where producers wait while their run does not fit; ready
	// is where the worker waits while nothing is queued (parked).
	space, ready sync.Cond
	capacity     int
	parked       bool
	closed       bool
	elems        []stream.Element // queued elements, runs back to back
	vals         []stream.Value   // lent runs' tuple values, copied in
	msgs         []shardMsg       // queued entries, in FIFO order
	// next and serving are the waiting producers' tickets: a producer
	// that must wait takes ticket next and goes in once serving reaches
	// it, so waiting runs enter in arrival order and a short run never
	// overtakes a long one already waiting.
	next, serving uint64
	// takenElems/takenVals/takenMsgs are what the last take swapped out:
	// the worker's, without a lock, until release.
	takenElems []stream.Element
	takenVals  []stream.Value
	takenMsgs  []shardMsg
}

func (mb *mailbox) init(capacity int) {
	mb.capacity = capacity
	mb.space.L, mb.ready.L = &mb.mu, &mb.mu
}

// wakeLocked wakes the worker if it is parked. Callers hold mu.
func (mb *mailbox) wakeLocked() {
	if mb.parked {
		mb.parked = false
		mb.ready.Signal()
	}
}

// put enqueues one routed run of n elements: all of elems, or when keep
// is non-nil the n elements whose bit keep sets. A lent run's tuples are
// copied in values and all (the caller reuses their values once put
// returns); any other run's elements are copied and their tuples shared.
// The run goes in whole, behind every entry already queued, once it fits
// within capacity or the mailbox is empty, and after every producer that
// was already waiting; until then the producer waits. So a mailbox never
// holds more than capacity elements or one run, and its buffers top out
// at that size.
func (mb *mailbox) put(input int, elems []stream.Element, keep []uint64, n int, lent bool) {
	mb.mu.Lock()
	if mb.next != mb.serving || !mb.fits(n) {
		ticket := mb.next
		mb.next++
		for mb.serving != ticket || !mb.fits(n) {
			mb.space.Wait()
		}
		mb.serving++
		if mb.next != mb.serving {
			mb.space.Broadcast() // the next ticket's run may fit behind this one
		}
	}
	if keep == nil && !lent {
		mb.elems = append(mb.elems, elems...)
	} else {
		for i, e := range elems {
			if keep != nil && keep[i/64]&(1<<(i%64)) == 0 {
				continue
			}
			if lent && !e.IsPunct() {
				start := len(mb.vals)
				mb.vals = append(mb.vals, e.Tuple().Values...)
				e = stream.TupleElement(stream.NewTuple(mb.vals[start:len(mb.vals):len(mb.vals)]...))
			}
			mb.elems = append(mb.elems, e)
		}
	}
	mb.msgs = append(mb.msgs, shardMsg{input: input, n: n})
	mb.wakeLocked()
	mb.mu.Unlock()
}

// fits reports whether a run of n elements may go in now. Callers hold mu.
func (mb *mailbox) fits(n int) bool {
	return len(mb.elems) == 0 || len(mb.elems)+n <= mb.capacity
}

// control enqueues a control request. It carries no elements, so it does
// not wait for space.
func (mb *mailbox) control(c *shardCtrl) {
	mb.mu.Lock()
	mb.msgs = append(mb.msgs, shardMsg{ctrl: c})
	mb.wakeLocked()
	mb.mu.Unlock()
}

// close ends the input: the worker drains what is queued and exits.
func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.wakeLocked()
	mb.mu.Unlock()
}

// take parks the worker until something is queued or the mailbox is
// closed, then swaps out everything queued under that one lock hold and
// lets waiting producers in. It reports false once the mailbox is closed
// and empty. The caller must have released the previous take.
func (mb *mailbox) take() (elems []stream.Element, msgs []shardMsg, ok bool) {
	mb.mu.Lock()
	for len(mb.msgs) == 0 && !mb.closed {
		mb.parked = true
		mb.ready.Wait()
	}
	mb.elems, mb.takenElems = mb.takenElems, mb.elems
	mb.vals, mb.takenVals = mb.takenVals, mb.vals
	mb.msgs, mb.takenMsgs = mb.takenMsgs, mb.msgs
	mb.space.Broadcast()
	mb.mu.Unlock()
	return mb.takenElems, mb.takenMsgs, len(mb.takenMsgs) > 0
}

// release clears the consumed take, keeping its buffers for the next
// swap unless they held a run too long to be worth pinning.
func (mb *mailbox) release() {
	if len(mb.takenElems) > max(mb.capacity, maxRunBuf) {
		mb.takenElems, mb.takenVals = nil, nil
	}
	clear(mb.takenElems)
	clear(mb.takenVals)
	clear(mb.takenMsgs)
	mb.takenElems, mb.takenVals, mb.takenMsgs = mb.takenElems[:0], mb.takenVals[:0], mb.takenMsgs[:0]
}

// shardCkpt is a worker's answer to a checkpoint barrier: its tree's
// serialized state and each subscriber's delivery count, taken after the
// in-flight batch was flushed.
type shardCkpt struct {
	idx   int
	state []byte
	subs  []subDelivered
	err   error
}

// subDelivered is one subscriber's delivery count at a checkpoint
// barrier.
type subDelivered struct {
	name      string
	delivered uint64
}

// maxShardBatch caps how many elements a worker pushes into its tree in
// one call, bounding output-delivery latency and the tree's output
// buffer.
const maxShardBatch = 256

// freeList is a LIFO of recycled buffers belonging to one shard: whoever
// is done with a buffer pushes it, whoever needs one pops (the zero T
// when the list is empty) and allocates on a miss. It starts empty and
// only ever holds buffers that were in flight at the same moment, so its
// depth is bounded by the mailboxes it feeds; the lock is never held
// across anything that blocks, so no goroutine ever waits for a buffer.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

func (f *freeList[T]) pop() (t T) {
	f.mu.Lock()
	if k := len(f.items) - 1; k >= 0 {
		t, f.items[k] = f.items[k], t
		f.items = f.items[:k]
	}
	f.mu.Unlock()
	return t
}

func (f *freeList[T]) push(t T) {
	f.mu.Lock()
	f.items = append(f.items, t)
	f.mu.Unlock()
}

// maxRunBuf is the capacity (in elements) above which a run buffer is left
// to the collector instead of recycled, so one fat SendBatch pins nothing:
// every run the wire ingester and the shard worker cut is shorter. A
// mailbox keeps a buffer that held a run this long (mailbox.release).
const maxRunBuf = maxShardBatch

// takeRun returns an empty buffer for a run of n elements bound for this
// shard's partition front: the most recently recycled one when it is
// large enough, otherwise a new one of n slots rounded up to a power of
// two. The rounding bounds how often a circulating buffer is outgrown
// (eight times from 1 to maxRunBuf, whatever order run lengths arrive in)
// at no more than twice the run; a fixed minimum size would instead
// charge every short run for the longest (DESIGN.md §3.6).
func (s *shard) takeRun(n int) []stream.Element {
	if b := s.runs.pop(); cap(b) >= n {
		return b
	}
	return make([]stream.Element, 0, 1<<bits.Len(uint(n-1)))
}

// giveRun recycles a run buffer once its elements have been copied out,
// cleared so that it holds nothing while it waits.
func (s *shard) giveRun(b []stream.Element) {
	if cap(b) > maxRunBuf {
		return
	}
	clear(b)
	s.runs.push(b[:0])
}

// RunSharded starts the sharded runtime over the currently registered
// queries.
func (d *DSMS) RunSharded(opts RuntimeOptions) *Runtime {
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = defaultShardBuffer
	}
	rt := &Runtime{
		d:       d,
		byName:  make(map[string]*shard, len(d.order)),
		route:   make(map[string][]*shard),
		buffer:  buffer,
		kill:    make(chan struct{}),
		sources: make(map[string]int64),
		policy:  opts.OnError,
		tap:     opts.IngestTap,
		dlq:     newDeadLetterQueue(opts.OnError == Quarantine, opts.DeadLetterLimit),
	}
	for _, name := range d.order {
		r := d.queries[name]
		if !r.isDriver() {
			// Share-group member: its driver's shard already (or will,
			// registration order puts drivers first) fans out to it.
			continue
		}
		rt.spawnShard(r)
	}
	return rt
}

// spawnShard starts the shard goroutine for one share group, wiring
// routing and the per-member name index.
func (rt *Runtime) spawnShard(r *Registered) *shard {
	s := &shard{
		reg:  r,
		done: make(chan struct{}),
		rt:   rt,
		idx:  len(rt.shards),
	}
	rt.shards = append(rt.shards, s)
	for _, m := range r.group.members {
		if m.passiveSub() {
			m.logStart, m.logStartCount = 0, 0
			m.logPure = len(m.Results) == 0
		}
	}
	s.rebuildSubs()
	for _, m := range r.group.members {
		rt.byName[m.Name] = s
	}
	for streamName := range s.reg.streamInput {
		rt.route[streamName] = append(rt.route[streamName], s)
	}
	if s.reg.Part != nil {
		// Partitioned query: no shard mailbox. Producers scatter
		// directly into the front's per-partition mailboxes and the
		// shard goroutine becomes the merge stage.
		s.pf = newPartFront(s)
		go s.runPartitioned()
		return s
	}
	s.mb.init(rt.buffer)
	go s.run()
	return s
}

// run is the shard worker: it empties the mailbox into the query's tree
// one take at a time and, on clean shutdown, flushes the tree's pending
// lazy purge rounds so Wait leaves every shard fully purged. After the
// shard's first error it keeps draining without processing so producers
// never block forever.
//
// Faults are contained per element and per shard: recoverable element
// errors go to the dead-letter queue under Drop/Quarantine, and operator
// panics are recovered into shard-local errors, so one poisoned query
// never takes down its siblings or the process.
func (s *shard) run() {
	defer close(s.done)
	for {
		elems, msgs, ok := s.mb.take()
		select {
		case <-s.rt.kill:
			// Checked before ok: a worker parked across Kill first wakes
			// to Close, and must not run finish's final purge round.
			s.discard(msgs)
			return
		default:
		}
		if !ok {
			break
		}
		s.handle(elems, msgs)
		s.mb.release()
	}
	s.finish()
}

// discard is the post-Kill worker loop: the crash model stops all
// processing dead (no further push, no lazy-purge finish), but the
// mailbox keeps draining without effect so producers waiting for space
// and control waiters all unwind. msgs is the take Kill was noticed in.
// It returns when the mailbox is closed and empty.
func (s *shard) discard(msgs []shardMsg) {
	s.materializePassive()
	for ok := true; ok; _, msgs, ok = s.mb.take() {
		for _, m := range msgs {
			if m.ctrl != nil {
				s.answerKilled(m.ctrl)
			}
		}
		s.mb.release()
	}
}

// handle processes one take in FIFO order. Consecutive runs of one input
// form a segment, pushed through flushBatch in slices of at most
// maxShardBatch; a control entry is answered once everything before it
// has been pushed. A checkpoint barrier therefore serializes a consistent
// cut (pending lazy purges are NOT forced: they are part of the state and
// travel in the snapshot, so the restored run purges on the same schedule
// as an uninterrupted one).
func (s *shard) handle(elems []stream.Element, msgs []shardMsg) {
	for i := 0; i < len(msgs); {
		m := msgs[i]
		if m.ctrl != nil {
			s.answer(m.ctrl)
			i++
			continue
		}
		n := 0
		for ; i < len(msgs) && msgs[i].ctrl == nil && msgs[i].input == m.input; i++ {
			n += msgs[i].n
		}
		for seg := elems[:n]; len(seg) > 0; {
			k := min(len(seg), maxShardBatch)
			s.flushBatch(m.input, seg[:k])
			seg = seg[k:]
		}
		elems = elems[n:]
	}
}

// deliver fans one output batch out to every subscribed query. Passive
// subscribers share one copy of each result tuple in the delivery log,
// however many there are; only subscribers with callbacks pay per element.
func (s *shard) deliver(outs []stream.Element) {
	if len(outs) == 0 {
		return
	}
	if len(s.passive) > 0 {
		s.logCount += uint64(len(outs))
		for _, o := range outs {
			if !o.IsPunct() {
				s.logTuples = append(s.logTuples, o.Tuple().Clone())
			}
		}
	}
	for _, m := range s.active {
		m.deliver(outs)
	}
}

// rebuildSubs computes the active/passive split of the group's members,
// in member order so fan-out order stays deterministic.
func (s *shard) rebuildSubs() {
	s.active, s.passive = s.active[:0], s.passive[:0]
	for _, m := range s.reg.group.members {
		if m.passiveSub() {
			s.passive = append(s.passive, m)
		} else {
			s.active = append(s.active, m)
		}
	}
}

// materialize publishes one passive subscriber's pending log range into
// its Results and delivered count. When Results is a pure log alias the
// publish is a zero-copy re-slice (capacity-clamped so a later append by
// anyone reallocates instead of scribbling over the shared log);
// otherwise the new range is appended. O(1) per call on the pure path,
// so barriers stay cheap at any subscriber count.
func (s *shard) materialize(m *Registered) {
	cur := len(s.logTuples)
	if m.logPure {
		m.Results = s.logTuples[:cur:cur]
	} else if tail := s.logTuples[m.logStart:cur:cur]; len(tail) > 0 {
		m.Results = append(m.Results, tail...)
	}
	m.logStart = cur
	m.delivered += s.logCount - m.logStartCount
	m.logStartCount = s.logCount
}

// materializePassive publishes every passive subscriber's pending log
// range. Called at every barrier a subscriber's Results or Delivered may
// be observed behind: stats, checkpoint, end of input, kill.
func (s *shard) materializePassive() {
	for _, m := range s.passive {
		s.materialize(m)
	}
}

// deadLetter records one offender against every subscribed query —
// exactly the accounting N independent trees would have produced.
func (s *shard) deadLetter(streamName string, e stream.Element, err error) {
	for _, m := range s.reg.group.members {
		s.rt.dlq.add(DeadLetter{Stream: streamName, Query: m.Name, Elem: e, Err: err})
	}
}

// flushBatch pushes a run of one input's elements through the tree's
// batched path, applying the element-level error policy per offender:
// recoverable offenders are dead-lettered and the rest of the run resumes
// after them, so batching never changes which elements a policy keeps or
// drops. A failed shard pushes nothing.
func (s *shard) flushBatch(input int, elems []stream.Element) {
	for len(elems) > 0 && !s.failed {
		n, err := s.pushBatchContained(input, elems)
		if err == nil {
			return
		}
		if s.rt.policy != Fail && recoverableError(err) {
			s.deadLetter(s.reg.Query.Stream(input).Name(), elems[n], err)
			elems = elems[n+1:]
			continue
		}
		s.failed = true
		s.rt.fail(fmt.Errorf("engine: query %q: %w", s.reg.Name, err))
	}
}

// checkpointReply serializes the shard's tree for a checkpoint barrier,
// with every subscriber's delivery count at the cut.
func (s *shard) checkpointReply() shardCkpt {
	s.materializePassive()
	if s.failed {
		return shardCkpt{idx: s.idx, err: fmt.Errorf("engine: query %q has failed; state not checkpointable", s.reg.Name)}
	}
	var buf bytes.Buffer
	if err := s.reg.ex.WriteState(&buf); err != nil {
		return shardCkpt{idx: s.idx, err: fmt.Errorf("engine: query %q: serializing state: %w", s.reg.Name, err)}
	}
	subs := make([]subDelivered, len(s.reg.group.members))
	for i, m := range s.reg.group.members {
		subs[i] = subDelivered{name: m.Name, delivered: m.delivered}
	}
	return shardCkpt{idx: s.idx, state: buf.Bytes(), subs: subs}
}

// finish runs the end-of-input flush once the mailbox has fully drained.
func (s *shard) finish() {
	defer s.materializePassive()
	if s.failed {
		return
	}
	if err := s.flushContained(); err != nil {
		s.rt.fail(fmt.Errorf("engine: query %q: %w", s.reg.Name, err))
	}
}

// pushBatchContained feeds a run of elements into the shard's tree and
// fans the outputs out to the subscribers, converting an operator panic
// into a returned *PanicError (one recover frame per batch instead of
// per element). A panic always fails the whole shard, so the unknown
// progress index is irrelevant; element-level errors report the
// offender's index for resumption, with the preceding elements' outputs
// already delivered.
func (s *shard) pushBatchContained(input int, elems []stream.Element) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(r)
		}
	}()
	outs, n, err := s.reg.ex.PushBatch(input, elems)
	s.deliver(outs)
	return n, err
}

// flushContained runs the end-of-input flush with the same panic
// containment as pushContained.
func (s *shard) flushContained() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(r)
		}
	}()
	outs, err := s.reg.ex.Flush()
	if err != nil {
		return err
	}
	s.deliver(outs)
	return nil
}

// fail records the runtime's first error.
func (rt *Runtime) fail(err error) {
	rt.errMu.Lock()
	defer rt.errMu.Unlock()
	if rt.firstErr == nil {
		rt.firstErr = err
	}
}

// Err returns the first error any shard hit, without blocking; nil while
// everything is healthy.
func (rt *Runtime) Err() error {
	rt.errMu.Lock()
	defer rt.errMu.Unlock()
	return rt.firstErr
}

// Send routes one element of the named raw stream to every subscribed
// shard, applying each query's input filter on the router side. It blocks
// while a subscribed shard's mailbox has no room (backpressure) and is
// safe to call from any number of producer goroutines. After Close it returns
// an error instead of panicking. A failed shard keeps draining its mailbox
// without processing, so Send keeps routing; the failure surfaces from Err
// and Wait.
func (rt *Runtime) Send(streamName string, e stream.Element) error {
	return rt.commit("Send", "", streamName, []stream.Element{e}, false, nil, 0, nil)
}

// SendAt is Send plus offset bookkeeping: on success it records offset
// as the named ingest source's committed resume position. The commit
// happens under the same lock hold as the send, so a concurrent
// Checkpoint observes either both or neither — the consistent cut that
// makes resume-after-restore exactly-once.
func (rt *Runtime) SendAt(source, streamName string, e stream.Element, offset int64) error {
	return rt.commit("SendAt", source, streamName, []stream.Element{e}, false, nil, offset, nil)
}

// SendBatch routes a run of elements of one named stream, equivalent to
// calling Send per element but with one mailbox hand-off per subscribed
// shard: the run is filtered per query on the router side and the
// accepted elements enter the mailbox as one run under one lock hold, so
// per-element routing and locking is amortized across the batch. The
// caller keeps ownership of elems (each shard copies the run in) but
// hands over the tuples: the runtime reads their Values after SendBatch
// returns, so a caller must not overwrite them. Filter errors follow
// Send's policy handling per element; under Fail the offender fails the
// runtime and the batch is not delivered to the failing query's shard.
func (rt *Runtime) SendBatch(streamName string, elems []stream.Element) error {
	return rt.commit("SendBatch", "", streamName, elems, false, nil, 0, nil)
}

// commit is the one way elements enter the runtime; every producer entry
// point (op names it in errors) is a wrapper over it. Under one hold of
// closeMu's read side it dead-letters the wire faults the offset has
// passed, routes the run, and — unless source is empty, which means "no
// offset to commit" — records offset as the source's resume position, so
// a concurrent Checkpoint sees all of it or none of it. With a tap
// recorder attached, the whole commit additionally runs under tapMu and
// finishes by handing the committed raw bytes to the tap, so tap order
// equals send order across concurrent sources. A lent run (wire ingest)
// is the caller's to reuse once commit returns, values and all; any other
// run hands its tuples over (routeRun).
func (rt *Runtime) commit(op, source, streamName string, elems []stream.Element, lent bool, faults []DeadLetter, offset int64, rec *tapRecorder) error {
	rt.closeMu.RLock()
	defer rt.closeMu.RUnlock()
	if rt.closed {
		return fmt.Errorf("engine: runtime: %s after Close", op)
	}
	if rec != nil {
		rt.tapMu.Lock()
		defer rt.tapMu.Unlock()
	}
	for _, f := range faults {
		rt.dlq.add(f)
	}
	if err := rt.routeRun(streamName, elems, lent); err != nil {
		return err
	}
	if source != "" {
		rt.srcMu.Lock()
		rt.sources[source] = offset
		rt.srcMu.Unlock()
	}
	if rec != nil {
		if raw, from := rec.pending(offset); len(raw) > 0 {
			rt.tap(source, raw, from, offset)
		}
		rec.release(offset)
	}
	return nil
}

// routeRun is the one routing body: it hands a run of one stream's
// elements to every subscribed shard, filtered per query. The caller
// holds closeMu.RLock and keeps elems. An unpartitioned shard's mailbox
// copies the accepted elements in as one run; a partitioned shard's front
// gets them in one of the shard's recycled run buffers (takeRun). A run's
// tuples are handed over, except a lent run's, whose values the caller
// reuses: the mailbox copies them into its value buffer, and a partition
// front gets clones.
func (rt *Runtime) routeRun(streamName string, elems []stream.Element, lent bool) error {
	if len(elems) == 0 {
		return nil
	}
	for _, s := range rt.route[streamName] {
		input := s.reg.streamInput[streamName]
		if s.pf != nil {
			// Partitioned query: the producer routes the run itself —
			// hash each tuple to its owning partition, seal every
			// partition's mailbox for a punctuation.
			accepted := s.takeRun(len(elems))
			for _, e := range elems {
				ok, err := rt.admit(s, input, streamName, e)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				if lent && !e.IsPunct() {
					e = stream.TupleElement(e.Tuple().Clone())
				}
				accepted = append(accepted, e)
			}
			if len(accepted) == 0 {
				s.giveRun(accepted)
				continue
			}
			s.pf.sendRun(input, streamName, accepted)
			continue
		}
		if s.reg.filter == nil {
			s.mb.put(input, elems, nil, len(elems), lent)
			continue
		}
		// Filter outside the mailbox lock, once per element, into a bit
		// per element; the mailbox copies the kept ones in.
		var words [maxShardBatch / 64]uint64
		keep := words[:]
		if w := (len(elems) + 63) / 64; w > len(words) {
			keep = make([]uint64, w)
		}
		kept := 0
		for i, e := range elems {
			ok, err := rt.admit(s, input, streamName, e)
			if err != nil {
				return err
			}
			if ok {
				keep[i/64] |= 1 << (i % 64)
				kept++
			}
		}
		if kept > 0 {
			s.mb.put(input, elems, keep, kept, lent)
		}
	}
	return nil
}

// admit evaluates one query's input filter on one element with panic
// containment. A panicking filter leaves the element unclassifiable for
// this query: it is dead-lettered under Drop/Quarantine (once per
// subscribed query, as independent trees would) and not admitted, or it
// fails the runtime under Fail and the error is returned — the producer
// goroutine survives either way.
func (rt *Runtime) admit(s *shard, input int, streamName string, e stream.Element) (bool, error) {
	ok, err := safeAccepts(s.reg, input, e)
	if err == nil {
		return ok, nil
	}
	err = fmt.Errorf("engine: query %q: %w", s.reg.Name, err)
	if rt.policy == Fail {
		rt.fail(err)
		return false, err
	}
	for _, m := range s.reg.group.members {
		rt.dlq.add(DeadLetter{Stream: streamName, Query: m.Name, Elem: e, Err: err})
	}
	return false, nil
}

// safeAccepts evaluates the query's input filter with panic containment:
// a filter that panics yields errFilterPanic instead of unwinding the
// producer goroutine.
func safeAccepts(r *Registered, input int, e stream.Element) (ok bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%w: %v", errFilterPanic, v)
		}
	}()
	return r.accepts(input, e), nil
}

// DeadLetters returns a detached snapshot of the runtime's dead-letter
// queue: totals and per-stream/per-query counts under Drop and
// Quarantine, plus the retained offenders under Quarantine. Safe to call
// from any goroutine at any time.
func (rt *Runtime) DeadLetters() DeadLetterSnapshot { return rt.dlq.snapshot() }

// AddDeadLetter records an externally classified offender in the
// runtime's dead-letter queue — counted always, retained under
// Quarantine — exactly as if a shard had rejected it. The serving
// layer's drop-with-counter slow-consumer policy uses this so dropped
// deliveries ride the same accounting as every other absorbed fault.
// Safe to call from any goroutine.
func (rt *Runtime) AddDeadLetter(d DeadLetter) { rt.dlq.add(d) }

// Close signals the end of input: every shard finishes its queued
// elements, flushes pending lazy purges, and exits. Idempotent; call it
// once all producers are done (a Send racing with Close errors rather
// than panicking, because Close waits for in-flight Sends).
func (rt *Runtime) Close() {
	rt.closeMu.Lock()
	defer rt.closeMu.Unlock()
	if rt.closed {
		return
	}
	rt.closed = true
	for _, s := range rt.shards {
		if s.pf != nil {
			s.pf.close()
			continue
		}
		s.mb.close()
	}
}

// Wait blocks until every shard has drained and flushed (after Close) and
// returns the runtime's first error, if any. Once Wait returns the DSMS
// and its Registered handles are quiescent and safe to read directly.
func (rt *Runtime) Wait() error {
	for _, s := range rt.shards {
		<-s.done
	}
	return rt.Err()
}

// Stats returns a race-safe snapshot of the named query's operator stats
// (bottom-up, as exec.Tree.Operators orders them). For a share-group
// member this is the shared tree's stats — identical to what the query's
// own tree would report, since it would have processed the same input.
// While the shard runs the request travels through its mailbox and is
// answered by the worker goroutine itself — a consistent point-in-time
// snapshot with no locks on the hot path; after the shard has drained
// the tree is read directly. Safe to call from any goroutine,
// concurrently with Send and Close: the runtime's close lock serializes
// the mailbox hand-off, and a request already queued when Close lands is
// still answered during the drain. A killed runtime has no consistent
// state to report: Stats returns ErrKilled, as Checkpoint does.
func (rt *Runtime) Stats(name string) ([]*exec.Stats, error) {
	rt.closeMu.RLock()
	defer rt.closeMu.RUnlock()
	s, ok := rt.byName[name]
	if !ok {
		return nil, fmt.Errorf("engine: no query %q", name)
	}
	select {
	case <-rt.kill:
		return nil, ErrKilled
	default:
	}
	if rt.closed {
		// Mailbox closed: the worker is draining or done. Wait for it,
		// then read directly — the <-done synchronizes with the worker's
		// final writes.
		<-s.done
		return s.reg.StatsSnapshot(), nil
	}
	// The request travels behind every element enqueued before it (on a
	// partitioned query, through every partition mailbox, answered by
	// the merge stage once the workers are quiescent). A nil answer means
	// Kill landed while it was queued.
	reply := make(chan []*exec.Stats, 1)
	s.control(&shardCtrl{stats: reply})
	if st := <-reply; st != nil {
		return st, nil
	}
	return nil, ErrKilled
}
