package exec

import (
	"fmt"
	"slices"
	"strings"

	"punctsafe/query"
	"punctsafe/safety"
	"punctsafe/stream"
)

// Config parameterizes an MJoin operator. The zero value of the optional
// knobs selects the paper's defaults: eager purging, punctuations kept
// forever, output punctuation propagation on.
type Config struct {
	// Query describes the operator's inputs and join predicates. A
	// 2-stream query yields the classic symmetric binary hash join; more
	// streams yield a generalized symmetric MJoin.
	Query *query.CJQ
	// Schemes is the punctuation scheme set ℜ visible to the operator.
	Schemes *stream.SchemeSet
	// PurgeBatch controls purge timing (§5.2 Plan Parameter II): 0 or 1
	// purges eagerly on every punctuation arrival; K>1 batches
	// punctuations and purges every K input elements.
	PurgeBatch int
	// PunctLifespan, when nonzero, expires stored punctuations after this
	// many input elements (§5.1 lifespans). Expired punctuations stop
	// contributing to purge decisions.
	PunctLifespan uint64
	// DisablePurge turns data purging off entirely; join states then grow
	// without bound. Used as the no-punctuation baseline in experiments.
	DisablePurge bool
	// PurgePunctuations enables §5.1 punctuation purging, which keeps the
	// punctuation stores bounded on promise-keeping feeds without changing
	// what the operator emits. A stored punctuation is dropped only once it
	// has been propagated (its own input stores no tuple matching it), and
	// then once counter-punctuations on its non-* attributes have arrived
	// from every join partner and no stored partner tuple still needs it,
	// or at once when it constrains an attribute that joins nothing here.
	// Ordered (watermark) punctuations are never dropped.
	PurgePunctuations bool
	// StateLimit, when nonzero, makes Push fail once the total stored
	// tuple count would exceed it — the resource back-stop that keeps an
	// unsafe (or insufficiently punctuated) query from exhausting memory,
	// the failure mode the paper's compile-time check exists to prevent.
	StateLimit int
	// SoftStateLimit, when nonzero, is a pressure watermark (set it below
	// StateLimit): crossing it forces an eager purge round — pending lazy
	// punctuations are flushed and a full clean-up sweep runs — and fires
	// OnPressure, so the query degrades gracefully before the hard limit
	// trips. One event fires per excursion above the watermark.
	SoftStateLimit int
	// OnPressure, when set, observes SoftStateLimit crossings. It runs on
	// the goroutine driving the operator and must not call back into it.
	OnPressure func(PressureEvent)
	// EnforcePromises makes Push fail when an input tuple matches a live
	// punctuation previously received on ITS OWN input — a violation of
	// the punctuation contract ("no future tuple will satisfy this
	// predicate"). Correctness of purging rests on that contract, so
	// surfacing violations loudly beats silently wrong results. Off by
	// default: §5.1 notes punctuations can be missed or malformed in
	// practice, and some applications prefer to tolerate them.
	EnforcePromises bool
}

// ErrPromiseViolated is returned (wrapped) when EnforcePromises catches a
// tuple arriving after a punctuation that forbids it.
var ErrPromiseViolated = fmt.Errorf("exec: punctuation promise violated")

// ErrStateLimit is returned (wrapped) when a configured StateLimit is
// exceeded.
var ErrStateLimit = fmt.Errorf("exec: join state limit exceeded")

// ErrMalformedElement is returned (wrapped) when an input element fails
// schema validation — wrong arity, wrong value kinds, or a punctuation
// whose patterns do not fit the stream. It marks element-level damage:
// rejecting the offender leaves the operator state untouched, so callers
// may drop or quarantine the element and continue.
var ErrMalformedElement = fmt.Errorf("exec: malformed element")

// ErrProbeDisconnected is returned when result expansion cannot reach an
// unbound input through any predicate to a bound one. It cannot occur for
// the connected queries the planner admits; it surfaces (instead of
// panicking) if an invariant is broken, so one poisoned operator fails
// its own query rather than the process.
var ErrProbeDisconnected = fmt.Errorf("exec: probe order disconnected")

// MJoin is a symmetric, non-blocking multi-way join operator with
// punctuation-driven state purging. It is single-threaded by design; the
// engine package provides the concurrent shell around operators.
type MJoin struct {
	q       *query.CJQ
	cfg     Config
	states  []*joinState
	puncts  []*punctStore
	plans   []*safety.PurgePlan
	stats   *Stats
	clock   uint64
	out     *stream.Schema
	colBase []int // output column offset per input
	// pending holds punctuations awaiting a lazy purge round.
	pending []pendingPunct
	// pressured latches while stored state sits above SoftStateLimit so a
	// sustained excursion triggers one forced purge, not one per element.
	pressured bool
	// probeOrders[i] is the BFS stream order used to expand results for a
	// tuple arriving on input i.
	probeOrders [][]int
	// stepScheme[i][k] caches the punct-store scheme index used by step k
	// of input i's purge plan; needFrontier[i][k] is whether a later step
	// reads the joinable frontier step k advances into its stream.
	stepScheme   [][]int
	needFrontier [][]bool
	// predsTouching[i] caches q.PredicatesTouching(i): the accessor
	// allocates a fresh slice per call, which the probe and purge hot
	// paths must not pay per element.
	predsTouching [][]query.Predicate
	// punctPlans[i][k] is the compiled plan for punctuations instantiating
	// input i's scheme k, and removedProbes[i] the stored partner
	// punctuations a tuple removed from input i may unblock (punctplan.go).
	punctPlans    [][]punctPlan
	removedProbes [][]removedProbe
	// pr and pg hold the operator's reusable probe and purge scratch;
	// steady-state probing and purging allocate nothing beyond the result
	// tuples themselves.
	pr probeScratch
	pg purgeScratch
	// outBuf is the slice Push, PushBatch, Flush and Sweep return, lent to
	// the caller until the next of them (takeOut); zero past its length.
	outBuf []stream.Element
	// lend makes concat carve result tuples out of outVals instead of
	// allocating them (Tree.Lend, or PushBatchEnds over the caller's
	// buffer; only ever set on a tree's root). The tuples are then lent
	// exactly as outBuf is: takeOut clears outVals and the next call
	// overwrites them.
	lend    bool
	outVals []stream.Value
}

// maxOutBuf is the capacity (in elements of 56 B) above which the output
// buffer is dropped, not reused, so one fat batch pins nothing past the
// next call. A constant, not an option: it only has to exceed what a run
// of the engine's batch size emits, and no caller has a reason to trade it.
// maxOutVals is the same bound for the lent result values.
const (
	maxOutBuf  = 4096
	maxOutVals = 8 * maxOutBuf
)

// probeScratch is the per-operator reusable state of result expansion.
// MJoin is single-threaded, so one set of buffers serves every Push.
type probeScratch struct {
	bound   []stream.Tuple
	isBound []bool
	out     []stream.Element // where the running probe appends its results
	// cand holds per-depth double buffers for multi-predicate bucket
	// intersections (two, so an intersection never reads the buffer it is
	// writing).
	cand [2][][]row
}

// pendingPunct is an accepted punctuation awaiting its purge round:
// input's scheme number scheme is the one p instantiates.
type pendingPunct struct {
	input, scheme int
	p             stream.Punctuation
}

// NewMJoin builds the operator. The safety analysis runs once here: each
// input that is purgeable under the scheme set (Theorem 3) gets its
// chained purge plan; non-purgeable inputs are stored but never purged
// (exactly the failure mode the compile-time safety check exists to
// reject).
func NewMJoin(cfg Config) (*MJoin, error) {
	if cfg.Query == nil {
		return nil, fmt.Errorf("exec: Config.Query is nil")
	}
	if cfg.Schemes == nil {
		cfg.Schemes = stream.NewSchemeSet()
	}
	q := cfg.Query
	m := &MJoin{
		q:      q,
		cfg:    cfg,
		states: make([]*joinState, q.N()),
		puncts: make([]*punctStore, q.N()),
		plans:  make([]*safety.PurgePlan, q.N()),
		stats:  newStats(q.N()),
	}
	gpg := safety.BuildGPG(q, cfg.Schemes)
	for i := 0; i < q.N(); i++ {
		m.states[i] = newJoinState(q.Stream(i), q.JoinAttrs(i))
		m.puncts[i] = newPunctStore(q.Stream(i), cfg.Schemes.ForStream(q.Stream(i).Name()))
		m.plans[i] = gpg.PurgePlan(i)
	}
	m.stepScheme = make([][]int, q.N())
	m.needFrontier = make([][]bool, q.N())
	jg := q.JoinGraph()
	for i, plan := range m.plans {
		if plan == nil {
			continue
		}
		idx := make([]int, len(plan.Steps))
		for k, st := range plan.Steps {
			idx[k] = m.puncts[st.Stream].indexOfScheme(st.Scheme)
			if idx[k] < 0 {
				return nil, fmt.Errorf("exec: purge plan for input %d uses unregistered scheme %s", i, st.Scheme)
			}
		}
		m.stepScheme[i] = idx
		// Step k's frontier is read by a later step that draws constants
		// from it, or that semijoins its own (needed) frontier against it.
		need := make([]bool, len(plan.Steps))
		for k := len(need) - 2; k >= 0; k-- {
			j := plan.Steps[k].Stream
			for l := k + 1; l < len(need) && !need[k]; l++ {
				later := plan.Steps[l]
				need[k] = slices.Contains(later.Sources, j) || need[l] && jg.HasEdge(j, later.Stream)
			}
		}
		m.needFrontier[i] = need
	}
	m.predsTouching = make([][]query.Predicate, q.N())
	for i := 0; i < q.N(); i++ {
		m.predsTouching[i] = q.PredicatesTouching(i)
	}
	m.pr = probeScratch{
		bound:   make([]stream.Tuple, q.N()),
		isBound: make([]bool, q.N()),
		cand:    [2][][]row{make([][]row, q.N()), make([][]row, q.N())},
	}
	m.initPurgeScratch()
	m.buildOutputSchema()
	m.compilePunctPlans()
	m.buildProbeOrders()
	return m, nil
}

// Purgeable reports whether input i's join state is purgeable (Theorem 3).
func (m *MJoin) Purgeable(i int) bool { return m.plans[i] != nil }

// Stats returns the operator's counters (live; do not modify). The
// returned pointer aliases the operator's mutable state: reading it while
// another goroutine drives the operator is a data race. Cross-goroutine
// readers must use StatsSnapshot (or the engine Runtime's snapshot API).
func (m *MJoin) Stats() *Stats { return m.stats }

// StatsSnapshot returns a deep-copied, detached copy of the operator's
// counters. Call it from the goroutine driving the operator, or after the
// operator has quiesced.
func (m *MJoin) StatsSnapshot() *Stats { return m.stats.Snapshot() }

// OutputSchema is the schema of emitted result tuples: the concatenation
// of the input schemas, with columns named <stream>_<attr>.
func (m *MJoin) OutputSchema() *stream.Schema { return m.out }

func (m *MJoin) buildOutputSchema() {
	var attrs []stream.Attribute
	m.colBase = make([]int, m.q.N())
	var names []string
	for i := 0; i < m.q.N(); i++ {
		m.colBase[i] = len(attrs)
		sc := m.q.Stream(i)
		names = append(names, sc.Name())
		for j := 0; j < sc.Arity(); j++ {
			attrs = append(attrs, stream.Attribute{
				Name: sc.Name() + "_" + sc.Attr(j).Name,
				Kind: sc.Attr(j).Kind,
			})
		}
	}
	m.out = stream.MustSchema("join("+strings.Join(names, ",")+")", attrs...)
}

// buildProbeOrders computes, per arrival input, a BFS order of the other
// inputs over the join graph so each expansion step joins a stream
// already connected to the bound set.
func (m *MJoin) buildProbeOrders() {
	jg := m.q.JoinGraph()
	m.probeOrders = make([][]int, m.q.N())
	for i := 0; i < m.q.N(); i++ {
		var order []int
		seen := make([]bool, m.q.N())
		seen[i] = true
		queue := []int{i}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range jg.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					order = append(order, v)
					queue = append(queue, v)
				}
			}
		}
		m.probeOrders[i] = order
	}
}

// takeOut hands out the operator's output buffer for a new call: emptied,
// with the previous call's elements cleared so it holds nothing, or nil
// (the call allocates afresh) once it has grown past maxOutBuf. The caller
// stores the slice it ends up with back into m.outBuf. The lent result
// values are emptied the same way (ResetValues).
func (m *MJoin) takeOut() []stream.Element {
	m.outVals = ResetValues(m.outVals)
	out := m.outBuf
	m.outBuf = nil
	if cap(out) > maxOutBuf {
		return nil
	}
	clear(out)
	return out[:0]
}

// Push feeds one element into the given input and returns the emitted
// output elements (result tuples first, then any output punctuations).
// The returned slice is the operator's own buffer, borrowed: it is valid
// until the next Push, PushBatch, Flush or Sweep on this operator, which
// overwrites it. Copy the slice (slices.Clone) to keep it longer; the
// tuples and punctuations in it are never overwritten.
func (m *MJoin) Push(input int, e stream.Element) ([]stream.Element, error) {
	out, err := m.pushInto(m.takeOut(), input, e)
	m.outBuf = out
	return out, err
}

// PushBatch feeds a run of elements into one input, exactly as if Push
// were called per element with the outputs concatenated. It returns the
// concatenated outputs, the number of elements fully processed, and the
// first error. On error the outputs of the preceding elements are kept
// (the offender is elems[n]); callers with element-level error policies
// can record the offender and resume with elems[n+1:]. The returned slice
// is borrowed exactly as Push's is: valid until the next call into the
// operator.
func (m *MJoin) PushBatch(input int, elems []stream.Element) (out []stream.Element, n int, err error) {
	out = m.takeOut()
	for ; n < len(elems); n++ {
		if out, err = m.pushInto(out, input, elems[n]); err != nil {
			break
		}
	}
	m.outBuf = out
	return out, n, err
}

// pushInto is the one element body under Push and PushBatch: it appends
// the element's outputs to out and returns the extended slice. On error,
// out is returned truncated to its length at entry (an element that fails
// emits nothing) with the cut slots cleared.
func (m *MJoin) pushInto(out []stream.Element, input int, e stream.Element) ([]stream.Element, error) {
	if input < 0 || input >= m.q.N() {
		return out, fmt.Errorf("exec: input %d out of range [0,%d)", input, m.q.N())
	}
	mark := len(out)
	m.clock++
	var err error
	if e.IsPunct() {
		out, err = m.pushPunct(out, input, e.Punct())
	} else {
		out, err = m.pushTuple(out, input, e.Tuple())
	}
	if err != nil {
		clear(out[mark:])
		return out[:mark], err
	}
	if m.cfg.PunctLifespan > 0 && m.clock%256 == 0 {
		for i, ps := range m.puncts {
			n := ps.expire(m.clock)
			m.stats.PunctsPurged[i] += uint64(n)
			m.stats.PunctStoreSize[i] = ps.size
		}
	}
	// Lazy purge round when the batch threshold is crossed.
	if m.cfg.PurgeBatch > 1 && m.clock%uint64(m.cfg.PurgeBatch) == 0 {
		out = m.flushPendingInto(out)
	}
	if m.cfg.SoftStateLimit > 0 {
		out = m.relievePressure(out)
	}
	m.stats.noteWatermarks()
	return out, nil
}

func (m *MJoin) pushTuple(out []stream.Element, input int, t stream.Tuple) ([]stream.Element, error) {
	if err := t.Validate(m.q.Stream(input)); err != nil {
		return out, fmt.Errorf("%w: input %d: %v", ErrMalformedElement, input, err)
	}
	if m.cfg.EnforcePromises {
		if p, violated := m.violatedPromise(input, t); violated {
			return out, fmt.Errorf("%w: stream %s tuple %s matches its own punctuation %s",
				ErrPromiseViolated, m.q.Stream(input).Name(), t, p)
		}
	}
	m.stats.TuplesIn[input]++
	mark := len(out)
	out, err := m.probe(out, input, t)
	if err != nil {
		return out, err
	}
	m.stats.Results += uint64(len(out) - mark)
	// Drop-at-insertion (eager mode): a tuple already covered by stored
	// punctuations can never join future inputs — after emitting its
	// results against the stored states, it need not be stored at all.
	// Lazy mode defers this to the next batched purge round, which finds
	// the tuple through its state lookups.
	stored := true
	if !m.cfg.DisablePurge && m.cfg.PurgeBatch <= 1 && m.plans[input] != nil {
		m.stats.PurgeChecks++
		if m.purgeableTuple(input, t) {
			m.stats.TuplesPurged[input]++
			stored = false
		}
	}
	if stored {
		if m.cfg.StateLimit > 0 && m.stats.TotalState() >= m.cfg.StateLimit {
			return out, fmt.Errorf("%w: %d tuples stored, limit %d (query %s)",
				ErrStateLimit, m.stats.TotalState(), m.cfg.StateLimit, m.q)
		}
		m.states[input].insert(t)
		m.stats.StateSize[input] = m.states[input].size()
	}
	return out, nil
}

func (m *MJoin) pushPunct(out []stream.Element, input int, p stream.Punctuation) ([]stream.Element, error) {
	if err := p.Validate(m.q.Stream(input)); err != nil {
		return out, fmt.Errorf("%w: input %d: %v", ErrMalformedElement, input, err)
	}
	m.stats.PunctsIn[input]++
	entry, scheme := m.puncts[input].add(p, m.clock, m.cfg.PunctLifespan)
	m.stats.PunctStoreSize[input] = m.puncts[input].size
	if entry == nil {
		// Irrelevant (no registered scheme) or duplicate punctuation:
		// nothing further to do — this is the "identify the useful
		// punctuations" filtering of §1.
		return out, nil
	}
	// Propagation is tested before the purge round, whose §5.1 pass reads
	// it (a round only removes tuples: a yes holds after it, a no it turns
	// to yes is emitted by emitForRemoved), and emitted after the round.
	propagated := m.propagate(input, scheme, entry)
	pp := pendingPunct{input: input, scheme: scheme, p: p}
	if m.cfg.PurgeBatch <= 1 {
		m.pg.one = append(m.pg.one[:0], pp)
		out = m.purgeRound(out, m.pg.one)
	} else {
		m.pending = append(m.pending, pp)
	}
	if propagated {
		out = m.emitPunct(out, input, scheme, entry)
	}
	return out, nil
}

// flushPendingInto runs one purge round over the accumulated punctuations,
// if any (the lazy strategy of §5.2), appending any emitted punctuations
// to out. The round reads the batch while the spare list stands in as
// pending (nothing enters pending during a round); the batch is then
// cleared, dropping its punctuations, and kept as the next spare.
func (m *MJoin) flushPendingInto(out []stream.Element) []stream.Element {
	if len(m.pending) == 0 {
		return out
	}
	batch := m.pending
	m.pending = m.pg.spare
	out = m.purgeRound(out, batch)
	clear(batch)
	m.pg.spare = batch[:0]
	return out
}

// Flush forces a purge round over any pending punctuations (used at the
// end of a lazy-mode run). The returned slice is borrowed as Push's is.
func (m *MJoin) Flush() []stream.Element {
	m.outBuf = m.flushPendingInto(m.takeOut())
	return m.outBuf
}

// probe computes all join results involving the arriving tuple t on input
// `input` and the stored tuples of every other input, by expanding along
// the precomputed BFS order, and appends them to out as result elements. It returns the extended slice also on error (the caller cuts
// it back).
func (m *MJoin) probe(out []stream.Element, input int, t stream.Tuple) ([]stream.Element, error) {
	pr := &m.pr
	pr.out = out
	for i := range pr.isBound {
		pr.isBound[i] = false
	}
	pr.bound[input] = t
	pr.isBound[input] = true

	err := m.expand(m.probeOrders[input], 0)
	out, pr.out = pr.out, nil
	return out, err
}

// expand is the static-order expansion step: bind stream order[k] to each
// exact candidate, recurse, unbind. Candidates come from intersecting the
// index buckets of every predicate into the bound prefix, so no
// per-candidate predicate re-verification is needed (buckets are keyed by
// exact value, and all join predicates are equalities). Buckets hold live
// rows in ascending order by construction, so candidates are visited in
// arrival order and the emitted result sequence is identical run to run.
func (m *MJoin) expand(order []int, k int) error {
	pr := &m.pr
	if k == len(order) {
		pr.out = append(pr.out, stream.TupleElement(m.concat(pr.bound)))
		return nil
	}
	j := order[k]
	cand, err := m.candidateRows(j, k)
	if err != nil {
		return err
	}
	st := m.states[j]
	for _, r := range cand {
		pr.bound[j] = st.tuple(r)
		pr.isBound[j] = true
		if err := m.expand(order, k+1); err != nil {
			return err
		}
		pr.isBound[j] = false
	}
	return nil
}

// candidateRows returns the ascending rows of stream j's stored tuples
// that satisfy every predicate between j and the bound prefix: the
// intersection of the per-predicate index buckets (galloping, into the
// depth's scratch buffer). A single-predicate candidate set is the bucket
// itself, borrowed read-only from the state.
func (m *MJoin) candidateRows(j, depth int) ([]row, error) {
	pr := &m.pr
	var cand []row
	first := true
	flip := 0
	for _, p := range m.predsTouching[j] {
		other, jAttr, otherAttr := p.Other(j)
		if !pr.isBound[other] {
			continue
		}
		bucket := m.states[j].index.lookup(jAttr, pr.bound[other].Values[otherAttr])
		if first {
			cand, first = bucket, false
		} else {
			// Alternate the two depth buffers so an intersection never
			// writes the slice it reads.
			buf := &pr.cand[flip][depth]
			*buf = intersectSorted(*buf, cand, bucket)
			cand = *buf
			flip ^= 1
		}
		if len(cand) == 0 {
			return nil, nil
		}
	}
	if first {
		// Unreachable for connected queries expanded in a connectivity order.
		return nil, fmt.Errorf("%w: stream %d unreachable from bound set (query %s)", ErrProbeDisconnected, j, m.q)
	}
	return cand, nil
}

// concat builds one result tuple from the bound input tuples: in values
// of its own, or, when the operator lends, in the next columns of
// outVals (capacity-clamped, so no append through one result can reach
// the next).
func (m *MJoin) concat(bound []stream.Tuple) stream.Tuple {
	if m.lend {
		start := len(m.outVals)
		for i := range bound {
			m.outVals = append(m.outVals, bound[i].Values...)
		}
		return stream.NewTuple(m.outVals[start:len(m.outVals):len(m.outVals)]...)
	}
	values := make([]stream.Value, 0, m.out.Arity())
	for i := range bound {
		values = append(values, bound[i].Values...)
	}
	return stream.NewTuple(values...)
}

// String summarizes the operator.
func (m *MJoin) String() string {
	return fmt.Sprintf("MJoin(%s)", m.q)
}
