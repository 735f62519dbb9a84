// Package engine is the DSMS shell of the paper's Figure 2: a query
// register that holds the system's punctuation scheme set and admits only
// continuous join queries that pass the compile-time safety check, an
// input manager that routes stream elements (tuples and punctuations) to
// every registered query, and a query processor that runs each admitted
// query on a safe execution plan.
package engine

import (
	"errors"
	"fmt"
	"io"

	"punctsafe/exec"
	"punctsafe/plan"
	"punctsafe/query"
	"punctsafe/safety"
	"punctsafe/stream"
)

// DSMS is a single-threaded data stream management system instance. All
// methods must be called from one goroutine; for concurrent feeding,
// RunSharded runs each registered query on its own goroutine behind a
// stream router.
type DSMS struct {
	schemes *stream.SchemeSet
	queries map[string]*Registered
	order   []string
	// groups indexes the share groups of Options.Share registrations by
	// fingerprint, so a new registration can attach to an existing
	// physical tree (see share.go). Singleton unshared groups are not
	// indexed — nothing can join them.
	groups map[string]*shareGroup
}

// New returns an empty DSMS with no schemes registered.
func New() *DSMS {
	return &DSMS{
		schemes: stream.NewSchemeSet(),
		queries: make(map[string]*Registered),
		groups:  make(map[string]*shareGroup),
	}
}

// RegisterScheme adds a punctuation scheme to the query register (the
// application-semantics knowledge of §2.3). Schemes must be registered
// before the queries that rely on them.
func (d *DSMS) RegisterScheme(s stream.Scheme) { d.schemes.Add(s) }

// Options tunes how an admitted query is executed.
type Options struct {
	// Plan forces a specific execution plan. When nil the engine picks
	// the cheapest safe plan (§5.2). A forced plan is still checked for
	// safety (Definition 2) and rejected if unsafe.
	Plan *plan.Node
	// PurgeBatch, PunctLifespan, PurgePunctuations, StateLimit,
	// SoftStateLimit, OnPressure and EnforcePromises mirror exec.Config.
	PurgeBatch        int
	PunctLifespan     uint64
	PurgePunctuations bool
	StateLimit        int
	SoftStateLimit    int
	OnPressure        func(exec.PressureEvent)
	EnforcePromises   bool
	// OnResult, when set, is invoked for every result tuple instead of
	// buffering it in Results. Like a delivery hook's element, the tuple
	// is lent on every path: its Values are valid until the callback
	// returns, so a callback that keeps the tuple copies its Values.
	OnResult func(stream.Tuple)
	// OnPunct, when set, is invoked for every punctuation the plan's root
	// operator propagates (e.g. to drive a downstream blocking operator
	// such as a group-by).
	OnPunct func(stream.Punctuation)
	// Partitions, when >= 1, asks for intra-query parallel execution: the
	// plan runs as that many hash-partitioned replicas (tuples routed by
	// the query's co-partitioning attribute, punctuations broadcast), and
	// RunSharded gives the query's shard a worker pool. 0 (the default)
	// keeps the single-tree path. Partitions=1 runs the partition
	// machinery with one replica — useful for measuring its overhead. A
	// query with no attribute equated across all its streams cannot be
	// partitioned; it falls back to the single-tree path with the reason
	// recorded in Registered.PartitionReason.
	Partitions int
	// Share opts the query into common-subplan sharing: if a previously
	// registered Share query has the same canonical fingerprint (join
	// shape, streams, equality classes, punctuation schemes, and every
	// execution-relevant option above plus ShareTag), this query attaches
	// to that query's physical tree as a subscriber instead of building
	// its own — the join is evaluated once and outputs fan out to every
	// member's delivery path with per-member sequence numbers, stats and
	// dead-letter attribution. Delivery-side callbacks (OnResult,
	// OnPunct, delivery hooks) stay per-member; the executor-side observer
	// (OnPressure) rides the group driver's registration.
	Share bool
	// ShareTag discriminates Share fingerprints beyond what the engine
	// can see: callers whose queries differ in ways invisible to the
	// planner (e.g. SQL input filters, which RegisterSQL canonicalizes
	// into this tag) must tag them apart, or identical-looking queries
	// would incorrectly share one tree. Ignored unless Share is set.
	ShareTag string
}

// Registered is one admitted continuous join query.
type Registered struct {
	Name   string
	Query  *query.CJQ
	Report *safety.Report
	Plan   *plan.Node
	// Exactly one of Tree and Part is non-nil: Tree is the single-threaded
	// operator tree, Part the hash-partitioned replica set used when
	// Options.Partitions >= 1 and the query is co-partitionable.
	Tree *exec.Tree
	Part *exec.PartitionedTree
	ex   executor // Tree or Part, set once at registration
	// PartitionReason explains why a Partitions request fell back to the
	// single-tree path ("" when partitioning was not requested or is
	// active).
	PartitionReason string
	// Results holds every result tuple, as a copy of the lent one (a SQL
	// view's projected tuple is its own already), when neither OnResult
	// nor a delivery hook is installed, also for a query with only OnPunct.
	Results []stream.Tuple
	// Output is the schema of delivered results (the plan's join output,
	// or the projected schema for SQL-registered queries).
	Output   *stream.Schema
	onResult func(stream.Tuple)
	onPunct  func(stream.Punctuation)
	// project, when set (a SQL select list), maps every output onto
	// Output before any delivery path sees it; a punctuation it absorbs
	// is not delivered at all.
	project *exec.Project
	// delivered counts every output (result tuple or propagated
	// punctuation) delivered over the query's life. It is owned by
	// whatever goroutine drives the query (the shard worker, the
	// partition merger, or the sequential caller) and is captured at
	// checkpoint barriers so delivery sequence numbers survive a
	// crash/restore (see Delivered and SetDeliveryHook).
	delivered uint64
	// onDeliver, when set, replaces onResult/onPunct/Results entirely:
	// every output is handed to it with its 1-based delivery sequence
	// number. The serving layer uses this to stamp subscriber frames.
	onDeliver func(seq uint64, e stream.Element)
	// filter, when set, drops input tuples before they reach the plan
	// (SQL literal predicates); punctuations always pass.
	filter func(input int, t stream.Tuple) bool
	// streamInput maps a stream name to this query's stream index.
	streamInput map[string]int
	// group is the share group this query belongs to — a singleton for
	// unshared queries, shared with every fingerprint-equal Share
	// registration otherwise (see share.go). Never nil after Register.
	group *shareGroup
	// Shared-delivery-log cursors, owned by the shard worker that serves
	// this subscriber (see shard.materialize). A passive subscriber — no
	// OnResult/OnPunct/delivery hook — does not receive per-element
	// fan-out; its Results are materialized at barriers as slices of the
	// shard's shared tuple log, which begins with the runtime. logStart is
	// the materialization cursor, logStartCount the element-count cursor
	// behind delivered, and logPure whether Results is a pure log alias
	// (re-sliced zero-copy) or must be extended by appending.
	logStart      int
	logStartCount uint64
	logPure       bool
	// Fingerprint is the canonical subplan fingerprint computed for
	// Options.Share registrations ("" otherwise); equal fingerprints mean
	// one physical tree.
	Fingerprint string
}

// Register admits a continuous join query: it runs the safety check
// (Theorem 4 via the TPG) and rejects unsafe queries, then compiles a
// safe execution plan. The returned Registered handle exposes the plan,
// the safety report and the live operator statistics.
func (d *DSMS) Register(name string, q *query.CJQ, opts Options) (*Registered, error) {
	if _, dup := d.queries[name]; dup {
		return nil, fmt.Errorf("engine: query %q already registered", name)
	}
	rep, err := safety.Check(q, d.schemes)
	if err != nil {
		return nil, err
	}
	if !rep.Safe {
		return nil, fmt.Errorf("engine: query %q rejected as unsafe:\n%s", name, rep.Explain(q))
	}
	p := opts.Plan
	if p == nil {
		p, err = plan.ChooseSafe(q, d.schemes, nil)
		if err != nil {
			return nil, err
		}
	} else {
		safePlan, _, err := plan.CheckPlan(q, d.schemes, p)
		if err != nil {
			return nil, err
		}
		if !safePlan {
			return nil, fmt.Errorf("engine: forced plan %s for query %q is unsafe (Definition 2)", p.Render(q), name)
		}
	}
	cfg := exec.Config{
		Query:             q,
		Schemes:           d.schemes,
		PurgeBatch:        opts.PurgeBatch,
		PunctLifespan:     opts.PunctLifespan,
		PurgePunctuations: opts.PurgePunctuations,
		StateLimit:        opts.StateLimit,
		SoftStateLimit:    opts.SoftStateLimit,
		OnPressure:        opts.OnPressure,
		EnforcePromises:   opts.EnforcePromises,
	}
	r := &Registered{
		Name:        name,
		Query:       q,
		Report:      rep,
		Plan:        p,
		onResult:    opts.OnResult,
		onPunct:     opts.OnPunct,
		streamInput: make(map[string]int, q.N()),
	}
	if opts.Partitions < 0 {
		return nil, fmt.Errorf("engine: query %q: negative partition count %d", name, opts.Partitions)
	}
	if opts.Share {
		r.Fingerprint = plan.Fingerprint(q, d.schemes, p, shareConfigTag(opts))
		if g, ok := d.groups[r.Fingerprint]; ok {
			// A fingerprint-equal tree already runs: attach as a
			// subscriber. The member aliases the driver's executor and
			// adopts the driver's stream indexing (the canonical
			// fingerprint guarantees the stream name sets match), so
			// routed elements feed the shared tree under the indices it
			// was built with.
			drv := g.driver()
			r.Tree, r.Part, r.ex = drv.Tree, drv.Part, drv.ex
			r.PartitionReason = drv.PartitionReason
			r.Output = r.OutputSchema()
			for streamName, input := range drv.streamInput {
				r.streamInput[streamName] = input
			}
			r.group = g
			g.members = append(g.members, r)
			d.queries[name] = r
			d.order = append(d.order, name)
			return r, nil
		}
	}
	if opts.Partitions >= 1 {
		part, err := exec.NewPartitionedTree(cfg, p, opts.Partitions)
		switch {
		case err == nil:
			r.Part, r.ex = part, part
		case errors.Is(err, plan.ErrNotCoPartitionable):
			// Fall back to the single-tree path — loudly, not silently: the
			// reason lands on the handle for callers (punctrun warns on it).
			r.PartitionReason = err.Error()
		default:
			return nil, err
		}
	}
	if r.Part == nil {
		tree, err := exec.NewTree(cfg, p)
		if err != nil {
			return nil, err
		}
		tree.Lend(true) // results are lent on every path (Options.OnResult)
		r.Tree, r.ex = tree, tree
	}
	r.Output = r.OutputSchema()
	for i := 0; i < q.N(); i++ {
		r.streamInput[q.Stream(i).Name()] = i
	}
	r.group = &shareGroup{fp: r.Fingerprint, members: []*Registered{r}}
	if opts.Share {
		d.groups[r.Fingerprint] = r.group
	}
	d.queries[name] = r
	d.order = append(d.order, name)
	return r, nil
}

// Unregister removes a query. Removing a share-group member detaches its
// subscription; the physical tree lives on until the last member leaves.
func (d *DSMS) Unregister(name string) bool {
	r, ok := d.queries[name]
	if !ok {
		return false
	}
	delete(d.queries, name)
	for i, n := range d.order {
		if n == name {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	r.group.removeMember(name)
	if len(r.group.members) == 0 && r.group.fp != "" {
		delete(d.groups, r.group.fp)
	}
	return true
}

// Queries returns the registered query names in registration order.
func (d *DSMS) Queries() []string { return append([]string(nil), d.order...) }

// Get returns a registered query by name.
func (d *DSMS) Get(name string) (*Registered, bool) {
	r, ok := d.queries[name]
	return r, ok
}

// Push feeds one element of the named raw stream to every registered
// query that consumes that stream (the input manager of Figure 2). This
// is the sequential path: queries execute in registration order on the
// calling goroutine. A share group executes once, on its driver, and the
// outputs fan out to every member. RunSharded provides the concurrent
// alternative.
func (d *DSMS) Push(streamName string, e stream.Element) error {
	for _, name := range d.order {
		r := d.queries[name]
		if !r.isDriver() {
			continue
		}
		input, ok := r.streamInput[streamName]
		if !ok || !r.accepts(input, e) {
			continue
		}
		outs, err := r.ex.Push(input, e)
		if err != nil {
			return fmt.Errorf("engine: query %q: %w", name, err)
		}
		r.group.deliver(outs)
	}
	return nil
}

// accepts reports whether a routed element passes the query's input
// filter (SQL literal predicates); punctuations always pass. The filter
// is immutable after registration, so accepts is safe to call from the
// router goroutine while shards run.
func (r *Registered) accepts(input int, e stream.Element) bool {
	return r.filter == nil || e.IsPunct() || r.filter(input, e.Tuple())
}

// executor is the method set *exec.Tree and *exec.PartitionedTree share;
// Registered.ex holds whichever of Tree and Part is active. Everything
// behind it (tree state, stats) belongs to exactly one goroutine at a
// time, and its Push/PushBatch/Sweep/Flush return outputs undelivered, in
// a slice that may be the executor's own and is valid until the next call
// into it (so are the result tuples' values, which a Tree lends): the
// caller (sequential Push, shard worker) delivers at once, which for a
// shared tree fans out to every group member.
type executor interface {
	Push(input int, e stream.Element) ([]stream.Element, error)
	PushBatch(input int, elems []stream.Element) ([]stream.Element, int, error)
	Sweep() (int, []stream.Element, error)
	Flush() ([]stream.Element, error)
	StatsSnapshot() []*exec.Stats
	WriteState(w io.Writer) error
	TotalState() int
	TotalPunctStore() int
	MaxState() int
	OutputSchema() *stream.Schema
}

// StatsSnapshot returns per-operator stats from the active executor; for
// a partitioned query it returns per-operator sums across the replicas.
func (r *Registered) StatsSnapshot() []*exec.Stats { return r.ex.StatsSnapshot() }

// Partitions returns the active partition count: 0 when the query runs on
// the single-tree path.
func (r *Registered) Partitions() int {
	if r.Part != nil {
		return r.Part.Partitions()
	}
	return 0
}

// TotalState sums the query's stored tuples across operators (and
// replicas, when partitioned).
func (r *Registered) TotalState() int { return r.ex.TotalState() }

// TotalPunctStore sums the query's stored punctuations.
func (r *Registered) TotalPunctStore() int { return r.ex.TotalPunctStore() }

// MaxState sums the query's state high-water marks.
func (r *Registered) MaxState() int { return r.ex.MaxState() }

// OutputSchema is the plan's root output schema.
func (r *Registered) OutputSchema() *stream.Schema { return r.ex.OutputSchema() }

// Flush forces pending lazy purge rounds in every query (once per share
// group).
func (d *DSMS) Flush() error {
	for _, name := range d.order {
		r := d.queries[name]
		if !r.isDriver() {
			continue
		}
		outs, err := r.ex.Flush()
		if err != nil {
			return err
		}
		r.group.deliver(outs)
	}
	return nil
}

// SetDeliveryHook routes every delivered output — result tuples and
// propagated punctuations alike — to fn with its 1-based delivery
// sequence number, instead of the OnResult/OnPunct callbacks or the
// Results buffer. The sequence is the query's total delivery count: it
// is captured in checkpoints and restored by RestoreRuntime, so a
// resumed run re-emits post-checkpoint outputs under the same numbers
// an uninterrupted run would have used — the property the serving
// layer's duplicate suppression rests on. Install the hook before the
// runtime starts; it runs on the query's driving goroutine.
//
// The element is lent, as an OnResult callback's tuple is: a result
// tuple's Values are valid only until fn returns, so a hook that keeps a
// tuple copies its Values. Punctuations may be kept.
func (r *Registered) SetDeliveryHook(fn func(seq uint64, e stream.Element)) {
	r.onDeliver = fn
}

// Delivered returns the query's total delivery count. Only meaningful
// on a quiescent query (before a runtime starts or after Wait); while a
// runtime runs the counter belongs to the driving goroutine.
func (r *Registered) Delivered() uint64 { return r.delivered }

// passiveSub reports whether the query observes its outputs only through
// Results and Delivered — no per-element callbacks. Passive subscribers
// are served from the shard's shared delivery log at barrier points
// instead of per-element fan-out, so a shared tree's ingest cost is
// independent of how many passive views subscribe to it.
func (r *Registered) passiveSub() bool {
	return r.onDeliver == nil && r.onResult == nil && r.onPunct == nil && r.project == nil
}

func (r *Registered) deliver(outs []stream.Element) {
	for _, o := range outs {
		if r.project != nil {
			projected, err := r.project.Push(o)
			if err != nil || len(projected) == 0 {
				continue // absorbed: no delivery, no sequence number
			}
			o = projected[0]
		}
		r.delivered++
		switch {
		case r.onDeliver != nil:
			r.onDeliver(r.delivered, o)
		case o.IsPunct():
			if r.onPunct != nil {
				r.onPunct(o.Punct())
			}
		case r.onResult != nil:
			r.onResult(o.Tuple())
		case r.project != nil: // the projection built a tuple of its own
			r.Results = append(r.Results, o.Tuple())
		default:
			r.Results = append(r.Results, o.Tuple().Clone())
		}
	}
}

// TotalState sums stored tuples across all queries, counting each shared
// physical tree once.
func (d *DSMS) TotalState() int {
	total := 0
	for _, r := range d.queries {
		if !r.isDriver() {
			continue
		}
		total += r.TotalState()
	}
	return total
}
