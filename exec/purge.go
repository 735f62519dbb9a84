package exec

import (
	"slices"

	"punctsafe/stream"
)

// productCap bounds the number of punctuation-coverage combinations one
// purge check will evaluate. A tuple whose requirement product exceeds the
// cap is conservatively kept (never wrongly purged); the overflow counter
// surfaces how often that happens.
const productCap = 4096

// sid identifies a stored tuple across states (stream + row), the node
// type of the purge round's join-connected closure walk.
type sid struct {
	s int
	r row
}

// purgeScratch is the operator's reusable purge-path state. Like the
// probe scratch, it exists so steady-state purge rounds allocate nothing:
// candidate sets are per-input sorted row slices filtered in place,
// frontiers and value sets reuse per-input buffers, and punctuation
// constants are assembled in one slice sized to the widest scheme.
type purgeScratch struct {
	one []pendingPunct // single-punctuation batch for eager rounds
	// spare is the emptied pending list of the last lazy round, taken as
	// the next one so a batch does not regrow it from empty.
	spare   []pendingPunct
	cand    [][]row // per-input purge candidates (sorted before fixpoint)
	queue   []sid
	removed [][]stream.Tuple // per-input removed-tuple buffers
	// purgeableTuple scratch.
	frontiers [][]stream.Tuple
	covered   []bool
	valueSets [][]stream.Value
	valSeen   map[stream.ValueKey]struct{} // big-set dedup fallback
	// consts is the shared constant scratch (compilePunctPlans sizes it):
	// every lookup into a punctuation store assembles its constants here.
	consts []stream.Value
	// frontier() constraint scratch.
	consAttrs []int
	consKeys  [][]stream.ValueKey
	// round numbers the purge rounds. Its low word stamps the rows a round
	// has queued (rowStore.mark), round itself the punctuation entries the
	// §5.1 pass has evaluated (punctEntry.round): dedup is a compare, not a
	// set. victims collects the purgeable punctuations.
	round   uint64
	victims []punctVictim
}

func (m *MJoin) initPurgeScratch() {
	n := m.q.N()
	m.pg = purgeScratch{
		cand:      make([][]row, n),
		removed:   make([][]stream.Tuple, n),
		frontiers: make([][]stream.Tuple, n),
		covered:   make([]bool, n),
		valSeen:   make(map[stream.ValueKey]struct{}),
	}
}

// pgPush adds a candidate to the purge round's closure, once: the round
// stamps the rows it has queued.
func (m *MJoin) pgPush(s int, r row) {
	st := m.states[s]
	if st.mark[r] == uint32(m.pg.round) {
		return
	}
	st.mark[r] = uint32(m.pg.round)
	m.pg.cand[s] = append(m.pg.cand[s], r)
	m.pg.queue = append(m.pg.queue, sid{s, r})
}

// pgPushAll adds every row of a candidate set to the closure.
func (m *MJoin) pgPushAll(s int, rows []row) {
	for _, r := range rows {
		m.pgPush(s, r)
	}
}

// beginRound numbers a new purge round and pins every state, so the
// rows the round collects stay valid while it removes some; endRound
// unpins them, which runs the compactions the round deferred.
func (m *MJoin) beginRound() {
	m.pg.round++
	if uint32(m.pg.round) == 0 {
		// The stamp wrapped: forget every old one and skip zero, the mark
		// of a row no round has queued.
		m.pg.round++
		for _, st := range m.states {
			clear(st.mark)
		}
	}
	for _, st := range m.states {
		st.pin()
	}
}

func (m *MJoin) endRound() {
	for _, st := range m.states {
		st.unpin()
	}
}

// purgeRound runs the chained purge strategy for a batch of freshly
// arrived punctuations: it collects the join-connected neighborhood of
// the punctuated values, repeatedly purges every tuple in it whose purge
// plan is fully covered by stored punctuations, and finally re-evaluates
// punctuation propagation and §5.1 punctuation purging. Output
// punctuations that became emittable are appended to out.
func (m *MJoin) purgeRound(out []stream.Element, batch []pendingPunct) []stream.Element {
	if m.cfg.DisablePurge {
		return out
	}
	pg := &m.pg
	for i := range pg.cand {
		pg.cand[i] = pg.cand[i][:0]
	}
	pg.queue = pg.queue[:0]
	m.beginRound()

	// Anchor tuples: stored tuples in partner states carrying a value a
	// new punctuation constrains.
	for _, pp := range batch {
		pl := &m.punctPlans[pp.input][pp.scheme]
		for _, an := range pl.anchors {
			pat := pp.p.Constant(an.slot)
			if an.slot == pl.ordSlot {
				// Ordered bound: the hash index cannot answer range
				// queries, so scan the partner state — one compare per
				// stored tuple per watermark.
				m.states[an.other].each(func(r row, u stream.Tuple) bool {
					if pat.MatchesValue(u.Values[an.attr]) {
						m.pgPush(an.other, r)
					}
					return true
				})
				continue
			}
			m.pgPushAll(an.other, m.states[an.other].index.lookup(an.attr, pat.Value()))
		}
	}
	// Closure: everything join-reachable from an anchor may have had its
	// purge requirements (or frontiers) touched.
	for head := 0; head < len(pg.queue); head++ {
		k := pg.queue[head]
		u := m.states[k.s].tuple(k.r)
		for _, p := range m.predsTouching[k.s] {
			other, myAttr, otherAttr := p.Other(k.s)
			m.pgPushAll(other, m.states[other].index.lookup(otherAttr, u.Values[myAttr]))
		}
	}
	// Sorted candidate order keeps the removal sequence — and therefore
	// the order of re-emitted output punctuations — deterministic across
	// runs (BFS discovery order is implementation-defined).
	for i := range pg.cand {
		slices.Sort(pg.cand[i])
	}

	// The removed tuples are views into their pages: read them before
	// endRound lets the states compact.
	removed := m.purgeFixpoint(pg.cand)
	out = m.emitForRemoved(out, removed)
	if m.cfg.PurgePunctuations {
		m.purgePunctStores(batch, removed)
	}
	m.endRound()
	return out
}

// purgeFixpoint repeatedly attempts to purge every candidate until a pass
// makes no progress (removals shrink frontiers, which can unlock further
// removals — the cascade of the chained purge strategy). Candidate lists
// must be sorted ascending and their states pinned; they are filtered in
// place (which preserves the order). It returns the removed tuples per
// input — scratch buffers of views into the states' pages, readable until
// the round's endRound — so punctuation re-emission and §5.1 store purging
// can be targeted instead of rescanning whole stores.
func (m *MJoin) purgeFixpoint(cand [][]row) [][]stream.Tuple {
	removed := m.pg.removed
	for s := range removed {
		clear(removed[s])
		removed[s] = removed[s][:0]
	}
	for changed := true; changed; {
		changed = false
		for s := range cand {
			if m.plans[s] == nil {
				continue
			}
			st, w := m.states[s], 0
			for _, r := range cand[s] {
				t := st.tuple(r)
				m.stats.PurgeChecks++
				if !m.purgeableTuple(s, t) {
					cand[s][w] = r
					w++
					continue
				}
				st.remove(r)
				removed[s] = append(removed[s], t)
			}
			if purged := len(cand[s]) - w; purged > 0 {
				m.stats.TuplesPurged[s] += uint64(purged)
				m.stats.StateSize[s] = st.size()
				cand[s] = cand[s][:w]
				changed = true
			}
		}
	}
	m.pg.removed = removed
	return removed
}

// Sweep runs a full purge pass over every stored tuple of every purgeable
// input (the §5.1 "background clean-up mechanism") and returns the number
// of tuples removed plus any output punctuations that became emittable
// (borrowed as Push's result is).
func (m *MJoin) Sweep() (int, []stream.Element) {
	n, out := m.sweepInto(m.takeOut())
	m.outBuf = out
	return n, out
}

// sweepInto is Sweep appending its emissions to out.
func (m *MJoin) sweepInto(out []stream.Element) (int, []stream.Element) {
	if m.cfg.DisablePurge {
		return 0, out
	}
	pg := &m.pg
	m.beginRound()
	for i := range pg.cand {
		pg.cand[i] = pg.cand[i][:0]
		m.states[i].each(func(r row, _ stream.Tuple) bool {
			pg.cand[i] = append(pg.cand[i], r) // each() walks in arrival order: already sorted
			return true
		})
	}
	removed := m.purgeFixpoint(pg.cand)
	m.endRound()
	total := 0
	for _, r := range removed {
		total += len(r)
	}
	out = m.emitPendingPuncts(out)
	if m.cfg.PurgePunctuations {
		m.sweepPunctStores()
	}
	return total, out
}

// purgeableTuple replays the chained purge strategy (§3.2.1, generalized
// §4.2) for tuple t stored on input root: walk the purge-plan steps; at
// each step compute the punctuation constants required from the source
// frontiers and verify the punctuation store holds every combination;
// then advance the joinable frontier into the step's stream. True means
// t cannot join any future input combination and may be dropped.
func (m *MJoin) purgeableTuple(root int, t stream.Tuple) bool {
	pg := &m.pg
	plan := m.plans[root]
	for i := range pg.covered {
		pg.covered[i] = false
	}
	pg.frontiers[root] = append(pg.frontiers[root][:0], t)
	pg.covered[root] = true

	for k, st := range plan.Steps {
		j := st.Stream
		for len(pg.valueSets) < len(st.Attrs) {
			pg.valueSets = append(pg.valueSets, nil)
		}
		vacuous := false
		total := 1
		for a := range st.Attrs {
			vs := distinctValuesInto(pg.valueSets[a][:0], pg.frontiers[st.Sources[a]], st.SourceAttrs[a], pg.valSeen)
			pg.valueSets[a] = vs
			if len(vs) == 0 {
				vacuous = true
				break
			}
			total *= len(vs)
			if total > productCap {
				m.stats.PurgeChecks++ // count the aborted attempt's extra work
				return false
			}
		}
		if !vacuous && !m.coveredProduct(j, m.stepScheme[root][k], pg.valueSets[:len(st.Attrs)]) {
			return false
		}
		if m.needFrontier[root][k] {
			pg.frontiers[j] = m.frontier(pg.frontiers[j][:0], j, pg.covered, pg.frontiers)
		}
		pg.covered[j] = true
	}
	return true
}

// coveredProduct verifies that every combination of the per-attribute
// value sets has a live stored punctuation on input j instantiating
// scheme schemeIdx.
func (m *MJoin) coveredProduct(j, schemeIdx int, valueSets [][]stream.Value) bool {
	return m.coveredProductRec(j, schemeIdx, valueSets, m.pg.consts[:len(valueSets)], 0)
}

func (m *MJoin) coveredProductRec(j, schemeIdx int, valueSets [][]stream.Value, consts []stream.Value, k int) bool {
	if k == len(valueSets) {
		return m.puncts[j].covering(schemeIdx, consts, m.clock) != nil
	}
	for _, v := range valueSets[k] {
		consts[k] = v
		if !m.coveredProductRec(j, schemeIdx, valueSets, consts, k+1) {
			return false
		}
	}
	return true
}

// frontier computes the joinable tuples of stream j with respect to the
// already-covered frontiers, appending them to dst: stored tuples of j
// that match, for every predicate linking j to a covered stream, at least
// one value present in that stream's frontier. This is the semijoin
// T_t[Υ_j] of §3.2.1 (computed per covered neighbor, a superset of the
// exact joint-joinable set, hence conservative).
func (m *MJoin) frontier(dst []stream.Tuple, j int, covered []bool, frontiers [][]stream.Tuple) []stream.Tuple {
	pg := &m.pg
	pg.consAttrs = pg.consAttrs[:0]
	nc := 0
	for _, p := range m.predsTouching[j] {
		other, jAttr, otherAttr := p.Other(j)
		if !covered[other] {
			continue
		}
		if nc == len(pg.consKeys) {
			pg.consKeys = append(pg.consKeys, nil)
		}
		pg.consKeys[nc] = dedupKeysInto(pg.consKeys[nc][:0], frontiers[other], otherAttr, pg.valSeen)
		pg.consAttrs = append(pg.consAttrs, jAttr)
		nc++
	}
	if nc == 0 {
		// Cannot happen for purge plans (each step's stream is adjacent
		// to its sources), but guard against programming errors: with no
		// constraint every stored tuple is joinable.
		m.states[j].each(func(_ row, u stream.Tuple) bool {
			dst = append(dst, u)
			return true
		})
		return dst
	}
	// Probe the index with the smallest constraint set; verify the rest.
	// Distinct values of one attribute index disjoint buckets and the key
	// sets are deduplicated, so no row is visited twice.
	best := 0
	for i := 1; i < nc; i++ {
		if len(pg.consKeys[i]) < len(pg.consKeys[best]) {
			best = i
		}
	}
	st := m.states[j]
	for _, vk := range pg.consKeys[best] {
		for _, r := range st.index.lookup(pg.consAttrs[best], vk.Value()) {
			u := st.tuple(r)
			ok := true
			for ci := 0; ci < nc; ci++ {
				if ci == best {
					continue
				}
				k := u.Values[pg.consAttrs[ci]].Key()
				if !containsKey(pg.consKeys[ci], k) {
					ok = false
					break
				}
			}
			if ok {
				dst = append(dst, u)
			}
		}
	}
	return dst
}

func containsKey(keys []stream.ValueKey, k stream.ValueKey) bool {
	for _, w := range keys {
		if w == k {
			return true
		}
	}
	return false
}

// distinctValuesInto projects the frontier onto one attribute,
// deduplicated, into dst. Small sets dedup by linear scan (no
// allocation); large ones fall back to the shared scratch map.
func distinctValuesInto(dst []stream.Value, frontier []stream.Tuple, attr int, seen map[stream.ValueKey]struct{}) []stream.Value {
	const linearMax = 24
	useMap := false
	for _, u := range frontier {
		v := u.Values[attr]
		if !useMap {
			dup := false
			for _, w := range dst {
				if w.Equal(v) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			dst = append(dst, v)
			if len(dst) > linearMax {
				useMap = true
				clear(seen)
				for _, w := range dst {
					seen[w.Key()] = struct{}{}
				}
			}
			continue
		}
		k := v.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		dst = append(dst, v)
	}
	return dst
}

// dedupKeysInto is distinctValuesInto over ValueKeys.
func dedupKeysInto(dst []stream.ValueKey, frontier []stream.Tuple, attr int, seen map[stream.ValueKey]struct{}) []stream.ValueKey {
	const linearMax = 24
	useMap := false
	for _, u := range frontier {
		k := u.Values[attr].Key()
		if !useMap {
			if containsKey(dst, k) {
				continue
			}
			dst = append(dst, k)
			if len(dst) > linearMax {
				useMap = true
				clear(seen)
				for _, w := range dst {
					seen[w] = struct{}{}
				}
			}
			continue
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		dst = append(dst, k)
	}
	return dst
}

// propagate marks a stored punctuation propagated once no stored tuple of
// its input matches it, reporting whether it did so now: from then on no
// output tuple can carry the punctuated values in that input's columns,
// so downstream operators may rely on it (the propagation invariant that
// lets tree plans purge their upper operators).
func (m *MJoin) propagate(input, schemeIdx int, e *punctEntry) bool {
	if e.propagated || e.expired(m.clock) {
		return false
	}
	if m.hasMatchingTuple(input, &m.punctPlans[input][schemeIdx], e.punct) {
		return false
	}
	e.propagated = true
	return true
}

// emitPunct appends the output punctuation of a punctuation propagate
// has just marked.
func (m *MJoin) emitPunct(out []stream.Element, input, schemeIdx int, e *punctEntry) []stream.Element {
	m.stats.OutPuncts++
	return append(out, stream.PunctElement(e.punct.Reshape(m.punctPlans[input][schemeIdx].outScheme)))
}

// emitForRemoved re-tests exactly the stored punctuations a purge round
// could have unblocked, appending emissions to out: for each removed
// tuple, the punctuations (on the same input) whose constants equal the
// tuple's values at each scheme's punctuatable positions. A removal can
// only drop the last matching tuple of such a punctuation, so nothing
// else needs rechecking. Each punctuation it propagates is a §5.1
// candidate: the own-state half of its retirement has just come true.
func (m *MJoin) emitForRemoved(out []stream.Element, removed [][]stream.Tuple) []stream.Element {
	for input, tuples := range removed {
		for _, u := range tuples {
			for si := range m.punctPlans[input] {
				e := m.puncts[input].lookup(si, m.tupleConsts(u, m.puncts[input].idx[si]), m.clock)
				if e == nil || !m.propagate(input, si, e) {
					continue
				}
				out = m.emitPunct(out, input, si, e)
				if m.cfg.PurgePunctuations {
					m.considerPunct(input, si, e)
				}
			}
		}
	}
	return out
}

// emitPendingPuncts re-tests every stored, not yet propagated punctuation
// (a full pass, used by the background clean-up Sweep).
func (m *MJoin) emitPendingPuncts(out []stream.Element) []stream.Element {
	for input := range m.puncts {
		m.puncts[input].each(m.clock, func(si int, e *punctEntry) bool {
			if m.propagate(input, si, e) {
				out = m.emitPunct(out, input, si, e)
			}
			return true
		})
	}
	return out
}

// hasMatchingTuple reports whether any stored tuple of the input matches
// the punctuation (an instantiation of pl's scheme). The plan's indexed
// equality attribute is probed; without one the state is scanned.
func (m *MJoin) hasMatchingTuple(input int, pl *punctPlan, p stream.Punctuation) bool {
	st := m.states[input]
	if pl.probeSlot >= 0 {
		for _, r := range st.index.lookup(p.ConstIndexes()[pl.probeSlot], constant(p, pl.probeSlot)) {
			if p.Matches(st.tuple(r)) {
				return true
			}
		}
		return false
	}
	found := false
	st.each(func(_ row, u stream.Tuple) bool {
		found = p.Matches(u)
		return !found
	})
	return found
}

// punctVictim identifies one stored punctuation.
type punctVictim struct {
	input     int
	schemeIdx int
	e         *punctEntry
}

// violatedPromise reports whether a live punctuation stored on the
// tuple's own input forbids it, returning the offending punctuation. The
// check is one exact-key lookup per registered scheme: a tuple matches a
// scheme's instantiation iff its values at the punctuatable positions
// equal the stored constants (with <= for the ordered slot) — exactly the
// covering() query over constants drawn from the tuple itself.
func (m *MJoin) violatedPromise(input int, t stream.Tuple) (stream.Punctuation, bool) {
	for si, idx := range m.puncts[input].idx {
		consts := m.tupleConsts(t, idx)
		if e := m.puncts[input].covering(si, consts, m.clock); e != nil {
			return e.punct, true
		}
	}
	return stream.Punctuation{}, false
}

// purgePunctStores implements §5.1 punctuation purging: it retires the
// stored punctuations punctPurgeable clears. Candidates are derived from
// the batch (a new punctuation may be the missing counter for its
// partners' punctuations, or retire itself), from the purge round's
// removed tuples (a removal may have been the last matching partner
// tuple), and from emitForRemoved, which hands over every punctuation the
// round propagated (a removal may have been the last matching tuple of
// its own input); a punctuation whose blockers lie beyond this
// neighbourhood is caught by the Sweep's full pass instead.
func (m *MJoin) purgePunctStores(batch []pendingPunct, removed [][]stream.Tuple) {
	// (a) New punctuations: they may complete the counter-coverage of a
	// partner stream's stored punctuation with the mapped constants.
	for _, pp := range batch {
		pl := &m.punctPlans[pp.input][pp.scheme]
		for i := range pl.partners {
			pr := &pl.partners[i]
			if conflicting(pr, pp.p) {
				continue
			}
			for _, c := range pr.counters {
				if e := m.puncts[pr.other].lookup(c.scheme, m.mappedConsts(pp.p, c), m.clock); e != nil {
					m.considerPunct(pr.other, c.scheme, e)
				}
			}
		}
		// The new punctuation itself may already be droppable.
		ps := m.puncts[pp.input]
		if e := ps.lookup(pp.scheme, ps.constants(pp.p), m.clock); e != nil {
			m.considerPunct(pp.input, pp.scheme, e)
		}
	}
	// (b) Removed tuples: a stored punctuation that matched them on a
	// partner stream may have lost its last blocker.
	for input, tuples := range removed {
		for _, u := range tuples {
			for _, rp := range m.removedProbes[input] {
				if e := m.puncts[rp.other].lookup(rp.scheme, m.tupleConsts(u, rp.from), m.clock); e != nil {
					m.considerPunct(rp.other, rp.scheme, e)
				}
			}
		}
	}

	// Collect all victims before removing any: two punctuations may
	// certify each other (both sides closed on the same values), and
	// removing one first would strand the other.
	m.removeVictims()
}

// considerPunct evaluates a §5.1 candidate once per round.
func (m *MJoin) considerPunct(input, schemeIdx int, e *punctEntry) {
	if e.round == m.pg.round {
		return
	}
	e.round = m.pg.round
	if m.punctPurgeable(input, schemeIdx, e) {
		m.pg.victims = append(m.pg.victims, punctVictim{input: input, schemeIdx: schemeIdx, e: e})
	}
}

// sweepPunctStores is the full §5.1 pass used by Sweep: every stored
// punctuation is re-evaluated.
func (m *MJoin) sweepPunctStores() {
	pg := &m.pg
	pg.victims = pg.victims[:0]
	for j := range m.puncts {
		m.puncts[j].each(m.clock, func(si int, e *punctEntry) bool {
			if m.punctPurgeable(j, si, e) {
				pg.victims = append(pg.victims, punctVictim{input: j, schemeIdx: si, e: e})
			}
			return true
		})
	}
	m.removeVictims()
}

// removeVictims removes the collected victims and empties the list,
// backing array included: the stores recycle what they removed.
func (m *MJoin) removeVictims() {
	for _, v := range m.pg.victims {
		if m.puncts[v.input].remove(v.schemeIdx, v.e) {
			m.stats.PunctsPurged[v.input]++
			m.stats.PunctStoreSize[v.input] = m.puncts[v.input].size
		}
	}
	clear(m.pg.victims)
	m.pg.victims = m.pg.victims[:0]
}

// punctPurgeable decides whether a stored punctuation e on input j can be
// dropped (§5.1). Nothing retires before it is propagated, that is before
// its own input stores no tuple matching it: until then its output
// punctuation is still due, and it may be the only counter-punctuation a
// partner's punctuation is waiting for. Once propagated, e retires by one
// of two rules:
//   - a certifiable scheme (see punctPlan) retires once every join
//     partner reachable through e's constrained attributes holds a live
//     counter-punctuation for e's mapped constraint and stores no tuple
//     matching it. A partner on which e's constants contradict each other
//     can never match e and certifies nothing;
//   - any other non-ordered scheme retires at once. It constrains an
//     attribute that joins nothing here, so no purge plan reads it (a
//     step scheme's attributes all come from sources) and no partner
//     counts it as a counter-punctuation: propagating it was its work.
//
// Ordered (watermark) entries never retire: they compact themselves.
func (m *MJoin) punctPurgeable(j, schemeIdx int, e *punctEntry) bool {
	pl := &m.punctPlans[j][schemeIdx]
	if pl.ordSlot >= 0 || !e.propagated {
		return false
	}
	if !pl.certifiable {
		return true
	}
	touched := false
	for i := range pl.partners {
		pr := &pl.partners[i]
		if conflicting(pr, e.punct) {
			continue
		}
		touched = true
		if !m.counterCovered(pr, e.punct) || m.partnerHolds(pr, e.punct) {
			return false
		}
	}
	return touched
}

// counterCovered reports whether the partner holds a live
// counter-punctuation for p's mapped constraint.
func (m *MJoin) counterCovered(pr *partnerPlan, p stream.Punctuation) bool {
	for _, c := range pr.counters {
		if m.puncts[pr.other].covering(c.scheme, m.mappedConsts(p, c), m.clock) != nil {
			return true
		}
	}
	return false
}

// partnerHolds reports whether the partner stores a tuple matching p's
// mapped constraint.
func (m *MJoin) partnerHolds(pr *partnerPlan, p stream.Punctuation) bool {
	st := m.states[pr.other]
candidates:
	for _, r := range st.index.lookup(pr.attrs[0], constant(p, pr.slots[0])) {
		u := st.tuple(r)
		for i := 1; i < len(pr.attrs); i++ {
			if !u.Values[pr.attrs[i]].Equal(constant(p, pr.slots[i])) {
				continue candidates
			}
		}
		return true
	}
	return false
}
