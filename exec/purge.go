package exec

import (
	"encoding/binary"
	"slices"

	"punctsafe/stream"
)

// productCap bounds the number of punctuation-coverage combinations one
// purge check will evaluate. A tuple whose requirement product exceeds the
// cap is conservatively kept (never wrongly purged); the overflow counter
// surfaces how often that happens.
const productCap = 4096

// sid identifies a stored tuple across states (stream + id), the node
// type of the purge round's join-connected closure walk.
type sid struct {
	s  int
	id tupleID
}

// purgeScratch is the operator's reusable purge-path state. Like the
// probe scratch, it exists so steady-state purge rounds allocate nothing:
// candidate sets are per-input sorted id slices filtered in place,
// frontiers and value sets reuse per-input buffers, and composite map
// keys are built in a shared byte buffer.
type purgeScratch struct {
	one     []pendingPunct // single-punctuation batch for eager rounds
	cand    [][]tupleID    // per-input purge candidates (sorted before fixpoint)
	seen    map[sid]struct{}
	queue   []sid
	removed [][]stream.Tuple // per-input removed-tuple buffers
	// purgeableTuple scratch.
	frontiers [][]stream.Tuple
	covered   []bool
	valueSets [][]stream.Value
	consts    []stream.Value
	valSeen   map[stream.ValueKey]struct{} // big-set dedup fallback
	// frontier() constraint scratch.
	consAttrs []int
	consKeys  [][]stream.ValueKey
	// purgePunctStores scratch.
	keyBuf   []byte
	seenKeys map[string]bool
	victims  []punctVictim
}

func (m *MJoin) initPurgeScratch() {
	n := m.q.N()
	m.pg = purgeScratch{
		cand:      make([][]tupleID, n),
		removed:   make([][]stream.Tuple, n),
		frontiers: make([][]stream.Tuple, n),
		covered:   make([]bool, n),
		seen:      make(map[sid]struct{}),
		valSeen:   make(map[stream.ValueKey]struct{}),
		seenKeys:  make(map[string]bool),
	}
}

// pgPush adds a candidate to the purge round's closure (deduplicated).
func (m *MJoin) pgPush(s int, id tupleID) {
	k := sid{s, id}
	if _, ok := m.pg.seen[k]; ok {
		return
	}
	m.pg.seen[k] = struct{}{}
	m.pg.cand[s] = append(m.pg.cand[s], id)
	m.pg.queue = append(m.pg.queue, k)
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
	clear(pg.seen)
	pg.queue = pg.queue[:0]

	// Anchor tuples: stored tuples in partner states carrying a value a
	// new punctuation constrains.
	for _, pp := range batch {
		for _, a := range pp.idx {
			pat := pp.p.Patterns[a]
			for _, p := range m.predsTouching[pp.input] {
				other, myAttr, otherAttr := p.Other(pp.input)
				if myAttr != a {
					continue
				}
				if pat.IsLeq() {
					// Ordered bound: the hash index cannot answer range
					// queries, so scan the partner state (watermarks are
					// periodic and few, so this stays cheap).
					m.states[other].each(func(id tupleID, u stream.Tuple) bool {
						if pat.MatchesValue(u.Values[otherAttr]) {
							m.pgPush(other, id)
						}
						return true
					})
					continue
				}
				tb := m.states[other].lookup2(otherAttr, pat.Value())
				for _, run := range tb.runs() {
					for _, id := range run {
						m.pgPush(other, id)
					}
				}
			}
		}
	}
	// Closure: everything join-reachable from an anchor may have had its
	// purge requirements (or frontiers) touched.
	for head := 0; head < len(pg.queue); head++ {
		k := pg.queue[head]
		u, ok := m.states[k.s].get(k.id)
		if !ok {
			continue
		}
		for _, p := range m.predsTouching[k.s] {
			other, myAttr, otherAttr := p.Other(k.s)
			tb := m.states[other].lookup2(otherAttr, u.Values[myAttr])
			for _, run := range tb.runs() {
				for _, id := range run {
					m.pgPush(other, id)
				}
			}
		}
	}
	// Sorted candidate order keeps the removal sequence — and therefore
	// the order of re-emitted output punctuations — deterministic across
	// runs (BFS discovery order is implementation-defined).
	for i := range pg.cand {
		slices.Sort(pg.cand[i])
	}

	removed := m.purgeFixpoint(pg.cand)

	if !m.cfg.DisableOutputPuncts {
		out = m.emitForRemoved(out, removed)
	}
	if m.cfg.PurgePunctuations {
		m.purgePunctStores(batch, removed)
	}
	return out
}

// purgeFixpoint repeatedly attempts to purge every candidate until a pass
// makes no progress (removals shrink frontiers, which can unlock further
// removals — the cascade of the chained purge strategy). Candidate lists
// must be sorted ascending; they are filtered in place (which preserves
// the order). It returns the removed tuples per input — scratch buffers
// valid until the next fixpoint — so punctuation re-emission and §5.1
// store purging can be targeted instead of rescanning whole stores.
func (m *MJoin) purgeFixpoint(cand [][]tupleID) [][]stream.Tuple {
	removed := m.pg.removed
	for s := range removed {
		clearTuples(removed[s])
		removed[s] = removed[s][:0]
	}
	for changed := true; changed; {
		changed = false
		for s := range cand {
			if m.plans[s] == nil {
				continue
			}
			w := 0
			for _, id := range cand[s] {
				t, ok := m.states[s].get(id)
				if !ok {
					continue // gone: drop from the candidate list
				}
				m.stats.PurgeChecks++
				if !m.purgeableTuple(s, t) {
					cand[s][w] = id
					w++
					continue
				}
				m.states[s].remove(id)
				m.stats.TuplesPurged[s]++
				m.stats.StateSize[s] = m.states[s].size()
				m.stats.ColdSize[s] = m.states[s].coldSize()
				removed[s] = append(removed[s], t)
				changed = true
			}
			cand[s] = cand[s][:w]
		}
	}
	m.pg.removed = removed
	return removed
}

// Sweep runs a full purge pass over every stored tuple of every purgeable
// input (the §5.1 "background clean-up mechanism") and returns the number
// of tuples removed plus any output punctuations that became emittable.
func (m *MJoin) Sweep() (int, []stream.Element) {
	if m.cfg.DisablePurge {
		return 0, nil
	}
	pg := &m.pg
	for i := range pg.cand {
		pg.cand[i] = pg.cand[i][:0]
		m.states[i].each(func(id tupleID, _ stream.Tuple) bool {
			pg.cand[i] = append(pg.cand[i], id) // each() walks in id order: already sorted
			return true
		})
	}
	removed := m.purgeFixpoint(pg.cand)
	total := 0
	for _, r := range removed {
		total += len(r)
	}
	var out []stream.Element
	if !m.cfg.DisableOutputPuncts {
		out = m.emitPendingPuncts(nil)
	}
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
		pg.frontiers[j] = m.frontier(pg.frontiers[j][:0], j, pg.covered, pg.frontiers)
		pg.covered[j] = true
	}
	return true
}

// coveredProduct verifies that every combination of the per-attribute
// value sets has a live stored punctuation on input j instantiating
// scheme schemeIdx.
func (m *MJoin) coveredProduct(j, schemeIdx int, valueSets [][]stream.Value) bool {
	if cap(m.pg.consts) < len(valueSets) {
		m.pg.consts = make([]stream.Value, len(valueSets))
	}
	return m.coveredProductRec(j, schemeIdx, valueSets, m.pg.consts[:len(valueSets)], 0)
}

func (m *MJoin) coveredProductRec(j, schemeIdx int, valueSets [][]stream.Value, consts []stream.Value, k int) bool {
	if k == len(valueSets) {
		return m.puncts[j].covered(schemeIdx, consts, m.clock)
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
		m.states[j].each(func(_ tupleID, u stream.Tuple) bool {
			dst = append(dst, u)
			return true
		})
		return dst
	}
	// Probe the index with the smallest constraint set; verify the rest.
	// Distinct values of one attribute index disjoint buckets and the key
	// sets are deduplicated, so no id is visited twice.
	best := 0
	for i := 1; i < nc; i++ {
		if len(pg.consKeys[i]) < len(pg.consKeys[best]) {
			best = i
		}
	}
	st := m.states[j]
	for _, vk := range pg.consKeys[best] {
		tb := st.lookup2(pg.consAttrs[best], vk.Value())
		for _, run := range tb.runs() {
			for _, id := range run {
				u, live := st.get(id)
				if !live {
					continue
				}
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

// tryEmitPunct propagates a stored punctuation to the operator output
// when no stored tuple of its input still matches it: from then on no
// output tuple can carry the punctuated values in that input's columns,
// so downstream operators may rely on it (the propagation invariant that
// lets tree plans purge their upper operators).
func (m *MJoin) tryEmitPunct(input int, e *punctEntry) (stream.Element, bool) {
	if e.emitted || e.expired(m.clock) {
		return stream.Element{}, false
	}
	if m.hasMatchingTuple(input, e) {
		return stream.Element{}, false
	}
	e.emitted = true
	m.stats.OutPuncts++
	pats := make([]stream.Pattern, m.out.Arity())
	for i := range pats {
		pats[i] = stream.Wildcard()
	}
	for _, a := range e.idx {
		pats[m.colBase[input]+a] = e.punct.Patterns[a]
	}
	return stream.PunctElement(stream.MustPunctuation(pats...)), true
}

// emitForRemoved re-tests exactly the stored punctuations a purge round
// could have unblocked, appending emissions to out: for each removed
// tuple, the punctuations (on the same input) whose constants equal the
// tuple's values at each scheme's punctuatable positions. A removal can
// only drop the last matching tuple of such a punctuation, so nothing
// else needs rechecking.
func (m *MJoin) emitForRemoved(out []stream.Element, removed [][]stream.Tuple) []stream.Element {
	for input, tuples := range removed {
		ps := m.puncts[input]
		for _, u := range tuples {
			for si, scheme := range ps.schemes {
				idx := scheme.PunctuatableIndexes()
				if cap(m.pg.consts) < len(idx) {
					m.pg.consts = make([]stream.Value, len(idx))
				}
				consts := m.pg.consts[:len(idx)]
				for k, a := range idx {
					consts[k] = u.Values[a]
				}
				e := ps.lookup(si, consts, m.clock)
				if e == nil {
					continue
				}
				if el, emitted := m.tryEmitPunct(input, e); emitted {
					out = append(out, el)
				}
			}
		}
	}
	return out
}

// emitPendingPuncts re-tests every stored, not-yet-emitted punctuation (a
// full pass, used by the background clean-up Sweep).
func (m *MJoin) emitPendingPuncts(out []stream.Element) []stream.Element {
	for input := range m.puncts {
		m.puncts[input].each(m.clock, func(_ int, e *punctEntry) bool {
			if el, ok := m.tryEmitPunct(input, e); ok {
				out = append(out, el)
			}
			return true
		})
	}
	return out
}

// hasMatchingTuple reports whether any stored tuple of the input matches
// the stored punctuation's constant patterns. Indexed attributes are
// probed; otherwise the state is scanned.
func (m *MJoin) hasMatchingTuple(input int, e *punctEntry) bool {
	p := e.punct
	st := m.states[input]
	for _, a := range e.idx {
		// The hash index answers equality constraints only.
		if st.index[a] == nil || p.Patterns[a].IsLeq() {
			continue
		}
		tb := st.lookup2(a, p.Patterns[a].Value())
		for _, run := range tb.runs() {
			for _, id := range run {
				if u, ok := st.get(id); ok && p.Matches(u) {
					return true
				}
			}
		}
		return false
	}
	// No constrained attribute is indexed: scan.
	found := false
	st.each(func(_ tupleID, u stream.Tuple) bool {
		if p.Matches(u) {
			found = true
			return false
		}
		return true
	})
	return found
}

// punctVictim identifies one stored punctuation.
type punctVictim struct {
	input     int
	schemeIdx int
	consts    []stream.Value
}

// violatedPromise reports whether a live punctuation stored on the
// tuple's own input forbids it, returning the offending punctuation. The
// check is one exact-key lookup per registered scheme: a tuple matches a
// scheme's instantiation iff its values at the punctuatable positions
// equal the stored constants (with <= for the ordered slot) — exactly the
// covered() query over constants drawn from the tuple itself.
func (m *MJoin) violatedPromise(input int, t stream.Tuple) (stream.Punctuation, bool) {
	ps := m.puncts[input]
	for si, scheme := range ps.schemes {
		idx := scheme.PunctuatableIndexes()
		if cap(m.pg.consts) < len(idx) {
			m.pg.consts = make([]stream.Value, len(idx))
		}
		consts := m.pg.consts[:len(idx)]
		for k, a := range idx {
			consts[k] = t.Values[a]
		}
		if ps.covered(si, consts, m.clock) {
			return ps.lookup(si, consts, m.clock).punct, true
		}
	}
	return stream.Punctuation{}, false
}

// purgePunctStores implements §5.1 punctuation purgeability. A stored
// punctuation e on stream j can be dropped once every join partner side
// is closed for it: the partner holds a counter-punctuation implied by
// e's constraint (mapped through the join predicates) and stores no
// tuple still matching that constraint. Candidates are derived from the
// batch (a new punctuation may be the missing counter for its partners'
// punctuations) and from the purge round's removed tuples (a removal may
// have been the last matching partner tuple); a punctuation whose
// blockers lie beyond this neighbourhood is caught by the Sweep's full
// pass instead.
func (m *MJoin) purgePunctStores(batch []pendingPunct, removed [][]stream.Tuple) {
	pg := &m.pg
	clear(pg.seenKeys)
	pg.victims = pg.victims[:0]
	consider := func(input, schemeIdx int, e *punctEntry) {
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[:8], uint64(input))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(schemeIdx))
		pg.keyBuf = append(pg.keyBuf[:0], hdr[:]...)
		pg.keyBuf = stream.AppendKey(pg.keyBuf, e.consts...)
		if pg.seenKeys[string(pg.keyBuf)] {
			return
		}
		pg.seenKeys[string(pg.keyBuf)] = true
		if m.punctPurgeable(input, schemeIdx, e) {
			pg.victims = append(pg.victims, punctVictim{input: input, schemeIdx: schemeIdx, consts: e.consts})
		}
	}

	// (a) New punctuations: they may complete the counter-coverage of a
	// partner stream's stored punctuation with the mapped constants.
	for _, pp := range batch {
		m.eachMappedEntry(pp, consider)
		// The new punctuation itself may already be droppable.
		if si := m.puncts[pp.input].schemeIndex(pp.p); si >= 0 {
			if e := m.puncts[pp.input].lookup(si, pp.consts, m.clock); e != nil {
				consider(pp.input, si, e)
			}
		}
	}
	// (b) Removed tuples: a stored punctuation that matched them on a
	// partner stream may have lost its last blocker.
	for input, tuples := range removed {
		for _, u := range tuples {
			for _, p := range m.predsTouching[input] {
				other, myAttr, otherAttr := p.Other(input)
				ps := m.puncts[other]
				for si, scheme := range ps.schemes {
					idx := scheme.PunctuatableIndexes()
					if len(idx) != 1 || idx[0] != otherAttr {
						continue
					}
					if e := ps.lookup(si, []stream.Value{u.Values[myAttr]}, m.clock); e != nil {
						consider(other, si, e)
					}
				}
				// Multi-attribute schemes: reconstruct the constants from
				// the removed tuple when every punctuatable attribute maps
				// back to this input.
				for si, scheme := range ps.schemes {
					idx := scheme.PunctuatableIndexes()
					if len(idx) < 2 {
						continue
					}
					consts := make([]stream.Value, len(idx))
					ok := true
					for k, a := range idx {
						back := m.q.PartnerAttr(other, a, input)
						if back < 0 {
							ok = false
							break
						}
						consts[k] = u.Values[back]
					}
					if !ok {
						continue
					}
					if e := ps.lookup(si, consts, m.clock); e != nil {
						consider(other, si, e)
					}
				}
			}
		}
	}

	// Collect all victims before removing any: two punctuations may
	// certify each other (both sides closed on the same values), and
	// removing one first would strand the other.
	m.removeVictims(pg.victims)
}

// sweepPunctStores is the full §5.1 pass used by Sweep: every stored
// punctuation is re-evaluated.
func (m *MJoin) sweepPunctStores() {
	pg := &m.pg
	pg.victims = pg.victims[:0]
	for j := range m.puncts {
		ps := m.puncts[j]
		ps.each(m.clock, func(si int, e *punctEntry) bool {
			if m.punctPurgeable(j, si, e) {
				pg.victims = append(pg.victims, punctVictim{input: j, schemeIdx: si, consts: e.consts})
			}
			return true
		})
	}
	m.removeVictims(pg.victims)
}

func (m *MJoin) removeVictims(victims []punctVictim) {
	for _, v := range victims {
		if m.puncts[v.input].remove(v.schemeIdx, v.consts) {
			m.stats.PunctsPurged[v.input]++
			m.stats.PunctStoreSize[v.input] = m.puncts[v.input].size
		}
	}
}

// eachMappedEntry maps a punctuation's constraint through the join
// predicates onto each partner stream and invokes fn for every stored
// partner punctuation whose constants equal the mapped values.
func (m *MJoin) eachMappedEntry(pp pendingPunct, fn func(input, schemeIdx int, e *punctEntry)) {
	input, p := pp.input, pp.p
	for _, other := range m.partners[input] {
		// mapped[attr of other] = value implied by p.
		mapped := make(map[int]stream.Value)
		conflict := false
		for _, a := range pp.idx {
			v := p.Patterns[a].Value()
			for _, pr := range m.predsTouching[input] {
				o, myAttr, otherAttr := pr.Other(input)
				if o != other || myAttr != a {
					continue
				}
				if prev, ok := mapped[otherAttr]; ok && !prev.Equal(v) {
					conflict = true
				}
				mapped[otherAttr] = v
			}
		}
		if conflict || len(mapped) == 0 {
			continue
		}
		ps := m.puncts[other]
		for si, scheme := range ps.schemes {
			idx := scheme.PunctuatableIndexes()
			vals := make([]stream.Value, len(idx))
			ok := true
			for k, a := range idx {
				v, has := mapped[a]
				if !has {
					ok = false
					break
				}
				vals[k] = v
			}
			if !ok {
				continue
			}
			if e := ps.lookup(si, vals, m.clock); e != nil {
				fn(other, si, e)
			}
		}
	}
}

// punctPurgeable decides whether a stored punctuation e on input j can be
// dropped: for every join partner reachable through e's constrained
// attributes, the partner must hold a live counter-punctuation implied by
// e's mapped constraint and store no tuple still matching it. Constrained
// attributes that join nothing keep the punctuation alive (nothing can
// certify they will not be needed).
func (m *MJoin) punctPurgeable(j, schemeIdx int, e *punctEntry) bool {
	if m.puncts[j].ordSlot[schemeIdx] >= 0 {
		// Watermark entries are self-compacting (one entry per equality
		// key, bound monotonically widened), so counter-punctuation
		// purging is unnecessary for them; lifespans still apply.
		return false
	}
	scheme := m.puncts[j].schemes[schemeIdx]
	idx := scheme.PunctuatableIndexes()
	partnersTouched := false
	for _, other := range m.partners[j] {
		// Map e's constraint onto the partner.
		mapped := make(map[int]stream.Value)
		for k, a := range idx {
			v := e.consts[k]
			for _, pr := range m.predsTouching[j] {
				o, myAttr, otherAttr := pr.Other(j)
				if o == other && myAttr == a {
					if prev, ok := mapped[otherAttr]; ok && !prev.Equal(v) {
						// Contradictory constraint: no partner tuple can
						// ever match e through this stream.
						mapped = nil
					}
					if mapped != nil {
						mapped[otherAttr] = v
					}
				}
			}
			if mapped == nil {
				break
			}
		}
		if mapped == nil {
			continue // e matches nothing on this partner
		}
		if len(mapped) == 0 {
			continue // partner not linked through constrained attributes
		}
		partnersTouched = true
		if !m.counterCovered(other, mapped) {
			return false
		}
		if m.hasTupleMatching(other, mapped) {
			return false
		}
	}
	// Every constrained attribute must join at least one partner;
	// otherwise the punctuation's purpose cannot be certified away.
	for _, a := range idx {
		if len(m.q.JoinPartners(j, a)) == 0 {
			return false
		}
	}
	return partnersTouched
}

// counterCovered reports whether stream s holds a live punctuation whose
// constrained attributes are a subset of the mapped constraint with equal
// values — such a punctuation forbids every future s-tuple matching the
// constraint.
func (m *MJoin) counterCovered(s int, mapped map[int]stream.Value) bool {
	ps := m.puncts[s]
	for si, scheme := range ps.schemes {
		idx := scheme.PunctuatableIndexes()
		consts := make([]stream.Value, len(idx))
		ok := true
		for k, a := range idx {
			v, has := mapped[a]
			if !has {
				ok = false
				break
			}
			consts[k] = v
		}
		if ok && ps.covered(si, consts, m.clock) {
			return true
		}
	}
	return false
}

// hasTupleMatching reports whether stream s stores a tuple matching every
// (attr, value) pair of the constraint.
func (m *MJoin) hasTupleMatching(s int, mapped map[int]stream.Value) bool {
	// Probe the first indexed attribute; verify the rest.
	st := m.states[s]
	for a, v := range mapped {
		if st.index[a] == nil {
			continue
		}
		tb := st.lookup2(a, v)
		for _, run := range tb.runs() {
			for _, id := range run {
				u, live := st.get(id)
				if !live {
					continue
				}
				all := true
				for a2, v2 := range mapped {
					if !u.Values[a2].Equal(v2) {
						all = false
						break
					}
				}
				if all {
					return true
				}
			}
		}
		return false
	}
	found := false
	st.each(func(_ tupleID, u stream.Tuple) bool {
		for a, v := range mapped {
			if !u.Values[a].Equal(v) {
				return true
			}
		}
		found = true
		return false
	})
	return found
}
