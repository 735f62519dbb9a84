package exec

import (
	"slices"

	"punctsafe/stream"
)

// punctPlan is everything about handling one (input, scheme)'s
// punctuations that depends only on the scheme and the join predicates —
// the punctuation-side counterpart of the §4.2 purge plans. NewMJoin
// compiles one per registered scheme, so a punctuation costs slot copies
// and index lookups at run time: the purge round's anchors, the §5.1
// purgeability test, the propagation test and the output punctuation are
// all read off this table.
type punctPlan struct {
	// Constant slot k of an instantiation is its k-th constant, at the
	// scheme's k-th punctuatable attribute. ordSlot is the slot of the
	// ordered (<=) constant, or -1.
	ordSlot int
	// certifiable is the static half of §5.1's counter-punctuation rule:
	// the scheme has no ordered slot (watermark entries compact themselves
	// instead) and every constrained attribute joins some partner. A
	// non-ordered scheme that is not certifiable needs no certificate: no
	// purge plan and no partner reads it, so it retires once propagated
	// (punctPurgeable).
	certifiable bool
	// probeSlot is the equality slot whose attribute is indexed on the
	// punctuation's own input — the propagation test probes it and
	// verifies the rest — or -1 when the state has to be scanned.
	probeSlot int
	// outScheme marks the output columns the constants propagate to: an
	// output punctuation is the stored punctuation re-shaped onto it.
	outScheme stream.Scheme
	// anchors are the partner attributes a constant reaches through a
	// join predicate, in (slot, predicate) order: the stored tuples a new
	// punctuation may have made purgeable.
	anchors []punctAnchor
	// partners are the streams at least one constant reaches, in anchor
	// order.
	partners []partnerPlan
}

type punctAnchor struct{ other, attr, slot int }

// partnerPlan is a punctuation's constraint mapped through the join
// predicates onto one partner stream.
type partnerPlan struct {
	other int
	// attrs are the partner attributes the mapped constraint fixes and
	// slots the constant each one must equal. All of them are join
	// attributes, hence indexed: attrs[0] is probed, the rest verified.
	attrs, slots []int
	// conflicts are slot pairs that reach the same partner attribute:
	// when their constants differ no partner tuple can ever match, and the
	// partner contributes nothing.
	conflicts [][2]int
	// counters are the partner's schemes whose every constant the mapped
	// constraint supplies: a live instantiation with those constants is a
	// counter-punctuation — it forbids every future partner tuple matching
	// the constraint.
	counters []constSource
}

// constSource says where the constants of one scheme's instantiation come
// from: constant k is from[k] — a slot of another punctuation, or an
// attribute of a tuple.
type constSource struct {
	scheme int
	from   []int
}

// removedProbe finds, for a tuple removed from one input, a stored
// punctuation of a partner stream that matched it (from holds the
// tuple's attributes) and may have lost its last blocker.
type removedProbe struct {
	other int
	constSource
}

// compilePunctPlans builds every input's punctuation plans and
// removed-tuple probes, and sizes the shared constant scratch to the
// widest scheme.
func (m *MJoin) compilePunctPlans() {
	n := m.q.N()
	m.punctPlans = make([][]punctPlan, n)
	m.removedProbes = make([][]removedProbe, n)
	widest := 0
	for j := 0; j < n; j++ {
		for si, idx := range m.puncts[j].idx {
			m.punctPlans[j] = append(m.punctPlans[j], m.compilePunctPlan(j, si))
			widest = max(widest, len(idx))
		}
		m.removedProbes[j] = m.compileRemovedProbes(j)
	}
	m.pg.consts = make([]stream.Value, widest)
}

func (m *MJoin) compilePunctPlan(j, si int) punctPlan {
	ps := m.puncts[j]
	pl := punctPlan{ordSlot: ps.ordSlot[si], certifiable: ps.ordSlot[si] < 0, probeSlot: -1}
	joinAttrs := m.q.JoinAttrs(j)
	outMask := make([]bool, m.out.Arity())
	for k, a := range ps.idx[si] {
		outMask[m.colBase[j]+a] = true
		if !slices.Contains(joinAttrs, a) {
			pl.certifiable = false
		} else if k != pl.ordSlot && pl.probeSlot < 0 {
			pl.probeSlot = k // the hash index answers equality only
		}
		for _, p := range m.predsTouching[j] {
			if other, myAttr, otherAttr := p.Other(j); myAttr == a {
				pl.anchors = append(pl.anchors, punctAnchor{other: other, attr: otherAttr, slot: k})
			}
		}
	}
	pl.outScheme = stream.MustScheme(m.out.Name(), outMask...)
	// The anchors, grouped by partner, are the mapped constraints.
	for _, an := range pl.anchors {
		i := slices.IndexFunc(pl.partners, func(pp partnerPlan) bool { return pp.other == an.other })
		if i < 0 {
			i = len(pl.partners)
			pl.partners = append(pl.partners, partnerPlan{other: an.other})
		}
		pp := &pl.partners[i]
		if at := slices.Index(pp.attrs, an.attr); at < 0 {
			pp.attrs = append(pp.attrs, an.attr)
			pp.slots = append(pp.slots, an.slot)
		} else if pp.slots[at] != an.slot {
			pp.conflicts = append(pp.conflicts, [2]int{pp.slots[at], an.slot})
		}
	}
	for i := range pl.partners {
		pp := &pl.partners[i]
	schemes:
		for sc, idx := range m.puncts[pp.other].idx {
			from := make([]int, len(idx))
			for k, a := range idx {
				at := slices.Index(pp.attrs, a)
				if at < 0 {
					continue schemes
				}
				from[k] = pp.slots[at]
			}
			pp.counters = append(pp.counters, constSource{scheme: sc, from: from})
		}
	}
	return pl
}

// compileRemovedProbes lists, per join predicate of the input, the
// partner's simple schemes on the predicate's attribute, and per partner
// the multi-attribute schemes whose every punctuatable attribute maps
// back to the input — their constants reconstruct from a removed tuple.
func (m *MJoin) compileRemovedProbes(input int) []removedProbe {
	var probes []removedProbe
	for _, p := range m.predsTouching[input] {
		other, myAttr, otherAttr := p.Other(input)
	schemes:
		for sc, idx := range m.puncts[other].idx {
			if len(idx) == 1 {
				if idx[0] == otherAttr {
					probes = append(probes, removedProbe{other, constSource{sc, []int{myAttr}}})
				}
				continue
			}
			from := make([]int, len(idx))
			for k, a := range idx {
				if from[k] = m.q.PartnerAttr(other, a, input); from[k] < 0 {
					continue schemes
				}
			}
			if !slices.ContainsFunc(probes, func(rp removedProbe) bool {
				return rp.other == other && rp.scheme == sc
			}) {
				probes = append(probes, removedProbe{other, constSource{sc, from}})
			}
		}
	}
	return probes
}

// constant returns constant slot k of a punctuation.
func constant(p stream.Punctuation, k int) stream.Value { return p.Constant(k).Value() }

// conflicting reports whether p's constants contradict each other on the
// partner (see partnerPlan.conflicts).
func conflicting(pp *partnerPlan, p stream.Punctuation) bool {
	for _, c := range pp.conflicts {
		if !constant(p, c[0]).Equal(constant(p, c[1])) {
			return true
		}
	}
	return false
}

// mappedConsts fills the shared scratch with the constants src draws from
// p and returns it; valid until the next use of the scratch.
func (m *MJoin) mappedConsts(p stream.Punctuation, src constSource) []stream.Value {
	consts := m.pg.consts[:len(src.from)]
	for k, slot := range src.from {
		consts[k] = constant(p, slot)
	}
	return consts
}

// tupleConsts is mappedConsts over a tuple's attributes.
func (m *MJoin) tupleConsts(t stream.Tuple, attrs []int) []stream.Value {
	consts := m.pg.consts[:len(attrs)]
	for k, a := range attrs {
		consts[k] = t.Values[a]
	}
	return consts
}
