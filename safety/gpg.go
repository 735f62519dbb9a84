package safety

import (
	"fmt"
	"strings"

	"punctsafe/internal/graph"
	"punctsafe/query"
	"punctsafe/stream"
)

// GenEdge is a generalized directed edge of the GPG (Definition 8),
// created by a punctuation scheme on stream Head with several punctuatable
// attributes. Firing the edge (making Head reachable) requires, for every
// punctuatable attribute, that at least one of that attribute's join
// partner streams is already reachable: the attribute's constants for the
// chained purge come from the joinable frontier on that partner
// (generalized chained purge strategy, §4.2).
//
// The paper draws the tail as a single generalized node covering one
// partner per attribute; when an attribute joins several streams, any one
// of them supplies the constants, so the tail is an AND of per-attribute
// OR-sets (equivalent to one Definition-8 edge per combination).
type GenEdge struct {
	Head   int
	Scheme stream.Scheme
	// Attrs[k] describes the k-th punctuatable attribute of Scheme.
	Attrs []GenEdgeAttr
}

// GenEdgeAttr is one punctuatable attribute of a generalized edge's scheme
// together with the streams that can supply its purge constants.
type GenEdgeAttr struct {
	Attr     int   // attribute position within Head's schema
	Partners []int // streams with a join predicate on Head.Attr (ascending)
}

// GPG is the generalized punctuation graph of Definition 8: the plain
// punctuation graph plus generalized edges for multi-attribute schemes.
// Reachability follows Definition 9 (fixpoint over generalized edges),
// strong connection Definition 10.
type GPG struct {
	q      *query.CJQ
	pg     *PG
	gen    []GenEdge
	useful []stream.Scheme
}

// BuildGPG constructs the generalized punctuation graph of q under the
// scheme set. A scheme is usable — and contributes an edge — only when
// every one of its punctuatable attributes is a join attribute of its
// stream within q: otherwise no finite set of its instantiations can
// cover the unconstrained attribute's infinite domain, so it cannot purge
// anything (Definition 8's precondition).
func BuildGPG(q *query.CJQ, schemes *stream.SchemeSet) *GPG {
	g := &GPG{q: q, pg: BuildPG(q, schemes)}
	seenUseful := make(map[string]bool)
	markUseful := func(s stream.Scheme) {
		key := s.String()
		if !seenUseful[key] {
			seenUseful[key] = true
			g.useful = append(g.useful, s)
		}
	}
	for _, e := range g.pg.Edges() {
		markUseful(e.Scheme)
	}
	for i := 0; i < q.N(); i++ {
		for _, s := range schemes.ForStream(q.Stream(i).Name()) {
			idx := s.PunctuatableIndexes()
			if len(idx) < 2 {
				continue // simple schemes already live in the plain PG
			}
			attrs := make([]GenEdgeAttr, 0, len(idx))
			usable := true
			for _, a := range idx {
				partners := q.JoinPartners(i, a)
				if len(partners) == 0 {
					usable = false
					break
				}
				attrs = append(attrs, GenEdgeAttr{Attr: a, Partners: partners})
			}
			if !usable {
				continue
			}
			g.gen = append(g.gen, GenEdge{Head: i, Scheme: s, Attrs: attrs})
			markUseful(s)
		}
	}
	return g
}

// PG returns the plain punctuation graph the GPG extends.
func (g *GPG) PG() *PG { return g.pg }

// GenEdges returns the generalized edges (owned by the GPG).
func (g *GPG) GenEdges() []GenEdge { return g.gen }

// UsefulSchemes returns the schemes contributing at least one (plain or
// generalized) edge, i.e. the schemes worth processing at runtime.
func (g *GPG) UsefulSchemes() []stream.Scheme {
	return append([]stream.Scheme(nil), g.useful...)
}

// ReachableFrom computes Definition 9 reachability: seed with plain-edge
// reachability from src, then repeatedly fire generalized edges whose
// per-attribute partner sets are all covered, until a fixpoint.
func (g *GPG) ReachableFrom(src int) []bool {
	seen := g.pg.g.ReachableFrom(src)
	for changed := true; changed; {
		changed = false
		for _, e := range g.gen {
			if seen[e.Head] || !e.firable(seen) {
				continue
			}
			for v, ok := range g.pg.g.ReachableFrom(e.Head) {
				if ok {
					seen[v] = true
				}
			}
			seen[e.Head] = true
			changed = true
		}
	}
	return seen
}

func (e GenEdge) firable(seen []bool) bool {
	for _, a := range e.Attrs {
		ok := false
		for _, p := range a.Partners {
			if seen[p] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// StreamPurgeable is Theorem 3: the join state of stream i is purgeable
// iff i reaches every other node under generalized reachability.
func (g *GPG) StreamPurgeable(i int) bool {
	for _, ok := range g.ReachableFrom(i) {
		if !ok {
			return false
		}
	}
	return true
}

// StronglyConnected is Definition 10 / Corollary 2 / Theorem 4: every
// stream reaches every other. This is the reference (naive) safety check;
// Transform provides the faster equivalent (Theorem 5).
func (g *GPG) StronglyConnected() bool {
	for i := 0; i < g.q.N(); i++ {
		if !g.StreamPurgeable(i) {
			return false
		}
	}
	return true
}

// Hyper renders the GPG as a generic hypergraph over stream indices,
// expanding each AND-OR edge into its Definition-8 combinations. Intended
// for diagnostics and cross-checking against internal/graph algorithms;
// combination counts are tiny for real queries but can in principle be
// exponential, so reachability queries should use the GPG directly.
func (g *GPG) Hyper() *graph.HyperDigraph {
	h := graph.NewHyperDigraph(g.q.N())
	for u := 0; u < g.q.N(); u++ {
		for _, v := range g.pg.g.Succ(u) {
			h.AddEdge(u, v)
		}
	}
	for _, e := range g.gen {
		for _, tails := range e.combinations() {
			h.AddHyperEdge(tails, e.Head)
		}
	}
	return h
}

// combinations enumerates one partner choice per attribute.
func (e GenEdge) combinations() [][]int {
	out := [][]int{nil}
	for _, a := range e.Attrs {
		var next [][]int
		for _, prefix := range out {
			for _, p := range a.Partners {
				comb := append(append([]int(nil), prefix...), p)
				next = append(next, comb)
			}
		}
		out = next
	}
	return out
}

// PurgePlan is the witness for a purgeable stream: the order in which the
// chained purge strategy (§3.2.1, generalized in §4.2) covers the other
// streams, starting from Root. Executing the steps in order yields, for
// any tuple t of Root, a finite set of punctuations guaranteeing t joins
// nothing new — the constructive half of Theorems 1 and 3.
type PurgePlan struct {
	Root  int
	Steps []PurgeStep
}

// PurgeStep records how one stream joined the reachable set.
type PurgeStep struct {
	// Stream is the node made reachable by this step: punctuations from
	// Stream (instantiating Scheme) close the joinable frontier toward it.
	Stream int
	// Scheme is the punctuation scheme supplying those punctuations.
	Scheme stream.Scheme
	// Sources[k] is the already-covered stream from which the constants
	// for the k-th punctuatable attribute of Scheme are drawn (the
	// joinable frontier lives in that stream's join state). For a plain
	// edge there is exactly one source.
	Sources []int
	// Attrs[k] is the punctuatable attribute position (within Stream's
	// schema) matched with Sources[k].
	Attrs []int
	// SourceAttrs[k] is the attribute position on Sources[k]'s side of
	// the join predicate linking it to Attrs[k]: the purge constants for
	// the k-th punctuatable attribute are the distinct SourceAttrs[k]
	// values of the joinable frontier stored for Sources[k].
	SourceAttrs []int
}

// Describe renders the step with stream names.
func (s PurgeStep) Describe(q *query.CJQ) string {
	var parts []string
	for k := range s.Sources {
		parts = append(parts, fmt.Sprintf("%s.%s from frontier in %s",
			q.Stream(s.Stream).Name(),
			q.Stream(s.Stream).Attr(s.Attrs[k]).Name,
			q.Stream(s.Sources[k]).Name()))
	}
	return fmt.Sprintf("punctuate %s via %s (%s)",
		q.Stream(s.Stream).Name(), s.Scheme, strings.Join(parts, "; "))
}

// PurgePlan derives a purge-order witness for stream root. It returns nil
// when root is not purgeable. The plan replays the Definition 9 fixpoint,
// recording for every newly covered stream the scheme and constant
// sources used.
func (g *GPG) PurgePlan(root int) *PurgePlan {
	if !g.StreamPurgeable(root) {
		return nil
	}
	plan := &PurgePlan{Root: root}
	covered := make([]bool, g.q.N())
	covered[root] = true

	// Plain edges first, BFS order, then generalized edges to fixpoint.
	// Each expansion appends a step.
	expandPlain := func() bool {
		progressed := false
		for {
			advanced := false
			for u := 0; u < g.q.N(); u++ {
				if !covered[u] {
					continue
				}
				for _, e := range g.pg.edges {
					if e.From != u || covered[e.To] {
						continue
					}
					_, fromAttr, toAttr := attrsOf(e.Pred, e.To)
					plan.Steps = append(plan.Steps, PurgeStep{
						Stream:      e.To,
						Scheme:      e.Scheme,
						Sources:     []int{u},
						Attrs:       []int{toAttr},
						SourceAttrs: []int{fromAttr},
					})
					covered[e.To] = true
					advanced = true
					progressed = true
				}
			}
			if !advanced {
				return progressed
			}
		}
	}
	expandPlain()
	for {
		fired := false
		for _, e := range g.gen {
			if covered[e.Head] || !e.firable(covered) {
				continue
			}
			step := PurgeStep{Stream: e.Head, Scheme: e.Scheme}
			for _, a := range e.Attrs {
				src := -1
				for _, p := range a.Partners {
					if covered[p] {
						src = p
						break
					}
				}
				step.Sources = append(step.Sources, src)
				step.Attrs = append(step.Attrs, a.Attr)
				step.SourceAttrs = append(step.SourceAttrs, g.q.PartnerAttr(e.Head, a.Attr, src))
			}
			plan.Steps = append(plan.Steps, step)
			covered[e.Head] = true
			fired = true
			expandPlain()
		}
		if !fired {
			break
		}
	}
	// Deterministic order within the witness is already guaranteed by the
	// scan order; sanity-check full coverage.
	for i, ok := range covered {
		if !ok {
			panic(fmt.Sprintf("safety: purge plan for purgeable stream %d missed stream %d", root, i))
		}
	}
	return plan
}

// attrsOf resolves a predicate's attribute positions relative to side:
// it returns the other stream, the other stream's attribute, and side's
// attribute.
func attrsOf(p query.Predicate, side int) (other, otherAttr, sideAttr int) {
	other, sideAttr, otherAttr = p.Other(side)
	return other, otherAttr, sideAttr
}
