package safety

import (
	"fmt"
	"strings"

	"punctsafe/internal/graph"
	"punctsafe/query"
	"punctsafe/stream"
)

// PGEdge is one directed edge of the punctuation graph: From -> To created
// because To's side of Pred is punctuatable under Scheme (Definition 7).
// Punctuations from stream To (on the predicate's To-attribute) purge
// tuples stored for stream From.
type PGEdge struct {
	From   int
	To     int
	Pred   query.Predicate
	Scheme stream.Scheme
}

// PG is the punctuation graph of Definition 7 for the query viewed as a
// single MJoin operator over all its streams. Only schemes with exactly
// one punctuatable attribute create edges; multi-attribute schemes are
// the business of the generalized punctuation graph (Definition 8).
type PG struct {
	q     *query.CJQ
	g     *graph.Digraph
	edges []PGEdge
}

// BuildPG constructs the punctuation graph of q under the scheme set.
// Construction is linear in |predicates| x |schemes per stream| (§4.1,
// Example 3: "such a punctuation graph can be constructed in linear
// time").
func BuildPG(q *query.CJQ, schemes *stream.SchemeSet) *PG {
	pg := &PG{q: q, g: graph.NewDigraph(q.N())}
	for _, p := range q.Predicates() {
		// Edge S_right -> S_left when left's attribute is punctuatable,
		// and symmetrically.
		pg.addIfPunctuatable(schemes, p.Right, p.Left, p.LeftAttr, p)
		pg.addIfPunctuatable(schemes, p.Left, p.Right, p.RightAttr, p)
	}
	return pg
}

func (pg *PG) addIfPunctuatable(schemes *stream.SchemeSet, from, to, toAttr int, pred query.Predicate) {
	for _, s := range schemes.ForStream(pg.q.Stream(to).Name()) {
		idx := s.PunctuatableIndexes()
		if len(idx) == 1 && idx[0] == toAttr {
			pg.g.AddEdge(from, to)
			pg.edges = append(pg.edges, PGEdge{From: from, To: to, Pred: pred, Scheme: s})
		}
	}
}

// Edges returns the labeled edge list (owned by the PG).
func (pg *PG) Edges() []PGEdge { return pg.edges }

// StreamPurgeable is Theorem 1: the join state of stream i is purgeable
// iff i reaches every other node in the punctuation graph. Valid when all
// schemes are simple (single punctuatable attribute); for arbitrary
// schemes use GPG.StreamPurgeable (Theorem 3).
func (pg *PG) StreamPurgeable(i int) bool { return pg.g.ReachesAll(i) }

// OperatorPurgeable is Corollary 1: the operator (and, per Theorem 2, the
// query) is purgeable iff the punctuation graph is strongly connected.
func (pg *PG) OperatorPurgeable() bool { return pg.g.StronglyConnected() }

// String renders the edges with stream names.
func (pg *PG) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PG(%d streams)", pg.q.N())
	for _, e := range pg.edges {
		fmt.Fprintf(&b, " %s->%s", pg.q.Stream(e.From).Name(), pg.q.Stream(e.To).Name())
	}
	return b.String()
}
