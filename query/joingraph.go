package query

import (
	"fmt"
	"sort"
	"strings"
)

// JoinGraph is the undirected, labeled graph of Definition 6: one vertex
// per input stream, one edge per pair of streams sharing at least one join
// predicate (the edge carries all predicates between the pair).
type JoinGraph struct {
	n     int
	edges map[[2]int][]Predicate // key [lo,hi]
}

// JoinGraph builds the join graph of the query.
func (q *CJQ) JoinGraph() *JoinGraph {
	jg := &JoinGraph{n: q.N(), edges: make(map[[2]int][]Predicate)}
	for _, p := range q.preds {
		k := edgeKey(p.Left, p.Right)
		jg.edges[k] = append(jg.edges[k], p)
	}
	return jg
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// HasEdge reports whether streams a and b share a join predicate.
func (jg *JoinGraph) HasEdge(a, b int) bool {
	_, ok := jg.edges[edgeKey(a, b)]
	return ok
}

// Neighbors returns the vertices adjacent to v, ascending.
func (jg *JoinGraph) Neighbors(v int) []int {
	var out []int
	for k := range jg.edges {
		if k[0] == v {
			out = append(out, k[1])
		} else if k[1] == v {
			out = append(out, k[0])
		}
	}
	sort.Ints(out)
	return out
}

// Connected reports whether the join graph is connected. A query whose
// join graph is disconnected contains a cross product.
func (jg *JoinGraph) Connected() bool {
	if jg.n <= 1 {
		return true
	}
	seen := make([]bool, jg.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range jg.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == jg.n
}

// String renders vertices and edges.
func (jg *JoinGraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "JoinGraph(n=%d)", jg.n)
	for k, preds := range jg.edges {
		fmt.Fprintf(&b, " %d--%d(%d preds)", k[0], k[1], len(preds))
	}
	return b.String()
}
