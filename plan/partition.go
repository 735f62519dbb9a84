// Co-partitioning analysis for intra-query parallel execution.
//
// A query is co-partitionable when some attribute equivalence class of its
// join graph covers every stream: an attribute that the predicates equate
// (transitively) across all n streams, as in a chain or star join on one
// key. Every join result then carries the same value in all attributes of
// the class, so hash-routing each input tuple by its class attribute sends
// all constituent tuples of any result to the same partition. Join state
// split that way is independent across partitions, and a punctuation
// broadcast to every partition purges exactly what it would have purged in
// the unpartitioned operator (Theorem 1 applies partition-locally, since a
// partition's state is the full state restricted to the keys it owns).
package plan

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"punctsafe/query"
)

// ErrNotCoPartitionable reports that no attribute equivalence class of the
// join graph spans all streams of the query. Wrap-returned by
// FindCoPartition with a reason; callers fall back to unpartitioned
// execution.
var ErrNotCoPartitionable = errors.New("plan: query is not co-partitionable")

// CoPartition names, for each stream of the query, the attribute position
// belonging to one equivalence class that the join predicates equate
// across all streams. Attrs[i] is the routing attribute of stream i.
type CoPartition struct {
	Attrs []int
}

// FindCoPartition looks for an attribute equivalence class covering every
// stream of q and returns the per-stream routing attributes. The choice is
// deterministic: classes are compared by their lexicographically smallest
// (stream, attribute) member, and within a class the smallest attribute
// position per stream is used. When no class spans all streams the error
// wraps ErrNotCoPartitionable and names the widest class found.
func FindCoPartition(q *query.CJQ) (*CoPartition, error) {
	n := q.N()
	// Union-find over (stream, attr) nodes that appear in predicates.
	type node struct{ s, a int }
	id := make(map[node]int)
	var nodes []node
	intern := func(s, a int) int {
		k := node{s, a}
		if i, ok := id[k]; ok {
			return i
		}
		i := len(nodes)
		id[k] = i
		nodes = append(nodes, k)
		return i
	}
	var parent []int
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	preds := q.Predicates()
	for _, p := range preds {
		intern(p.Left, p.LeftAttr)
		intern(p.Right, p.RightAttr)
	}
	parent = make([]int, len(nodes))
	for i := range parent {
		parent[i] = i
	}
	for _, p := range preds {
		a, b := find(id[node{p.Left, p.LeftAttr}]), find(id[node{p.Right, p.RightAttr}])
		if a != b {
			parent[a] = b
		}
	}
	// Collect classes; within each, the smallest attribute per stream.
	classes := make(map[int]map[int]int) // root -> stream -> attr
	for i, nd := range nodes {
		r := find(i)
		c := classes[r]
		if c == nil {
			c = make(map[int]int)
			classes[r] = c
		}
		if a, ok := c[nd.s]; !ok || nd.a < a {
			c[nd.s] = nd.a
		}
	}
	// Deterministic order: sort class roots by smallest member node.
	roots := make([]int, 0, len(classes))
	for r := range classes {
		roots = append(roots, r)
	}
	least := func(r int) node {
		best := node{s: n, a: -1}
		for i, nd := range nodes {
			if find(i) != r {
				continue
			}
			if nd.s < best.s || (nd.s == best.s && nd.a < best.a) {
				best = nd
			}
		}
		return best
	}
	sort.Slice(roots, func(i, j int) bool {
		a, b := least(roots[i]), least(roots[j])
		if a.s != b.s {
			return a.s < b.s
		}
		return a.a < b.a
	})
	widest := 0
	var widestStreams []string
	for _, r := range roots {
		c := classes[r]
		if len(c) == n {
			cp := &CoPartition{Attrs: make([]int, n)}
			for s := 0; s < n; s++ {
				cp.Attrs[s] = c[s]
			}
			return cp, nil
		}
		if len(c) > widest {
			widest = len(c)
			widestStreams = widestStreams[:0]
			for s := range c {
				widestStreams = append(widestStreams, q.Stream(s).Name())
			}
			sort.Strings(widestStreams)
		}
	}
	return nil, fmt.Errorf("%w: no attribute is equated across all %d streams (widest class spans %s)",
		ErrNotCoPartitionable, n, strings.Join(widestStreams, ", "))
}

// PartitionBuckets is the fixed number of hash buckets a query's key
// space is carved into; the snapshot format records one owner per bucket.
const PartitionBuckets = 64

// PartitionOf routes a hash value to one of parts partitions: its bucket,
// round-robin over the partitions.
func PartitionOf(h uint64, parts int) int { return int(h%PartitionBuckets) % parts }

// Describe renders the routing attributes as "stream.attr" pairs.
func (cp *CoPartition) Describe(q *query.CJQ) string {
	parts := make([]string, len(cp.Attrs))
	for s, a := range cp.Attrs {
		sc := q.Stream(s)
		parts[s] = sc.Name() + "." + sc.Attr(a).Name
	}
	return strings.Join(parts, " = ")
}
