// Package graph provides the directed-graph algorithms that underpin the
// punctuation-graph machinery of the safety checker: adjacency storage,
// breadth-first reachability and Tarjan's strongly connected components.
// Vertices are dense integer indices (0..n-1), which matches
// how streams are numbered inside a continuous join query.
package graph

import "fmt"

// Digraph is a directed graph over vertices 0..N-1 with adjacency lists.
// Parallel edges are collapsed; self-loops are allowed but ignored by the
// connectivity algorithms (a single vertex is always strongly connected).
type Digraph struct {
	n   int
	adj [][]int
	has []map[int]bool
}

// NewDigraph returns an empty directed graph with n vertices.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Digraph{
		n:   n,
		adj: make([][]int, n),
		has: make([]map[int]bool, n),
	}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// AddEdge inserts the directed edge u -> v. Duplicate insertions are
// ignored so callers may add edges discovered through several punctuation
// schemes without bookkeeping.
func (g *Digraph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if g.has[u] == nil {
		g.has[u] = make(map[int]bool)
	}
	if g.has[u][v] {
		return
	}
	g.has[u][v] = true
	g.adj[u] = append(g.adj[u], v)
}

// HasEdge reports whether the directed edge u -> v exists.
func (g *Digraph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.has[u] != nil && g.has[u][v]
}

// Succ returns the successor list of u. The returned slice is owned by the
// graph and must not be modified.
func (g *Digraph) Succ(u int) []int {
	g.check(u)
	return g.adj[u]
}

// Reverse returns a new graph with every edge direction flipped.
func (g *Digraph) Reverse() *Digraph {
	r := NewDigraph(g.n)
	for u, succ := range g.adj {
		for _, v := range succ {
			r.AddEdge(v, u)
		}
	}
	return r
}

func (g *Digraph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// ReachableFrom returns the set of vertices reachable from src (including
// src itself) following directed edges, as a boolean membership slice.
func (g *Digraph) ReachableFrom(src int) []bool {
	g.check(src)
	seen := make([]bool, g.n)
	queue := []int{src}
	seen[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return seen
}

// ReachesAll reports whether every vertex is reachable from src.
func (g *Digraph) ReachesAll(src int) bool {
	seen := g.ReachableFrom(src)
	for _, ok := range seen {
		if !ok {
			return false
		}
	}
	return true
}

// StronglyConnected reports whether the whole graph forms a single
// strongly connected component. The empty graph and the single-vertex
// graph are considered strongly connected.
func (g *Digraph) StronglyConnected() bool {
	if g.n <= 1 {
		return true
	}
	comp, count := g.SCC()
	_ = comp
	return count == 1
}

// SCC computes strongly connected components using Tarjan's algorithm
// (iterative, so deep graphs cannot overflow the goroutine stack). It
// returns comp, a slice mapping each vertex to its component id, and the
// number of components. Component ids are assigned in reverse topological
// order of the condensation: if there is an edge from component a to
// component b (a != b) then comp id of a is greater than that of b.
func (g *Digraph) SCC() (comp []int, count int) {
	const unvisited = -1
	n := g.n
	comp = make([]int, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	next := 0

	// Explicit DFS frame: vertex and position within its adjacency list.
	type frame struct {
		v  int
		ai int
	}
	var frames []frame

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: root})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			advanced := false
			for f.ai < len(g.adj[v]) {
				w := g.adj[v][f.ai]
				f.ai++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = count
					if w == v {
						break
					}
				}
				count++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return comp, count
}
