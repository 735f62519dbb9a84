package graph

import (
	"math/rand"
	"testing"
)

func TestDigraphBasics(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // duplicate collapses
	g.AddEdge(1, 2)
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge broken")
	}
	if got := g.Succ(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Succ(0) = %v", got)
	}
	r := g.Reverse()
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 1) || r.HasEdge(0, 1) {
		t.Fatal("Reverse broken")
	}
}

func TestReachability(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	seen := g.ReachableFrom(0)
	want := []bool{true, true, true, false}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ReachableFrom(0)[%d] = %v", i, seen[i])
		}
	}
	if g.ReachesAll(0) {
		t.Fatal("3 is unreachable")
	}
	g.AddEdge(2, 3)
	if !g.ReachesAll(0) {
		t.Fatal("all should be reachable now")
	}
}

func TestSCC(t *testing.T) {
	// Two 2-cycles bridged by one edge.
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	g.AddEdge(1, 2)
	comp, count := g.SCC()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Fatalf("comp = %v", comp)
	}
	// Reverse topological numbering: edge 1->2 crosses components, so
	// comp[1] > comp[2].
	if comp[1] <= comp[2] {
		t.Fatalf("component order: comp[1]=%d comp[2]=%d", comp[1], comp[2])
	}
	if g.StronglyConnected() {
		t.Fatal("not strongly connected")
	}
	g.AddEdge(3, 0)
	if !g.StronglyConnected() {
		t.Fatal("cycle closes: strongly connected")
	}
}

func TestSCCSingletonAndEmpty(t *testing.T) {
	if !NewDigraph(0).StronglyConnected() || !NewDigraph(1).StronglyConnected() {
		t.Fatal("trivial graphs are strongly connected")
	}
	g := NewDigraph(2)
	if g.StronglyConnected() {
		t.Fatal("two isolated vertices are not strongly connected")
	}
}

func TestSCCDeepChainIterative(t *testing.T) {
	// A 200k-vertex cycle would overflow a recursive Tarjan.
	n := 200_000
	g := NewDigraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	if _, count := g.SCC(); count != 1 {
		t.Fatalf("cycle must be one component, got %d", count)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	g := NewDigraph(2)
	for _, fn := range []func(){
		func() { g.AddEdge(0, 2) },
		func() { g.AddEdge(-1, 0) },
		func() { g.ReachableFrom(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHyperReachability(t *testing.T) {
	// The Figure 9 shape: 0<->1 plain, 2->1 plain, {0,1} => 2.
	h := NewHyperDigraph(3)
	h.AddEdge(0, 1)
	h.AddEdge(1, 0)
	h.AddEdge(2, 1)
	h.AddHyperEdge([]int{0, 1}, 2)
	for v := 0; v < 3; v++ {
		if !h.ReachesAll(v) {
			t.Fatalf("vertex %d should reach all", v)
		}
	}
	if !h.StronglyConnected() {
		t.Fatal("should be strongly connected under Definition 10")
	}
	// Without the 1->0 plain edge, vertex 1 never covers the tail set
	// {0,1}, so the generalized edge cannot fire from it.
	h2 := NewHyperDigraph(3)
	h2.AddEdge(2, 1)
	h2.AddHyperEdge([]int{0, 1}, 2)
	if h2.ReachesAll(1) {
		t.Fatal("1 must not reach 2: tail 0 is never covered")
	}
}

func TestHyperSingleTailIsPlain(t *testing.T) {
	h := NewHyperDigraph(2)
	h.AddHyperEdge([]int{0, 0}, 1) // dedups to single tail
	if len(h.HyperEdges()) != 0 {
		t.Fatal("single-tail hyperedge must become a plain edge")
	}
	if !h.HasEdge(0, 1) {
		t.Fatal("plain edge missing")
	}
}

func TestHyperChainedFiring(t *testing.T) {
	// Firing one hyperedge unlocks another.
	h := NewHyperDigraph(4)
	h.AddEdge(0, 1)
	h.AddHyperEdge([]int{0, 1}, 2)
	h.AddHyperEdge([]int{1, 2}, 3)
	seen := h.ReachableFrom(0)
	for v, want := range []bool{true, true, true, true} {
		if seen[v] != want {
			t.Fatalf("reach[%d] = %v, want %v", v, seen[v], want)
		}
	}
	// From 1: cannot reach 0, so no hyperedge ever fires.
	seen = h.ReachableFrom(1)
	if seen[0] || seen[2] || seen[3] {
		t.Fatalf("reach from 1 = %v", seen)
	}
}

func TestHyperRandomAgainstBruteForce(t *testing.T) {
	// Fixpoint reachability must match a brute-force saturation.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		h := NewHyperDigraph(n)
		for e := rng.Intn(2 * n); e > 0; e-- {
			h.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		for e := rng.Intn(n); e > 0; e-- {
			k := 1 + rng.Intn(3)
			tails := make([]int, k)
			for i := range tails {
				tails[i] = rng.Intn(n)
			}
			h.AddHyperEdge(tails, rng.Intn(n))
		}
		for src := 0; src < n; src++ {
			got := h.ReachableFrom(src)
			want := bruteReach(h, src)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("trial %d src %d vertex %d: got %v want %v\n%s",
						trial, src, v, got[v], want[v], h)
				}
			}
		}
	}
}

// bruteReach saturates reachability by repeated full passes.
func bruteReach(h *HyperDigraph, src int) []bool {
	seen := make([]bool, h.N())
	seen[src] = true
	for {
		changed := false
		for u := 0; u < h.N(); u++ {
			if !seen[u] {
				continue
			}
			for _, v := range h.Succ(u) {
				if !seen[v] {
					seen[v] = true
					changed = true
				}
			}
		}
		for _, e := range h.HyperEdges() {
			if seen[e.Head] {
				continue
			}
			all := true
			for _, t := range e.Tails {
				if !seen[t] {
					all = false
				}
			}
			if all {
				seen[e.Head] = true
				changed = true
			}
		}
		if !changed {
			return seen
		}
	}
}
