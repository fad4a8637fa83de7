package bb

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
	"hypertree/internal/order"
	"hypertree/internal/search"
)

func randomGraph(n int, p float64, seed int64) *hypergraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := hypergraph.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func randomHypergraph(n, m, maxArity int, seed int64) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][]int, 0, m+n)
	for e := 0; e < m; e++ {
		sz := 2 + rng.Intn(maxArity-1)
		edges = append(edges, rng.Perm(n)[:sz])
	}
	covered := make([]bool, n)
	for _, e := range edges {
		for _, v := range e {
			covered[v] = true
		}
	}
	for v := 0; v < n; v++ {
		if !covered[v] {
			edges = append(edges, []int{v, (v + 1) % n})
		}
	}
	return hypergraph.FromEdges(n, edges)
}

func bruteTW(g *hypergraph.Graph) int {
	n := g.NumVertices()
	e := elim.New(g)
	memo := map[uint64]int{}
	var rec func(mask uint64) int
	rec = func(mask uint64) int {
		if e.Remaining() == 0 {
			return 0
		}
		if w, ok := memo[mask]; ok {
			return w
		}
		best := n
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				continue
			}
			d := e.Eliminate(v)
			w := rec(mask | 1<<uint(v))
			if d > w {
				w = d
			}
			if w < best {
				best = w
			}
			e.Restore()
		}
		memo[mask] = best
		return best
	}
	return rec(0)
}

// bruteGHW enumerates all orderings with exact covers (Theorem 3 makes this
// the exact ghw).
func bruteGHW(h *hypergraph.Hypergraph) int {
	n := h.NumVertices()
	ev := order.NewGHWEvaluator(h, nil, true, nil)
	best := n + 1
	perm := order.Identity(n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if w := ev.Width(perm); w < best {
				best = w
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func grid(n int) *hypergraph.Graph {
	g := hypergraph.NewGraph(n * n)
	at := func(r, c int) int { return r*n + c }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				g.AddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < n {
				g.AddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	return g
}

func TestTreewidthExactOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := randomGraph(13, 0.3, seed)
		want := bruteTW(g)
		res := Search(context.Background(), search.Treewidth(g), search.Options{Seed: seed})
		if !res.Exact {
			t.Fatalf("seed %d: BB-tw did not finish", seed)
		}
		if res.Width != want {
			t.Fatalf("seed %d: BB-tw = %d, brute = %d", seed, res.Width, want)
		}
		// Returned ordering must achieve the width.
		if got := order.NewTWEvaluator(g).Width(res.Ordering); got != want {
			t.Fatalf("seed %d: returned ordering has width %d, want %d", seed, got, want)
		}
	}
}

func TestTreewidthAblationsAgree(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(12, 0.35, seed)
		want := Search(context.Background(), search.Treewidth(g), search.Options{Seed: seed}).Width
		for name, opt := range map[string]search.Options{
			"noPR2":       {DisablePR2: true, Seed: seed},
			"noReduction": {DisableReduction: true, Seed: seed},
			"noDominance": {DisableDominance: true, Seed: seed},
			"bare":        {DisablePR2: true, DisableReduction: true, DisableDominance: true, Seed: seed},
		} {
			res := Search(context.Background(), search.Treewidth(g), opt)
			if !res.Exact || res.Width != want {
				t.Fatalf("seed %d: %s gave width %d (exact=%v), want %d", seed, name, res.Width, res.Exact, want)
			}
		}
	}
}

func TestTreewidthGrids(t *testing.T) {
	// tw(n×n grid) = n for n ≥ 2.
	for n := 2; n <= 4; n++ {
		res := Search(context.Background(), search.Treewidth(grid(n)), search.Options{})
		if !res.Exact || res.Width != n {
			t.Fatalf("grid%d: width %d exact=%v, want %d", n, res.Width, res.Exact, n)
		}
	}
}

func TestGHWExactOnRandomHypergraphs(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h := randomHypergraph(8, 6, 4, seed)
		want := bruteGHW(h)
		res := Search(context.Background(), search.GHW(h), search.Options{Seed: seed})
		if !res.Exact {
			t.Fatalf("seed %d: BB-ghw did not finish", seed)
		}
		if res.Width != want {
			t.Fatalf("seed %d: BB-ghw = %d, brute = %d", seed, res.Width, want)
		}
		if got := order.GHWidth(h, res.Ordering, nil, true, nil); got != want {
			t.Fatalf("seed %d: returned ordering has ghw %d, want %d", seed, got, want)
		}
	}
}

func TestGHWCliqueHypergraph(t *testing.T) {
	// K6 as binary hyperedges: ghw = 3 (pair up the six vertices).
	var edges [][]int
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, []int{i, j})
		}
	}
	h := hypergraph.FromEdges(6, edges)
	res := Search(context.Background(), search.GHW(h), search.Options{})
	if !res.Exact || res.Width != 3 {
		t.Fatalf("ghw(K6) = %d exact=%v, want 3", res.Width, res.Exact)
	}
}

func TestGHWAcyclicHypergraph(t *testing.T) {
	// An acyclic hypergraph (a join tree exists) has ghw 1.
	h := hypergraph.FromEdges(7, [][]int{{0, 1, 2}, {2, 3, 4}, {4, 5, 6}})
	res := Search(context.Background(), search.GHW(h), search.Options{})
	if !res.Exact || res.Width != 1 {
		t.Fatalf("ghw(acyclic) = %d exact=%v, want 1", res.Width, res.Exact)
	}
}

func TestNodeBudgetReturnsBounds(t *testing.T) {
	g := randomGraph(30, 0.4, 3)
	res := Search(context.Background(), search.Treewidth(g), search.Options{MaxNodes: 50, Seed: 1})
	if res.Exact {
		t.Skip("instance solved within tiny budget; nothing to assert")
	}
	if res.LowerBound > res.Width {
		t.Fatalf("lower bound %d exceeds upper bound %d", res.LowerBound, res.Width)
	}
	if res.Width <= 0 {
		t.Fatalf("budgeted run returned no usable upper bound: %+v", res)
	}
	if got := order.NewTWEvaluator(g).Width(res.Ordering); got != res.Width {
		t.Fatalf("budgeted ordering width %d != reported %d", got, res.Width)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	res := Search(context.Background(), search.Treewidth(hypergraph.NewGraph(0)), search.Options{})
	if !res.Exact || res.Width != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
	res = Search(context.Background(), search.Treewidth(hypergraph.NewGraph(1)), search.Options{})
	if !res.Exact || res.Width != 0 {
		t.Fatalf("single vertex: %+v", res)
	}
	g := hypergraph.NewGraph(2)
	g.AddEdge(0, 1)
	res = Search(context.Background(), search.Treewidth(g), search.Options{})
	if !res.Exact || res.Width != 1 {
		t.Fatalf("single edge: %+v", res)
	}
}
