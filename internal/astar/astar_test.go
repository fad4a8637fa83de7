package astar

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/bb"
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

// Invariant 6: A*-tw agrees with BB-tw (which is brute-force-verified in
// the bb package) on random graphs.
func TestAStarTWAgreesWithBB(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := randomGraph(13, 0.3, seed)
		want := bb.Search(context.Background(), search.Treewidth(g), search.Options{Seed: seed})
		got := Search(context.Background(), search.Treewidth(g), search.Options{Seed: seed})
		if !got.Exact || !want.Exact {
			t.Fatalf("seed %d: not exact (astar=%v bb=%v)", seed, got.Exact, want.Exact)
		}
		if got.Width != want.Width {
			t.Fatalf("seed %d: A*-tw = %d, BB-tw = %d", seed, got.Width, want.Width)
		}
		if w := order.NewTWEvaluator(g).Width(got.Ordering); w != got.Width {
			t.Fatalf("seed %d: returned ordering width %d != %d", seed, w, got.Width)
		}
	}
}

func TestAStarGHWAgreesWithBB(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h := randomHypergraph(9, 7, 4, seed)
		want := bb.Search(context.Background(), search.GHW(h), search.Options{Seed: seed})
		got := Search(context.Background(), search.GHW(h), search.Options{Seed: seed})
		if !got.Exact || !want.Exact {
			t.Fatalf("seed %d: not exact (astar=%v bb=%v)", seed, got.Exact, want.Exact)
		}
		if got.Width != want.Width {
			t.Fatalf("seed %d: A*-ghw = %d, BB-ghw = %d", seed, got.Width, want.Width)
		}
		if w := order.GHWidth(h, got.Ordering, nil, true, nil); w != got.Width {
			t.Fatalf("seed %d: returned ordering ghw %d != %d", seed, w, got.Width)
		}
	}
}

func TestAStarAblationsAgree(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(12, 0.35, seed)
		want := Search(context.Background(), search.Treewidth(g), search.Options{Seed: seed}).Width
		for name, opt := range map[string]search.Options{
			"noPR2":       {DisablePR2: true, Seed: seed},
			"noReduction": {DisableReduction: true, Seed: seed},
			"noDominance": {DisableDominance: true, Seed: seed},
		} {
			res := Search(context.Background(), search.Treewidth(g), opt)
			if !res.Exact || res.Width != want {
				t.Fatalf("seed %d: %s gave %d (exact=%v), want %d", seed, name, res.Width, res.Exact, want)
			}
		}
	}
}

func TestAStarGrids(t *testing.T) {
	for n := 2; n <= 4; n++ {
		res := Search(context.Background(), search.Treewidth(grid(n)), search.Options{})
		if !res.Exact || res.Width != n {
			t.Fatalf("grid%d: %d exact=%v, want %d", n, res.Width, res.Exact, n)
		}
	}
}

// §5.3: under a budget, A* reports an anytime lower bound that never
// exceeds the true width.
func TestAStarAnytimeLowerBound(t *testing.T) {
	g := randomGraph(13, 0.35, 9)
	exact := Search(context.Background(), search.Treewidth(g), search.Options{Seed: 9})
	if !exact.Exact {
		t.Fatal("reference run did not finish")
	}
	budgeted := Search(context.Background(), search.Treewidth(g), search.Options{MaxNodes: 5, Seed: 9})
	if budgeted.Exact {
		t.Skip("solved within 5 nodes; nothing to assert")
	}
	if budgeted.LowerBound > exact.Width {
		t.Fatalf("anytime lower bound %d exceeds true width %d", budgeted.LowerBound, exact.Width)
	}
	if budgeted.Width < exact.Width {
		t.Fatalf("budgeted upper bound %d below true width %d", budgeted.Width, exact.Width)
	}
}

func TestAStarMemoryBudget(t *testing.T) {
	g := randomGraph(25, 0.4, 4)
	res := Search(context.Background(), search.Treewidth(g), search.Options{MaxMemoryStates: 64, Seed: 4})
	if res.Exact {
		t.Skip("solved within memory budget")
	}
	if res.LowerBound > res.Width || res.Width <= 0 {
		t.Fatalf("inconsistent bounds under memory budget: %+v", res)
	}
}

func TestAStarTrivialInputs(t *testing.T) {
	if res := Search(context.Background(), search.Treewidth(hypergraph.NewGraph(0)), search.Options{}); !res.Exact || res.Width != 0 {
		t.Fatalf("empty: %+v", res)
	}
	if res := Search(context.Background(), search.Treewidth(hypergraph.NewGraph(3)), search.Options{}); !res.Exact || res.Width != 0 {
		t.Fatalf("edgeless: %+v", res)
	}
	// Acyclic hypergraph: ghw 1 must be found immediately (lb = ub).
	h := hypergraph.FromEdges(5, [][]int{{0, 1, 2}, {2, 3, 4}})
	if res := Search(context.Background(), search.GHW(h), search.Options{}); !res.Exact || res.Width != 1 {
		t.Fatalf("acyclic ghw: %+v", res)
	}
}
