package search

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/elim"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
)

func pathGraph(n int) *hypergraph.Graph {
	g := hypergraph.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestPR2SwappableNonAdjacent(t *testing.T) {
	g := elim.New(pathGraph(4))
	if !PR2Swappable(g, 0, 2) {
		t.Fatal("non-adjacent vertices must be swappable")
	}
}

func TestPR2SwappableAdjacentWithPrivateNeighbors(t *testing.T) {
	// Path 0-1-2-3: 1 and 2 adjacent; 1 has private neighbour 0, 2 has
	// private neighbour 3 → swappable.
	g := elim.New(pathGraph(4))
	if !PR2Swappable(g, 1, 2) {
		t.Fatal("adjacent vertices with private neighbours must be swappable")
	}
	// Path endpoints: 0-1 adjacent, 0 has no private neighbour → not
	// swappable.
	if PR2Swappable(g, 0, 1) {
		t.Fatal("endpoint pair must not be swappable")
	}
}

// PR2 soundness: whenever PR2Swappable(v, w), eliminating v,w in either
// order yields the same width over random completions.
func TestPR2SwapPreservesWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(6)
		g := hypergraph.NewGraph(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(i, j)
				}
			}
		}
		e := elim.New(g)
		perm := rng.Perm(n)
		v, w := perm[0], perm[1]
		if !PR2Swappable(e, v, w) {
			continue
		}
		rest := perm[2:]
		width := func(order []int) int {
			c := elim.New(g)
			m := 0
			for _, x := range order {
				if d := c.Eliminate(x); d > m {
					m = d
				}
			}
			return m
		}
		o1 := append([]int{v, w}, rest...)
		o2 := append([]int{w, v}, rest...)
		if a, b := width(o1), width(o2); a != b {
			t.Fatalf("trial %d: PR2 claimed swappable but widths differ: %d vs %d", trial, a, b)
		}
	}
}

func TestModesOnPath(t *testing.T) {
	h := hypergraph.FromGraph(pathGraph(5))
	g := elim.New(h.PrimalGraph())

	tw := Treewidth(h.PrimalGraph()).Mode(context.Background(), nil, Options{})
	if c := tw.StepCost(g, 2); c != 2 {
		t.Fatalf("tw step cost of middle path vertex = %d, want 2", c)
	}
	if f := tw.FinishCost(g); f != 4 {
		t.Fatalf("tw finish cost = %d, want 4", f)
	}
	if lb := tw.ResidualLB(g); lb < 1 || lb > 1 {
		t.Fatalf("tw residual lb on path = %d, want 1", lb)
	}

	ghw := GHW(h).Mode(context.Background(), nil, Options{})
	if c := ghw.StepCost(g, 2); c != 2 {
		t.Fatalf("ghw step cost = %d, want 2 (two binary edges cover {1,2,3})", c)
	}
	if lb := ghw.RootLB(g); lb != 1 {
		t.Fatalf("ghw root lb on path = %d, want 1", lb)
	}
}

func TestOrderCostRestores(t *testing.T) {
	h := hypergraph.FromGraph(pathGraph(5))
	g := elim.New(h.PrimalGraph())
	mode := Treewidth(h.PrimalGraph()).Mode(context.Background(), nil, Options{})
	cost := OrderCost(g, mode, []int{0, 1, 2, 3, 4})
	if cost != 1 {
		t.Fatalf("path elimination cost = %d, want 1", cost)
	}
	if g.Remaining() != 5 || g.Depth() != 0 {
		t.Fatal("OrderCost did not restore the graph")
	}
}

// pr2SwappableRef is the private-neighbour scan PR2Swappable replaced.
func pr2SwappableRef(g *elim.Graph, v, w int) bool {
	nv, nw := g.Neighbors(v), g.Neighbors(w)
	if !nv.Contains(w) {
		return true
	}
	private := func(a, b *bitset.Set, other int) bool {
		found := false
		a.ForEach(func(x int) bool {
			found = x != other && !b.Contains(x)
			return !found
		})
		return found
	}
	return private(nv, nw, w) && private(nw, nv, v)
}

func TestPR2SwappableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(90)
		g := hypergraph.NewGraph(n)
		p := 0.05 + 0.6*rng.Float64()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					g.AddEdge(i, j)
				}
			}
		}
		e := elim.New(g)
		for _, v := range rng.Perm(n)[:rng.Intn(n)] {
			e.Eliminate(v)
		}
		e.ForEachRemaining(func(v int) {
			e.ForEachRemaining(func(w int) {
				if v == w {
					return
				}
				if got, want := PR2Swappable(e, v, w), pr2SwappableRef(e, v, w); got != want {
					t.Fatalf("trial %d: PR2Swappable(%d, %d) = %v, reference %v", trial, v, w, got, want)
				}
			})
		})
	}
}

// pr2PrunedRef is the per-vertex loop PR2Pruned replaced: it asks the
// swap test about every remaining w < v.
func pr2PrunedRef(g *elim.Graph, v int, swappable func(*elim.Graph, int, int) bool) *bitset.Set {
	pruned := bitset.New(g.NumVertices())
	g.ForEachRemaining(func(w int) {
		if w < v && swappable(g, v, w) {
			pruned.Add(w)
		}
	})
	return pruned
}

// PR2Pruned fills the reference's set for every remaining v, under the
// treewidth and the every-measure swap tests, on random graphs of up to
// three words with random eliminated prefixes. One set is reused
// throughout, so a stale element from an earlier call would show.
func TestPR2PrunedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pruned := bitset.New(0)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(170)
		g := hypergraph.NewGraph(n)
		p := 0.02 + 0.6*rng.Float64()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					g.AddEdge(i, j)
				}
			}
		}
		e := elim.New(g)
		for _, v := range rng.Perm(n)[:rng.Intn(n)] {
			e.Eliminate(v)
		}
		for _, sw := range []struct {
			name string
			test func(*elim.Graph, int, int) bool
		}{{"PR2Swappable", PR2Swappable}, {"NonAdjacentSwappable", NonAdjacentSwappable}} {
			e.ForEachRemaining(func(v int) {
				PR2Pruned(e, v, sw.test, pruned)
				if want := pr2PrunedRef(e, v, sw.test); !pruned.Equal(want) {
					t.Fatalf("trial %d, %s: PR2Pruned(%d) = %v, reference %v", trial, sw.name, v, pruned, want)
				}
			})
		}
	}
}

// PR2 into a caller's set and a dominance probe that hits allocate nothing
// after warm-up.
func TestPR2AndDominanceAllocateNothing(t *testing.T) {
	g := elim.New(gen.Queen(5))
	pruned := bitset.New(g.NumVertices())
	if allocs := testing.AllocsPerRun(20, func() {
		for v := 0; v < g.NumVertices(); v++ {
			PR2Pruned(g, v, PR2Swappable, pruned)
		}
	}); allocs != 0 {
		t.Errorf("PR2Pruned: %v allocations per run, want 0", allocs)
	}
	dom := NewDominance(false)
	g.Eliminate(3)
	g.Eliminate(11)
	if dom.Pruned(g, 5) {
		t.Fatal("first probe of a set pruned")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if !dom.Pruned(g, 5) {
			t.Fatal("repeat probe at the same cost not pruned")
		}
	}); allocs != 0 {
		t.Errorf("dominance hit: %v allocations per run, want 0", allocs)
	}
	if dom.Pruned(g, 4) || !dom.Pruned(g, 4) {
		t.Fatal("a cheaper probe must record its cost and then prune its repeat")
	}
}

// A warm treewidth child evaluation allocates nothing: PR2 into the
// kernel's set, the step cost, the elimination and its undo, the dominance
// probe of a set the cache holds, and — with the cache off, so that every
// child passes — minor-min-width on the kernel's workspace. The candidate
// rule into a caller's buffer allocates nothing either.
func TestKernelChildAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not gated under the race detector")
	}
	for _, dominance := range []bool{true, false} {
		k := NewKernel(context.Background(), Treewidth(gen.Queen(5)), rand.New(rand.NewSource(1)),
			Options{DisableDominance: !dominance})
		ub := k.G.NumVertices() + 1
		root := Node{}
		cands := k.Candidates(nil, &root)
		children := make([]int, 0, len(cands))
		passed := 0
		eval := func() {
			passed = 0
			for _, v := range cands {
				c, ok := k.Child(v, root, ub)
				if !ok {
					continue
				}
				passed++
				children = k.Candidates(children[:0], &c)
				k.G.Restore()
			}
		}
		eval() // fills the dominance cache and the workspaces
		if !dominance && passed != len(cands) {
			t.Fatalf("%d of %d children passed below ub %d", passed, len(cands), ub)
		}
		if allocs := testing.AllocsPerRun(20, eval); allocs != 0 {
			t.Errorf("dominance=%v: %v allocations per run, want 0", dominance, allocs)
		}
		if dominance && passed != 0 {
			t.Errorf("%d repeated children passed a dominance cache that holds their sets", passed)
		}
	}
}
