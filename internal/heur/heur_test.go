package heur

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/elim"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
)

func clique(n int) *hypergraph.Graph {
	g := hypergraph.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func cycle(n int) *hypergraph.Graph {
	g := hypergraph.NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
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

// bruteTW computes exact treewidth by exhaustive elimination orderings with
// memoised best width per remaining-set (Held-Karp style). n ≤ ~14.
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

func TestMinFillOnClique(t *testing.T) {
	g := elim.New(clique(5))
	o, w := MinFill(g, nil)
	if len(o) != 5 {
		t.Fatalf("ordering length %d", len(o))
	}
	if w != 4 {
		t.Fatalf("min-fill width on K5 = %d, want 4", w)
	}
	if g.Remaining() != 5 {
		t.Fatal("MinFill mutated its argument")
	}
}

func TestUpperBoundsAreValidWidths(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(12, 0.3, seed)
		exact := bruteTW(g)
		e := elim.New(g)
		for name, f := range map[string]func(*elim.Graph, *rand.Rand) ([]int, int){
			"minfill": MinFill, "mindeg": MinDegree, "mcs": MaxCardinality,
		} {
			o, w := f(e, rand.New(rand.NewSource(seed)))
			if len(o) != 12 {
				t.Fatalf("%s: ordering length %d", name, len(o))
			}
			// Re-evaluate width independently.
			c := e.Clone()
			got := 0
			for _, v := range o {
				if d := c.Eliminate(v); d > got {
					got = d
				}
			}
			if got != w {
				t.Fatalf("%s: reported width %d != evaluated %d", name, w, got)
			}
			if w < exact {
				t.Fatalf("%s: upper bound %d below exact treewidth %d", name, w, exact)
			}
		}
	}
}

func TestLowerBoundsNeverExceedExact(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := randomGraph(11, 0.35, seed)
		exact := bruteTW(g)
		e := elim.New(g)
		for name, lb := range map[string]int{
			"mmw":        MinorMinWidth(e, rand.New(rand.NewSource(seed))),
			"gammaR":     MinorGammaR(e, rand.New(rand.NewSource(seed))),
			"degeneracy": Degeneracy(e),
			"combined":   LowerBound(e, rand.New(rand.NewSource(seed))),
		} {
			if lb > exact {
				t.Fatalf("seed %d: %s lower bound %d exceeds exact treewidth %d", seed, name, lb, exact)
			}
		}
	}
}

func TestLowerBoundExactOnKnownGraphs(t *testing.T) {
	// K6: tw = 5; MMW reaches it.
	if lb := MinorMinWidth(elim.New(clique(6)), nil); lb != 5 {
		t.Fatalf("MMW on K6 = %d, want 5", lb)
	}
	// Cycle: tw = 2; MMW gives 2.
	if lb := MinorMinWidth(elim.New(cycle(8)), nil); lb != 2 {
		t.Fatalf("MMW on C8 = %d, want 2", lb)
	}
	// γ_R on a complete graph must be n−1.
	if lb := MinorGammaR(elim.New(clique(5)), nil); lb != 4 {
		t.Fatalf("γ_R on K5 = %d, want 4", lb)
	}
	// Degeneracy of a tree is 1.
	tree := hypergraph.NewGraph(7)
	for i := 1; i < 7; i++ {
		tree.AddEdge(i, (i-1)/2)
	}
	if lb := Degeneracy(elim.New(tree)); lb != 1 {
		t.Fatalf("degeneracy of tree = %d, want 1", lb)
	}
}

func TestGridBounds(t *testing.T) {
	// tw(5×5 grid) = 5.
	g := elim.New(grid(5))
	_, ub := MinFill(g, nil)
	lb := LowerBound(g, rand.New(rand.NewSource(1)))
	if lb > 5 {
		t.Fatalf("grid5 lower bound %d > 5", lb)
	}
	if ub < 5 {
		t.Fatalf("grid5 upper bound %d < 5", ub)
	}
	if lb < 3 {
		t.Fatalf("grid5 lower bound %d implausibly weak", lb)
	}
	if ub > 8 {
		t.Fatalf("grid5 min-fill upper bound %d implausibly weak", ub)
	}
}

func TestHeuristicsOnResidualGraph(t *testing.T) {
	// Bounds must work on partially eliminated graphs.
	g := elim.New(grid(4))
	g.Eliminate(0)
	g.Eliminate(5)
	o, _ := MinFill(g, nil)
	if len(o) != 14 {
		t.Fatalf("residual ordering length %d, want 14", len(o))
	}
	if lb := LowerBound(g, nil); lb < 1 {
		t.Fatalf("residual lower bound %d", lb)
	}
	if g.Remaining() != 14 {
		t.Fatal("heuristics mutated the residual graph")
	}
}

func TestIsolatedVerticesHandled(t *testing.T) {
	g := hypergraph.NewGraph(4) // no edges at all
	e := elim.New(g)
	if lb := MinorMinWidth(e, nil); lb != 0 {
		t.Fatalf("MMW on edgeless = %d, want 0", lb)
	}
	if lb := MinorGammaR(e, nil); lb != 0 {
		t.Fatalf("γ_R on edgeless = %d, want 0", lb)
	}
	o, w := MinFill(e, nil)
	if len(o) != 4 || w != 0 {
		t.Fatalf("min-fill on edgeless: %v width %d", o, w)
	}
}

// The clone-based contraction bounds that Minor replaced, kept as
// references: they contract on a clone of the elimination graph and read
// degrees from its adjacency sets.

func minorMinWidthRef(g *elim.Graph, rng *rand.Rand) int {
	c := g.Clone()
	lb := 0
	var ties []int
	for c.Remaining() > 0 {
		best := int(^uint(0) >> 1)
		ties = ties[:0]
		c.ForEachRemaining(func(v int) {
			d := c.Degree(v)
			switch {
			case d < best:
				best = d
				ties = ties[:0]
				ties = append(ties, v)
			case d == best:
				ties = append(ties, v)
			}
		})
		v := pick(ties, rng)
		if d := c.Degree(v); d > lb {
			lb = d
		}
		if c.Degree(v) == 0 {
			c.Remove(v)
			continue
		}
		c.Contract(v, leastDegreeNeighborRef(c, v, rng))
	}
	return lb
}

func minorGammaRRef(g *elim.Graph, rng *rand.Rand) int {
	c := g.Clone()
	lb := 0
	for c.Remaining() > 1 {
		vs := c.RemainingVertices()
		for i := 1; i < len(vs); i++ { // insertion sort by (degree, index)
			v, d, j := vs[i], c.Degree(vs[i]), i-1
			for j >= 0 && (c.Degree(vs[j]) > d || (c.Degree(vs[j]) == d && vs[j] > v)) {
				vs[j+1] = vs[j]
				j--
			}
			vs[j+1] = v
		}
		v := -1
		for i := 1; i < len(vs) && v < 0; i++ {
			for j := 0; j < i; j++ {
				if !c.Neighbors(vs[i]).Contains(vs[j]) {
					v = vs[i]
					break
				}
			}
		}
		if v < 0 {
			if g := c.Remaining() - 1; g > lb {
				lb = g
			}
			break
		}
		if d := c.Degree(v); d > lb {
			lb = d
		}
		if c.Degree(v) == 0 {
			c.Remove(v)
			continue
		}
		c.Contract(v, leastDegreeNeighborRef(c, v, rng))
	}
	return lb
}

func leastDegreeNeighborRef(c *elim.Graph, v int, rng *rand.Rand) int {
	best := int(^uint(0) >> 1)
	var ties []int
	c.Neighbors(v).ForEach(func(u int) bool {
		d := c.Degree(u)
		switch {
		case d < best:
			best = d
			ties = ties[:0]
			ties = append(ties, u)
		case d == best:
			ties = append(ties, u)
		}
		return true
	})
	return pick(ties, rng)
}

// One kept Minor agrees with the clone-based references on seeded random
// graphs with random eliminated prefixes, and leaves equally seeded
// generators in the same state.
func TestMinorMatchesCloneReference(t *testing.T) {
	ctx := context.Background()
	m := NewMinor(100)
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(98)
		g := elim.New(randomGraph(n, 0.03+0.6*rng.Float64(), seed))
		for _, v := range rng.Perm(n)[:rng.Intn(n)] {
			g.Eliminate(v)
		}
		for _, k := range []struct {
			name      string
			got, want func(*rand.Rand) int
		}{
			{"minor-min-width", func(r *rand.Rand) int { return m.MinorMinWidth(ctx, g, r) }, func(r *rand.Rand) int { return minorMinWidthRef(g, r) }},
			{"minor-γ_R", func(r *rand.Rand) int { return m.MinorGammaR(ctx, g, r) }, func(r *rand.Rand) int { return minorGammaRRef(g, r) }},
		} {
			if got, want := k.got(nil), k.want(nil); got != want {
				t.Fatalf("seed %d: %s without rng = %d, reference %d", seed, k.name, got, want)
			}
			r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			if got, want := k.got(r1), k.want(r2); got != want {
				t.Fatalf("seed %d: %s = %d, reference %d", seed, k.name, got, want)
			}
			if a, b := r1.Int63(), r2.Int63(); a != b {
				t.Fatalf("seed %d: %s left the rng at %d, reference at %d", seed, k.name, a, b)
			}
		}
	}
}

// Minor-min-width on a kept Minor allocates nothing after warm-up.
func TestMinorMinWidthAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	g := elim.New(gen.Queen(5))
	g.Eliminate(7)
	m := NewMinor(g.NumVertices())
	rng := rand.New(rand.NewSource(1))
	if allocs := testing.AllocsPerRun(20, func() { m.MinorMinWidth(ctx, g, rng) }); allocs != 0 {
		t.Fatalf("%v allocations per run, want 0", allocs)
	}
}
