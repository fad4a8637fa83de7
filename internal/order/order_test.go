package order

import (
	"math/rand"
	"testing"

	"hypertree/internal/hypergraph"
)

// fig211 is the hypergraph of thesis Fig. 2.11: hyperedges
// h1={x1,x2,x3}, h2={x1,x4,x5}, h3={x2,x4,x6}, h4={x3,x5,x6}.
// (Vertices named x1..x6, indices 0..5.)
func fig211() *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	b.AddEdge("h1", "x1", "x2", "x3")
	b.AddEdge("h2", "x1", "x4", "x5")
	b.AddEdge("h3", "x2", "x4", "x6")
	b.AddEdge("h4", "x3", "x5", "x6")
	return b.Build()
}

// example5 is the constraint hypergraph of thesis Example 5.
func example5() *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	b.AddEdge("C1", "x1", "x2", "x3")
	b.AddEdge("C2", "x1", "x5", "x6")
	b.AddEdge("C3", "x3", "x4", "x5")
	return b.Build()
}

func randomHypergraph(n, m, maxArity int, seed int64) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][]int, 0, m+n)
	for e := 0; e < m; e++ {
		sz := 2 + rng.Intn(maxArity-1)
		perm := rng.Perm(n)
		edges = append(edges, perm[:sz])
	}
	// Guarantee every vertex is covered (CSP hypergraphs cover all vars).
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

func TestOrderingValidate(t *testing.T) {
	if err := (Ordering{0, 1, 2}).Validate(3); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Ordering{{0, 1}, {0, 1, 1}, {0, 1, 3}, {-1, 1, 2}} {
		if err := bad.Validate(3); err == nil {
			t.Fatalf("Validate(%v) passed, want error", bad)
		}
	}
}

func TestPositionsInverse(t *testing.T) {
	o := Ordering{2, 0, 3, 1}
	pos := o.Positions()
	for i, v := range o {
		if pos[v] != i {
			t.Fatalf("pos[%d] = %d, want %d", v, pos[v], i)
		}
	}
}

func TestVertexEliminationValidTD(t *testing.T) {
	h := example5()
	for seed := int64(0); seed < 10; seed++ {
		o := Random(h.NumVertices(), rand.New(rand.NewSource(seed)))
		d := VertexElimination(h, o)
		if err := d.ValidateTD(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, d)
		}
	}
}

// Property/invariant 1: bucket elimination and vertex elimination produce
// identical χ labels for the same ordering.
func TestBucketEqualsVertexElimination(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		h := randomHypergraph(12, 8, 4, seed)
		o := Random(h.NumVertices(), rand.New(rand.NewSource(seed+99)))
		dv := VertexElimination(h, o)
		db := BucketElimination(h, o)
		if err := db.ValidateTD(); err != nil {
			t.Fatalf("seed %d: bucket TD invalid: %v", seed, err)
		}
		// Same number of buckets, and for each vertex the bucket labels
		// must agree. Both create one node per vertex in reverse
		// elimination order, so node order matches.
		if dv.NumNodes() != db.NumNodes() {
			t.Fatalf("seed %d: node counts differ", seed)
		}
		for i, nv := range dv.Nodes() {
			nb := db.Nodes()[i]
			if !nv.Chi.Equal(nb.Chi) {
				t.Fatalf("seed %d: χ mismatch at node %d: %v vs %v", seed, i, nv.Chi, nb.Chi)
			}
		}
	}
}

// The width of the induced TD must match the Evaluator's fast width.
func TestEvaluatorMatchesDecompositionWidth(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		h := randomHypergraph(14, 10, 4, seed)
		ev := NewTWEvaluator(h.PrimalGraph())
		o := Random(h.NumVertices(), rand.New(rand.NewSource(seed+7)))
		d := VertexElimination(h, o)
		if got, want := ev.Width(o), d.Width(); got != want {
			t.Fatalf("seed %d: evaluator width %d != decomposition width %d", seed, got, want)
		}
	}
}

// GHW evaluator (exact) must match covering the actual decomposition with
// exact set cover.
func TestGHWEvaluatorMatchesGHD(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		h := randomHypergraph(10, 7, 4, seed)
		o := Random(h.NumVertices(), rand.New(rand.NewSource(seed+3)))
		d := GHD(h, o, nil, true, nil)
		if err := d.ValidateGHD(); err != nil {
			t.Fatalf("seed %d: GHD invalid: %v", seed, err)
		}
		got := GHWidth(h, o, nil, true, nil)
		if want := d.GHWidth(); got != want {
			t.Fatalf("seed %d: evaluator ghw %d != GHD width %d", seed, got, want)
		}
	}
}

// Greedy cover width must never beat the exact cover width.
func TestGreedyGHWAtLeastExact(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		h := randomHypergraph(12, 9, 5, seed)
		o := Random(h.NumVertices(), rand.New(rand.NewSource(seed)))
		exact := GHWidth(h, o, nil, true, nil)
		greedy := GHWidth(h, o, rand.New(rand.NewSource(seed)), false, nil)
		if greedy < exact {
			t.Fatalf("seed %d: greedy ghw %d < exact %d", seed, greedy, exact)
		}
	}
}

// A Fig.-2.11-style walkthrough: eliminate σ = (x6,x5,x4,x3,x2,x1) — in the
// thesis's notation x6 is eliminated FIRST, so our ordering lists
// x6,x5,x4,x3,x2,x1 left to right. For this balanced 4-edge hypergraph,
// eliminating x6 first merges its four neighbours into one clique, giving
// TD width 4; the exact-cover GHD needs at most ⌈5/3⌉+1 = 3 edges per χ.
func TestFig211StyleWalkthrough(t *testing.T) {
	h := fig211()
	idx := func(name string) int {
		i := h.VertexIndex(name)
		if i < 0 {
			t.Fatalf("vertex %s missing", name)
		}
		return i
	}
	o := Ordering{idx("x6"), idx("x5"), idx("x4"), idx("x3"), idx("x2"), idx("x1")}
	d := VertexElimination(h, o)
	if err := d.ValidateTD(); err != nil {
		t.Fatal(err)
	}
	if got := d.Width(); got != 4 {
		t.Fatalf("TD width = %d, want 4 (x6's neighbourhood is all other 4 vertices)", got)
	}
	g := GHD(h, o, nil, true, nil)
	if err := g.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
	// χ of the first bucket is all 6 vertices minus nothing visible to it:
	// {x6,x2,x3,x4,x5}; two 3-edges can cover it (e.g. h3 ∪ h4).
	if got := g.GHWidth(); got != 2 {
		t.Fatalf("GHD width = %d, want 2", got)
	}
}

// Example 5 has a tree decomposition of width 2 and a GHD of width 2.
func TestExample5Widths(t *testing.T) {
	h := example5()
	n := h.NumVertices()
	ev := NewTWEvaluator(h.PrimalGraph())
	best := n
	// Exhaustive over all 720 orderings: the optimum must be 2.
	perm := Identity(n)
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
	if best != 2 {
		t.Fatalf("treewidth of example 5 = %d, want 2", best)
	}
}

func TestCompleteGHD(t *testing.T) {
	h := example5()
	o := Identity(h.NumVertices())
	d := GHD(h, o, nil, true, nil)
	w := d.GHWidth()
	d.Complete()
	if !d.IsComplete() {
		t.Fatal("Complete() did not produce a complete GHD")
	}
	if err := d.ValidateGHD(); err != nil {
		t.Fatalf("completed GHD invalid: %v", err)
	}
	if d.GHWidth() > w {
		t.Fatalf("completion increased width: %d > %d", d.GHWidth(), w)
	}
}

func TestSingleVertexAndDisconnected(t *testing.T) {
	// Hypergraph with two disconnected components and an isolated-ish vertex.
	h := hypergraph.FromEdges(5, [][]int{{0, 1}, {2, 3}, {4}})
	o := Identity(5)
	d := VertexElimination(h, o)
	if err := d.ValidateTD(); err != nil {
		t.Fatalf("disconnected TD invalid: %v", err)
	}
	db := BucketElimination(h, o)
	if err := db.ValidateTD(); err != nil {
		t.Fatalf("disconnected bucket TD invalid: %v", err)
	}
}
