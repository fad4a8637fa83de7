package elim

import (
	"math/rand"
	"reflect"
	"testing"

	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
)

// path returns the path graph 0-1-2-…-(n-1).
func path(n int) *hypergraph.Graph {
	g := hypergraph.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// cycle returns the cycle graph on n vertices.
func cycle(n int) *hypergraph.Graph {
	g := path(n)
	g.AddEdge(0, n-1)
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

func TestEliminateFillsNeighbors(t *testing.T) {
	// Star: center 0 with leaves 1,2,3. Eliminating 0 makes {1,2,3} a clique.
	g := hypergraph.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	e := New(g)
	if got := e.FillCount(0); got != 3 {
		t.Fatalf("FillCount(0) = %d, want 3", got)
	}
	deg := e.Eliminate(0)
	if deg != 3 {
		t.Fatalf("Eliminate(0) degree = %d, want 3", deg)
	}
	for _, pair := range [][2]int{{1, 2}, {1, 3}, {2, 3}} {
		if !e.Neighbors(pair[0]).Contains(pair[1]) {
			t.Fatalf("fill edge %v missing", pair)
		}
	}
	if e.Remaining() != 3 || !e.Eliminated(0) {
		t.Fatal("bookkeeping wrong after eliminate")
	}
}

func TestRestoreIsExactInverse(t *testing.T) {
	g := randomGraph(24, 0.3, 1)
	e := New(g)
	orig := e.Snapshot()
	rng := rand.New(rand.NewSource(2))

	// Eliminate a random prefix, then restore everything.
	perm := rng.Perm(24)
	for _, v := range perm[:17] {
		e.Eliminate(v)
	}
	for e.Depth() > 0 {
		e.Restore()
	}
	after := e.Snapshot()
	if !reflect.DeepEqual(orig.Edges(), after.Edges()) {
		t.Fatal("restore-all did not recover original graph")
	}
	if e.Remaining() != 24 {
		t.Fatalf("Remaining = %d, want 24", e.Remaining())
	}
}

func TestRestoreToPartialDepth(t *testing.T) {
	g := randomGraph(16, 0.4, 3)
	e := New(g)
	e.Eliminate(3)
	e.Eliminate(7)
	want := e.Snapshot()
	e.Eliminate(1)
	e.Eliminate(9)
	e.RestoreTo(2)
	if got := e.Snapshot(); !reflect.DeepEqual(want.Edges(), got.Edges()) {
		t.Fatal("RestoreTo(2) did not recover depth-2 graph")
	}
	if e.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", e.Depth())
	}
}

// Property: random interleavings of eliminate/restore always return to the
// original graph when fully unwound, and at every step the simplicial tests
// agree with their pairwise references.
func TestQuickEliminateRestoreInterleaved(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := randomGraph(14, 0.35, seed)
		e := New(g)
		orig := e.Snapshot()
		rng := rand.New(rand.NewSource(seed + 100))
		for step := 0; step < 60; step++ {
			checkKernels(t, e)
			if e.Depth() > 0 && (rng.Intn(3) == 0 || e.Remaining() == 0) {
				e.Restore()
				continue
			}
			rem := e.RemainingVertices()
			if len(rem) == 0 {
				continue
			}
			e.Eliminate(rem[rng.Intn(len(rem))])
		}
		e.RestoreTo(0)
		if !reflect.DeepEqual(orig.Edges(), e.Snapshot().Edges()) {
			t.Fatalf("seed %d: interleaved eliminate/restore corrupted graph", seed)
		}
	}
}

// The pairwise kernels the word-level ones replaced, kept as references.

func fillCountRef(g *Graph, v int) int {
	nb := g.Neighbors(v).Slice()
	missing := 0
	for i := 0; i < len(nb); i++ {
		for j := i + 1; j < len(nb); j++ {
			if !g.Neighbors(nb[i]).Contains(nb[j]) {
				missing++
			}
		}
	}
	return missing
}

func isSimplicialRef(g *Graph, v int) bool { return fillCountRef(g, v) == 0 }

// isAlmostSimplicialRef counts, for each neighbour, the other neighbours it
// is not adjacent to; an odd neighbour is an endpoint of every missing
// pair. It returns the lowest-indexed one.
func isAlmostSimplicialRef(g *Graph, v int) (bool, int) {
	nb := g.Neighbors(v).Slice()
	if len(nb) < 2 {
		return false, -1
	}
	nonAdj := make(map[int]int)
	missing := 0
	for i := 0; i < len(nb); i++ {
		for j := i + 1; j < len(nb); j++ {
			if !g.Neighbors(nb[i]).Contains(nb[j]) {
				nonAdj[nb[i]]++
				nonAdj[nb[j]]++
				missing++
			}
		}
	}
	if missing == 0 {
		return false, -1
	}
	for _, u := range nb {
		if nonAdj[u] == missing {
			return true, u
		}
	}
	return false, -1
}

// checkKernels compares the word-level kernels with the references on
// every remaining vertex of e.
func checkKernels(t *testing.T, e *Graph) {
	t.Helper()
	e.ForEachRemaining(func(v int) {
		if got, want := e.FillCount(v), fillCountRef(e, v); got != want {
			t.Fatalf("depth %d: FillCount(%d) = %d, want %d", e.Depth(), v, got, want)
		}
		if got, want := e.IsSimplicial(v), isSimplicialRef(e, v); got != want {
			t.Fatalf("depth %d: IsSimplicial(%d) = %v, want %v", e.Depth(), v, got, want)
		}
		ok, odd := e.IsAlmostSimplicial(v)
		wantOK, wantOdd := isAlmostSimplicialRef(e, v)
		if ok != wantOK || odd != wantOdd {
			t.Fatalf("depth %d: IsAlmostSimplicial(%d) = %v,%d, want %v,%d", e.Depth(), v, ok, odd, wantOK, wantOdd)
		}
	})
}

// The kernels agree with the references on seeded random graphs, some
// wider than one bitset word, each with a random eliminated prefix.
func TestKernelsMatchPairwiseReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(90)
		e := New(randomGraph(n, 0.05+0.5*rng.Float64(), seed))
		for _, v := range rng.Perm(n)[:rng.Intn(n)] {
			e.Eliminate(v)
		}
		checkKernels(t, e)
	}
}

// On the path 1–0–2 both leaves are odd neighbours of 0; the lower-indexed
// one is returned every time.
func TestAlmostSimplicialLowestOddNeighbor(t *testing.T) {
	g := hypergraph.NewGraph(3)
	g.AddEdge(1, 0)
	g.AddEdge(0, 2)
	e := New(g)
	for i := 0; i < 200; i++ {
		if ok, odd := e.IsAlmostSimplicial(0); !ok || odd != 1 {
			t.Fatalf("call %d: IsAlmostSimplicial(0) = %v,%d, want true,1", i, ok, odd)
		}
	}
}

// After warm-up an Eliminate/Restore round trip and the simplicial tests
// allocate nothing.
func TestKernelsAllocateNothing(t *testing.T) {
	e := New(gen.Queen(5))
	n := e.NumVertices()
	gates := map[string]func(){
		"Eliminate/Restore": func() {
			for v := 0; v < n; v++ {
				e.Eliminate(v)
			}
			e.RestoreTo(0)
		},
		"IsSimplicial": func() {
			for v := 0; v < n; v++ {
				e.IsSimplicial(v)
			}
		},
		"IsAlmostSimplicial": func() {
			for v := 0; v < n; v++ {
				e.IsAlmostSimplicial(v)
			}
		},
		"FillCount": func() {
			for v := 0; v < n; v++ {
				e.FillCount(v)
			}
		},
	}
	for name, fn := range gates {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, allocs)
		}
	}
}

func TestSimplicial(t *testing.T) {
	// In a path, endpoints are simplicial; middle vertices are not (their
	// two neighbours are non-adjacent)…
	e := New(path(4))
	if !e.IsSimplicial(0) || !e.IsSimplicial(3) {
		t.Fatal("path endpoints must be simplicial")
	}
	if e.IsSimplicial(1) {
		t.Fatal("path middle vertex must not be simplicial")
	}
	// …but middle vertices are almost simplicial.
	ok, _ := e.IsAlmostSimplicial(1)
	if !ok {
		t.Fatal("path middle vertex must be almost simplicial")
	}
	// A simplicial vertex is not reported as almost simplicial.
	if got, _ := e.IsAlmostSimplicial(0); got {
		t.Fatal("simplicial vertex reported as almost simplicial")
	}
}

func TestAlmostSimplicialOddNeighbor(t *testing.T) {
	// K4 minus one edge plus a pendant: v=0 adjacent to clique {1,2} and to
	// odd vertex 3 which is non-adjacent to 1 and 2.
	g := hypergraph.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 2)
	e := New(g)
	ok, odd := e.IsAlmostSimplicial(0)
	if !ok || odd != 3 {
		t.Fatalf("IsAlmostSimplicial(0) = %v,%d, want true,3", ok, odd)
	}
}

func TestContract(t *testing.T) {
	// Contracting one edge of a C4 yields a triangle.
	e := New(cycle(4))
	e.Contract(0, 1)
	if e.Remaining() != 3 {
		t.Fatalf("Remaining = %d, want 3", e.Remaining())
	}
	// 0 must now be adjacent to 2 (v=1's neighbour) and 3.
	if !e.Neighbors(0).Contains(2) || !e.Neighbors(0).Contains(3) {
		t.Fatal("contract did not merge neighbourhoods")
	}
	if !e.Neighbors(2).Contains(3) {
		// C4 edge 2-3 still present
		t.Fatal("contract destroyed unrelated edge")
	}
	if e.Neighbors(2).Contains(1) || e.Neighbors(3).Contains(1) {
		t.Fatal("contracted vertex still visible")
	}
}

func TestRemove(t *testing.T) {
	e := New(cycle(4))
	e.Remove(0)
	if e.Remaining() != 3 {
		t.Fatal("Remove must decrement remaining")
	}
	if e.Neighbors(1).Contains(0) || e.Neighbors(3).Contains(0) {
		t.Fatal("Remove left dangling adjacency")
	}
	if e.Neighbors(1).Contains(3) {
		t.Fatal("Remove must not add fill edges")
	}
}

func TestCloneIndependence(t *testing.T) {
	e := New(cycle(5))
	c := e.Clone()
	c.Eliminate(0)
	if e.Eliminated(0) || e.Remaining() != 5 {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestMinDegreeVertex(t *testing.T) {
	g := hypergraph.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	e := New(g)
	if got := e.MinDegreeVertex(); got != 1 {
		t.Fatalf("MinDegreeVertex = %d, want 1", got)
	}
	e.Eliminate(1)
	e.Eliminate(2)
	e.Eliminate(3)
	e.Eliminate(0)
	if got := e.MinDegreeVertex(); got != -1 {
		t.Fatalf("MinDegreeVertex on empty = %d, want -1", got)
	}
}

func TestCliqueLabel(t *testing.T) {
	e := New(path(3))
	c := e.Clique(1)
	if c.Len() != 3 || !c.Contains(0) || !c.Contains(1) || !c.Contains(2) {
		t.Fatalf("Clique(1) = %v", c)
	}
}

func TestEliminatePanicsOnDouble(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double eliminate")
		}
	}()
	e := New(path(3))
	e.Eliminate(0)
	e.Eliminate(0)
}
