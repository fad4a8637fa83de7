package gen

import (
	"context"
	"testing"

	"hypertree/internal/bb"
	"hypertree/internal/search"
)

func TestQueenShape(t *testing.T) {
	// DIMACS queen5_5: 25 vertices, 320 edges... the published file counts
	// 320 directed entries; the simple graph has 160 edges.
	g := Queen(5)
	if g.NumVertices() != 25 {
		t.Fatalf("queen5 vertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 160 {
		t.Fatalf("queen5 edges = %d, want 160", g.NumEdges())
	}
	// Degree of a corner: 4 row + 4 col + 4 diagonal = 12.
	if d := g.Degree(0); d != 12 {
		t.Fatalf("queen5 corner degree = %d, want 12", d)
	}
	// Exact treewidth of queen5_5 is 18 (thesis Table 5.1).
	res := bb.Search(context.Background(), search.Treewidth(g), search.Options{})
	if !res.Exact || res.Width != 18 {
		t.Fatalf("tw(queen5_5) = %d exact=%v, want 18", res.Width, res.Exact)
	}
}

func TestMycielskiShape(t *testing.T) {
	// DIMACS sizes: myciel3: 11 vertices 20 edges; myciel4: 23/71;
	// myciel5: 47/236; myciel6: 95/755; myciel7: 191/2360.
	cases := []struct{ k, v, e int }{
		{3, 11, 20}, {4, 23, 71}, {5, 47, 236}, {6, 95, 755}, {7, 191, 2360},
	}
	for _, c := range cases {
		g := Mycielski(c.k)
		if g.NumVertices() != c.v || g.NumEdges() != c.e {
			t.Fatalf("myciel%d = %d/%d vertices/edges, want %d/%d",
				c.k, g.NumVertices(), g.NumEdges(), c.v, c.e)
		}
	}
	// Exact treewidth of myciel3 is 5, myciel4 is 10 (thesis Table 5.1).
	if res := bb.Search(context.Background(), search.Treewidth(Mycielski(3)), search.Options{}); !res.Exact || res.Width != 5 {
		t.Fatalf("tw(myciel3) = %d, want 5", res.Width)
	}
	if res := bb.Search(context.Background(), search.Treewidth(Mycielski(4)), search.Options{}); !res.Exact || res.Width != 10 {
		t.Fatalf("tw(myciel4) = %d, want 10", res.Width)
	}
}

func TestGridTreewidth(t *testing.T) {
	// Thesis Table 5.2: tw(n×n grid) = n.
	for n := 2; n <= 5; n++ {
		res := bb.Search(context.Background(), search.Treewidth(Grid2D(n, n)), search.Options{})
		if !res.Exact || res.Width != n {
			t.Fatalf("tw(grid%d) = %d exact=%v, want %d", n, res.Width, res.Exact, n)
		}
	}
}

func TestGrid3DShape(t *testing.T) {
	g := Grid3D(3, 3, 3)
	if g.NumVertices() != 27 {
		t.Fatalf("grid3d vertices = %d", g.NumVertices())
	}
	// Interior vertex has degree 6.
	if d := g.Degree((1*3+1)*3 + 1); d != 6 {
		t.Fatalf("grid3d center degree = %d, want 6", d)
	}
}

func TestCliqueAndCycle(t *testing.T) {
	if g := Clique(6); g.NumEdges() != 15 {
		t.Fatalf("K6 edges = %d", g.NumEdges())
	}
	if g := Cycle(7); g.NumEdges() != 7 || g.Degree(0) != 2 {
		t.Fatal("C7 malformed")
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(40, 0.3, 7)
	b := ErdosRenyi(40, 0.3, 7)
	c := ErdosRenyi(40, 0.3, 8)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	if a.NumEdges() == c.NumEdges() {
		t.Log("different seeds coincidentally same edge count (acceptable)")
	}
	// Expected edges ≈ 0.3 × C(40,2) = 234; allow wide tolerance.
	if a.NumEdges() < 150 || a.NumEdges() > 320 {
		t.Fatalf("G(40,0.3) edge count %d implausible", a.NumEdges())
	}
}

func TestRandomGeometricAndKPartite(t *testing.T) {
	g := RandomGeometric(50, 0.3, 3)
	if g.NumVertices() != 50 || g.NumEdges() == 0 {
		t.Fatal("geometric graph malformed")
	}
	k := KPartite(60, 5, 0.2, 3)
	// No intra-class edge: vertices i, i+5 share a class.
	for i := 0; i+5 < 60; i += 5 {
		if k.HasEdge(i, i+5) {
			t.Fatal("KPartite created intra-class edge")
		}
	}
}

func TestAdderGHW(t *testing.T) {
	h := Adder(4)
	// 4 bits: a,b,s,t1,t2,t3 per bit (24) + carries c0..c4 (5) = 29
	// vertices, 5 gates per bit = 20 hyperedges.
	if h.NumVertices() != 29 || h.NumEdges() != 20 {
		t.Fatalf("adder4 shape %d/%d, want 29/20", h.NumVertices(), h.NumEdges())
	}
	res := bb.Search(context.Background(), search.GHW(h), search.Options{})
	if !res.Exact || res.Width != 2 {
		t.Fatalf("ghw(adder4) = %d exact=%v, want 2", res.Width, res.Exact)
	}
}

func TestBridgeGHWSmall(t *testing.T) {
	// The Wheatstone ladder is cyclic: ghw exactly 2, independent of length.
	for _, panels := range []int{4, 8} {
		h := Bridge(panels)
		res := bb.Search(context.Background(), search.GHW(h), search.Options{})
		if !res.Exact || res.Width != 2 {
			t.Fatalf("ghw(bridge%d) = %d exact=%v, want 2", panels, res.Width, res.Exact)
		}
	}
}

func TestCliqueHypergraphGHW(t *testing.T) {
	// ghw(K_2k as binary edges) = k.
	for _, n := range []int{4, 6, 8} {
		h := CliqueHypergraph(n)
		res := bb.Search(context.Background(), search.GHW(h), search.Options{})
		if !res.Exact || res.Width != n/2 {
			t.Fatalf("ghw(K%d) = %d exact=%v, want %d", n, res.Width, res.Exact, n/2)
		}
	}
}

func TestChainAcyclic(t *testing.T) {
	h := Chain(5, 4, 2)
	res := bb.Search(context.Background(), search.GHW(h), search.Options{})
	if !res.Exact || res.Width != 1 {
		t.Fatalf("ghw(chain) = %d, want 1", res.Width)
	}
}

func TestCircuitShape(t *testing.T) {
	h := Circuit(8, 40, 4, 5)
	if h.NumVertices() != 48 {
		t.Fatalf("circuit vertices = %d, want 48", h.NumVertices())
	}
	if h.NumEdges() != 40 {
		t.Fatalf("circuit edges = %d, want 40", h.NumEdges())
	}
	if h.MaxEdgeSize() > 5 {
		t.Fatalf("circuit max arity %d exceeds fan-in+1", h.MaxEdgeSize())
	}
	// Deterministic per seed.
	h2 := Circuit(8, 40, 4, 5)
	if h.String() != h2.String() {
		t.Fatal("circuit generation not deterministic")
	}
}

func TestRandomHypergraphCoversAllVertices(t *testing.T) {
	h := RandomHypergraph(30, 10, 4, 2)
	for v := 0; v < 30; v++ {
		if h.Degree(v) == 0 {
			t.Fatalf("vertex %d uncovered", v)
		}
	}
}
