package hypergraph

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// paperExample5 is the constraint hypergraph of thesis Example 5:
// C1={x1,x2,x3}, C2={x1,x5,x6}, C3={x3,x4,x5}.
func paperExample5() *Hypergraph {
	b := NewBuilder()
	b.AddEdge("C1", "x1", "x2", "x3")
	b.AddEdge("C2", "x1", "x5", "x6")
	b.AddEdge("C3", "x3", "x4", "x5")
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	h := paperExample5()
	if h.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d, want 6", h.NumVertices())
	}
	if h.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", h.NumEdges())
	}
	x1 := h.VertexIndex("x1")
	if x1 < 0 {
		t.Fatal("x1 not found")
	}
	if got := h.Degree(x1); got != 2 {
		t.Fatalf("deg(x1) = %d, want 2", got)
	}
	if h.MaxEdgeSize() != 3 {
		t.Fatalf("MaxEdgeSize = %d, want 3", h.MaxEdgeSize())
	}
	if h.VertexIndex("nope") != -1 {
		t.Fatal("missing vertex must return -1")
	}
}

func TestBuilderDeduplicatesVerticesInEdge(t *testing.T) {
	b := NewBuilder()
	b.AddEdge("e", "a", "b", "a")
	h := b.Build()
	if got := len(h.Edge(0)); got != 2 {
		t.Fatalf("edge size = %d, want 2 after dedup", got)
	}
}

func TestPrimalGraph(t *testing.T) {
	h := paperExample5()
	g := h.PrimalGraph()
	if g.NumVertices() != 6 {
		t.Fatalf("primal vertices = %d", g.NumVertices())
	}
	// Every pair within a hyperedge must be adjacent.
	for e := 0; e < h.NumEdges(); e++ {
		vs := h.Edge(e)
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				if !g.HasEdge(vs[i], vs[j]) {
					t.Fatalf("primal missing edge %d-%d", vs[i], vs[j])
				}
			}
		}
	}
	// x2 and x6 never co-occur.
	if g.HasEdge(h.VertexIndex("x2"), h.VertexIndex("x6")) {
		t.Fatal("primal has spurious edge x2-x6")
	}
	// 3 triangles sharing some vertices: edges = 3*3 - shared pairs; count directly.
	if g.NumEdges() != 9 {
		t.Fatalf("primal edges = %d, want 9", g.NumEdges())
	}
}

func TestDualGraph(t *testing.T) {
	h := paperExample5()
	d := h.DualGraph()
	if d.NumVertices() != 3 {
		t.Fatalf("dual vertices = %d, want 3", d.NumVertices())
	}
	// C1∩C2={x1}, C1∩C3={x3}, C2∩C3={x5}: complete dual.
	if d.NumEdges() != 3 {
		t.Fatalf("dual edges = %d, want 3", d.NumEdges())
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	if !g.AddEdge(0, 1) || g.AddEdge(0, 1) || g.AddEdge(1, 0) {
		t.Fatal("AddEdge duplicate handling wrong")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("self-loop must be ignored")
	}
	g.AddEdge(1, 2)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
	g.RemoveEdge(0, 1)
	g.RemoveEdge(0, 1) // idempotent
	if g.NumEdges() != 1 || g.HasEdge(0, 1) {
		t.Fatal("RemoveEdge wrong")
	}
	if got := g.Edges(); !reflect.DeepEqual(got, [][2]int{{1, 2}}) {
		t.Fatalf("Edges = %v", got)
	}
}

func TestGraphClone(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("Clone must be independent")
	}
	if !c.HasEdge(0, 1) {
		t.Fatal("Clone must copy edges")
	}
}

func TestIsClique(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	tri := g.Neighbors(0).Clone()
	tri.Add(0)
	if !g.IsClique(tri) {
		t.Fatal("triangle must be a clique")
	}
	tri.Add(3)
	if g.IsClique(tri) {
		t.Fatal("triangle+isolated vertex must not be a clique")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	sizes := []int{comps[0].Len(), comps[1].Len(), comps[2].Len()}
	sort.Ints(sizes)
	if !reflect.DeepEqual(sizes, []int{1, 2, 2}) {
		t.Fatalf("component sizes = %v", sizes)
	}
}

func TestParseDIMACS(t *testing.T) {
	in := `c a comment
p edge 4 3
e 1 2
e 2 3
e 3 4
`
	g, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("parsed %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatal("edges missing")
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	cases := []string{
		"",                    // no problem line
		"e 1 2\n",             // edge before problem line
		"p edge x 3\n",        // bad vertex count
		"p edge 2 1\ne 1 5\n", // out of range
		"p edge 2 1\ne 1\n",   // malformed edge
		"q edge 2 1\n",        // unknown line
		"p matrix 2 1\ne 1\n", // wrong format word
		"p edge 2 1\ne a b\n", // non-numeric
	}
	for _, in := range cases {
		if _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Fatalf("ParseDIMACS(%q) succeeded, want error", in)
		}
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 4)
	g.AddEdge(1, 2)
	var sb strings.Builder
	if err := WriteDIMACS(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseDIMACS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatalf("round trip edges differ: %v vs %v", g.Edges(), g2.Edges())
	}
}

func TestParseHypergraph(t *testing.T) {
	in := `% CSP hypergraph, example 5
C1 (x1, x2, x3),
C2(x1,x5,x6), // trailing comment
C3(x3,x4,x5).
`
	h, err := ParseHypergraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 6 || h.NumEdges() != 3 {
		t.Fatalf("parsed %d vertices %d edges", h.NumVertices(), h.NumEdges())
	}
	want := paperExample5().SortedEdgeView()
	if got := h.SortedEdgeView(); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestParseHypergraphErrors(t *testing.T) {
	cases := []string{
		"",                // empty
		"foo",             // missing paren
		"foo(",            // missing ident
		"foo(a",           // missing close
		"foo(a) bar(b).",  // missing separator
		"foo(a). bar(b).", // trailing input
	}
	for _, in := range cases {
		if _, err := ParseHypergraph(strings.NewReader(in)); err == nil {
			t.Fatalf("ParseHypergraph(%q) succeeded, want error", in)
		}
	}
}

func TestHypergraphRoundTrip(t *testing.T) {
	h := paperExample5()
	text, err := h.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ParseHypergraph(strings.NewReader(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.SortedEdgeView(), h2.SortedEdgeView()) {
		t.Fatal("hypergraph round trip mismatch")
	}
}

// TestFromGraphKeepsEveryVertex: FromGraph maps vertex v to vertex v and
// keeps the edges by index even when display names repeat (vertex 0 named
// "v1" beside unnamed vertex 1, whose display name is also "v1"), and with
// distinct names it builds what interning the names would.
func TestFromGraphKeepsEveryVertex(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.SetName(0, "v1")
	h := FromGraph(g)
	if h.NumVertices() != 3 {
		t.Fatalf("FromGraph kept %d vertices, want 3", h.NumVertices())
	}
	if got, want := [][]int{h.Edge(0), h.Edge(1)}, [][]int{{0, 1}, {1, 2}}; h.NumEdges() != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("FromGraph edges = %v, want %v", got, want)
	}
	for v, want := range []string{"v1", "v1", "v2"} {
		if got := h.VertexName(v); got != want {
			t.Errorf("VertexName(%d) = %q, want %q", v, got, want)
		}
	}

	g.SetName(0, "a")
	b := NewBuilder()
	for v := 0; v < g.NumVertices(); v++ {
		b.Vertex(g.Name(v))
	}
	for _, e := range g.Edges() {
		b.AddEdgeByIndex("", e[0], e[1])
	}
	if got, want := FromGraph(g), b.Build(); !reflect.DeepEqual(got, want) {
		t.Fatalf("distinct names: FromGraph = %v, want %v", got, want)
	}
}

func TestFromGraphFromEdges(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	h := FromGraph(g)
	if h.NumEdges() != 2 || h.MaxEdgeSize() != 2 {
		t.Fatal("FromGraph wrong")
	}
	h2 := FromEdges(4, [][]int{{0, 1, 2}, {2, 3}})
	if h2.NumVertices() != 4 || h2.NumEdges() != 2 {
		t.Fatal("FromEdges wrong")
	}
	if got := h2.IncidentEdges(2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("IncidentEdges(2) = %v", got)
	}
}
