// Package hypergraph defines the graph and hypergraph types that every
// decomposition algorithm in this module operates on, together with parsers
// and writers for the common interchange formats (DIMACS .col for graphs and
// the TU-Wien / HyperBench "edge(v1,...,vn)," format for hypergraphs).
//
// Vertices and hyperedges are identified by dense non-negative integer
// indices; human-readable names are kept alongside for I/O. This mirrors the
// "simple structs" style of existing decomposition codebases and keeps the
// hot algorithm loops free of string handling.
package hypergraph

import (
	"fmt"
	"sort"

	"hypertree/internal/bitset"
)

// Hypergraph is an immutable hypergraph H = (V, H). Construct one with
// NewBuilder or the parsers; algorithms treat it as read-only.
type Hypergraph struct {
	vertexNames []string
	edgeNames   []string
	edges       [][]int       // edges[e] = sorted vertex indices of hyperedge e
	edgeSets    []*bitset.Set // bitset form of edges, same order
	incidence   [][]int       // incidence[v] = edge indices containing v
}

// NumVertices returns |V|.
func (h *Hypergraph) NumVertices() int { return len(h.vertexNames) }

// NumEdges returns the number of hyperedges.
func (h *Hypergraph) NumEdges() int { return len(h.edges) }

// VertexName returns the name of vertex v.
func (h *Hypergraph) VertexName(v int) string { return h.vertexNames[v] }

// EdgeName returns the name of hyperedge e.
func (h *Hypergraph) EdgeName(e int) string { return h.edgeNames[e] }

// Edge returns the sorted vertex indices of hyperedge e. The returned slice
// must not be modified.
func (h *Hypergraph) Edge(e int) []int { return h.edges[e] }

// EdgeSet returns hyperedge e as a bitset. The returned set must not be
// modified.
func (h *Hypergraph) EdgeSet(e int) *bitset.Set { return h.edgeSets[e] }

// IncidentEdges returns the indices of hyperedges containing vertex v. The
// returned slice must not be modified.
func (h *Hypergraph) IncidentEdges(v int) []int { return h.incidence[v] }

// MaxEdgeSize returns the arity of the largest hyperedge (0 for an edgeless
// hypergraph).
func (h *Hypergraph) MaxEdgeSize() int {
	m := 0
	for _, e := range h.edges {
		if len(e) > m {
			m = len(e)
		}
	}
	return m
}

// Degree returns the number of hyperedges containing v.
func (h *Hypergraph) Degree(v int) int { return len(h.incidence[v]) }

// VertexIndex returns the index of the vertex with the given name, or -1.
// It is O(|V|); intended for tests and I/O, not hot loops.
func (h *Hypergraph) VertexIndex(name string) int {
	for i, n := range h.vertexNames {
		if n == name {
			return i
		}
	}
	return -1
}

// PrimalGraph returns the Gaifman (primal) graph G*(H): same vertices, an
// edge between every pair of vertices sharing a hyperedge.
func (h *Hypergraph) PrimalGraph() *Graph {
	g := NewGraph(h.NumVertices())
	for i := range g.names {
		g.names[i] = h.vertexNames[i]
	}
	for _, e := range h.edges {
		for i := 0; i < len(e); i++ {
			for j := i + 1; j < len(e); j++ {
				g.AddEdge(e[i], e[j])
			}
		}
	}
	return g
}

// DualGraph returns the dual graph: one vertex per hyperedge, an edge
// between hyperedges sharing a vertex.
func (h *Hypergraph) DualGraph() *Graph {
	g := NewGraph(h.NumEdges())
	for i := range g.names {
		g.names[i] = h.edgeNames[i]
	}
	for e1 := 0; e1 < h.NumEdges(); e1++ {
		for e2 := e1 + 1; e2 < h.NumEdges(); e2++ {
			if h.edgeSets[e1].Intersects(h.edgeSets[e2]) {
				g.AddEdge(e1, e2)
			}
		}
	}
	return g
}

// String renders the hypergraph in TU-Wien format.
func (h *Hypergraph) String() string {
	s, _ := h.MarshalText()
	return string(s)
}

// Builder accumulates vertices and hyperedges and produces an immutable
// Hypergraph. Duplicate vertices within a hyperedge are collapsed.
type Builder struct {
	vertexNames []string
	vertexIdx   map[string]int
	edgeNames   []string
	edges       [][]int
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{vertexIdx: make(map[string]int)}
}

// Vertex interns the named vertex and returns its index.
func (b *Builder) Vertex(name string) int {
	if i, ok := b.vertexIdx[name]; ok {
		return i
	}
	i := len(b.vertexNames)
	b.vertexNames = append(b.vertexNames, name)
	b.vertexIdx[name] = i
	return i
}

// AddEdge adds a hyperedge with the given name over the named vertices and
// returns its index. Vertices are interned on first use.
func (b *Builder) AddEdge(name string, vertices ...string) int {
	idx := make([]int, 0, len(vertices))
	for _, v := range vertices {
		idx = append(idx, b.Vertex(v))
	}
	return b.AddEdgeByIndex(name, idx...)
}

// AddEdgeByIndex adds a hyperedge over existing vertex indices.
func (b *Builder) AddEdgeByIndex(name string, vertices ...int) int {
	seen := make(map[int]bool, len(vertices))
	uniq := make([]int, 0, len(vertices))
	for _, v := range vertices {
		if v < 0 || v >= len(b.vertexNames) {
			panic(fmt.Sprintf("hypergraph: vertex index %d out of range", v))
		}
		if !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	sort.Ints(uniq)
	e := len(b.edges)
	if name == "" {
		name = fmt.Sprintf("e%d", e)
	}
	b.edgeNames = append(b.edgeNames, name)
	b.edges = append(b.edges, uniq)
	return e
}

// Build finalizes the Builder into an immutable Hypergraph.
func (b *Builder) Build() *Hypergraph {
	h := &Hypergraph{
		vertexNames: append([]string(nil), b.vertexNames...),
		edgeNames:   append([]string(nil), b.edgeNames...),
		edges:       make([][]int, len(b.edges)),
		edgeSets:    make([]*bitset.Set, len(b.edges)),
		incidence:   make([][]int, len(b.vertexNames)),
	}
	for e, vs := range b.edges {
		h.edges[e] = append([]int(nil), vs...)
		s := bitset.New(len(b.vertexNames))
		for _, v := range vs {
			s.Add(v)
			h.incidence[v] = append(h.incidence[v], e)
		}
		h.edgeSets[e] = s
	}
	return h
}

// FromEdges builds a hypergraph over n vertices named "v0".."v(n-1)" with
// the given hyperedges. It is the convenient constructor for generators and
// tests.
func FromEdges(n int, edges [][]int) *Hypergraph {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.Vertex(fmt.Sprintf("v%d", i))
	}
	for _, e := range edges {
		b.AddEdgeByIndex("", e...)
	}
	return b.Build()
}

// FromGraph converts a graph into the hypergraph whose hyperedges are the
// graph's edges. Vertex v of g is vertex v of the result, named g.Name(v);
// display names are not interned, so two vertices that share a name stay
// two vertices.
func FromGraph(g *Graph) *Hypergraph {
	b := NewBuilder()
	for v := 0; v < g.NumVertices(); v++ {
		b.vertexNames = append(b.vertexNames, g.Name(v))
	}
	for _, e := range g.Edges() {
		b.AddEdgeByIndex("", e[0], e[1])
	}
	return b.Build()
}
