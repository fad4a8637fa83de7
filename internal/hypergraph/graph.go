package hypergraph

import (
	"fmt"
	"sort"

	"hypertree/internal/bitset"
)

// Graph is a simple undirected graph with dense integer vertices. It keeps
// both an adjacency bitset per vertex (for fast set operations during
// elimination) and an edge count. Self-loops are ignored; parallel edges are
// collapsed.
type Graph struct {
	adj      []*bitset.Set
	names    []string
	numEdges int
}

// NewGraph returns an edgeless graph with n vertices named "v0".."v(n-1)".
// Adjacency bitsets start empty and grow on AddEdge, so the cost of an
// edgeless graph is O(n), not O(n²) — important when n comes from an
// untrusted file header.
func NewGraph(n int) *Graph {
	g := &Graph{adj: make([]*bitset.Set, n), names: make([]string, n)}
	for i := range g.adj {
		g.adj[i] = &bitset.Set{}
	}
	return g
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.numEdges }

// Name returns the display name of vertex v ("v<i>" unless renamed).
func (g *Graph) Name(v int) string {
	if g.names[v] == "" {
		return fmt.Sprintf("v%d", v)
	}
	return g.names[v]
}

// SetName sets the display name of vertex v.
func (g *Graph) SetName(v int, name string) { g.names[v] = name }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicates are
// ignored. It reports whether a new edge was added.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v || g.adj[u].Contains(v) {
		return false
	}
	g.adj[u].Add(v)
	g.adj[v].Add(u)
	g.numEdges++
	return true
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	if g.adj[u].Contains(v) {
		g.adj[u].Remove(v)
		g.adj[v].Remove(u)
		g.numEdges--
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.adj[u].Contains(v) }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return g.adj[v].Len() }

// Neighbors returns v's neighbour set. The returned set must not be
// modified.
func (g *Graph) Neighbors(v int) *bitset.Set { return g.adj[v] }

// Edges returns all edges as ordered pairs (u < v), sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.numEdges)
	for u := range g.adj {
		g.adj[u].ForEach(func(v int) bool {
			if u < v {
				out = append(out, [2]int{u, v})
			}
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:      make([]*bitset.Set, len(g.adj)),
		names:    append([]string(nil), g.names...),
		numEdges: g.numEdges,
	}
	for i, s := range g.adj {
		c.adj[i] = s.Clone()
	}
	return c
}

// IsClique reports whether the given vertex set induces a clique.
func (g *Graph) IsClique(vs *bitset.Set) bool {
	ok := true
	vs.ForEach(func(u int) bool {
		rest := vs.Clone()
		rest.Remove(u)
		if !rest.SubsetOf(g.adj[u]) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// ConnectedComponents returns the vertex sets of the connected components,
// in order of smallest contained vertex.
func (g *Graph) ConnectedComponents() []*bitset.Set {
	n := g.NumVertices()
	seen := bitset.New(n)
	var comps []*bitset.Set
	for s := 0; s < n; s++ {
		if seen.Contains(s) {
			continue
		}
		comp := bitset.New(n)
		stack := []int{s}
		seen.Add(s)
		comp.Add(s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.adj[u].ForEach(func(v int) bool {
				if !seen.Contains(v) {
					seen.Add(v)
					comp.Add(v)
					stack = append(stack, v)
				}
				return true
			})
		}
		comps = append(comps, comp)
	}
	return comps
}
