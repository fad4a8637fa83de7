package csp

import (
	"sort"

	"hypertree/internal/decomp"
)

// BuildJoinTree attempts to build a join tree for the CSP (Def. 8): a
// width-1 GHD of its constraint hypergraph with one node per constraint,
// whose χ is the constraint's scope and whose λ is the constraint. It
// returns (tree, true) when the CSP is acyclic (Def. 9) and (nil, false)
// otherwise.
//
// It uses the classical characterization: a CSP is acyclic iff a
// maximum-weight spanning tree of its dual graph — edges weighted by the
// number of shared variables — satisfies the join-tree connectedness
// condition, which the GHD's own validation checks.
func BuildJoinTree(c *CSP) (*decomp.Decomposition, bool) {
	m := len(c.Constraints)
	if m == 0 {
		return nil, false
	}
	h := c.Hypergraph()
	// Weighted dual graph.
	type dualEdge struct{ a, b, w int }
	var edges []dualEdge
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if w := h.EdgeSet(i).IntersectionCount(h.EdgeSet(j)); w > 0 {
				edges = append(edges, dualEdge{i, j, w})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].w > edges[j].w })

	// Maximum-weight spanning forest by Kruskal.
	parent := make([]int, m)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	adj := make([][]int, m)
	for _, e := range edges {
		ra, rb := find(e.a), find(e.b)
		if ra != rb {
			parent[ra] = rb
			adj[e.a] = append(adj[e.a], e.b)
			adj[e.b] = append(adj[e.b], e.a)
		}
	}
	// Chain disconnected components together (their constraints share no
	// variables, so arbitrary links keep the connectedness condition): the
	// smallest component root links to every other root.
	first := -1
	for r := 0; r < m; r++ {
		if find(r) != r {
			continue
		}
		if first < 0 {
			first = r
			continue
		}
		adj[first] = append(adj[first], r)
		adj[r] = append(adj[r], first)
	}

	// Root the tree at constraint 0.
	d := decomp.New(h)
	visited := make([]bool, m)
	var build func(i int, parent *decomp.Node)
	build = func(i int, parent *decomp.Node) {
		visited[i] = true
		n := d.AddNode(h.EdgeSet(i).Clone(), parent)
		n.Lambda = []int{i}
		for _, j := range adj[i] {
			if !visited[j] {
				build(j, n)
			}
		}
	}
	build(0, nil)
	if d.ValidateGHD() != nil {
		return nil, false
	}
	return d, true
}

// IsAcyclic reports whether the CSP has a join tree.
func IsAcyclic(c *CSP) bool {
	_, ok := BuildJoinTree(c)
	return ok
}
