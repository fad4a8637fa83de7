// Package elim implements the dynamic elimination graph used by the branch
// and bound and A* searches (thesis §5.2.1).
//
// A Graph supports eliminating a vertex (connect all its neighbours, remove
// the vertex) and restoring the most recently eliminated vertex, in LIFO
// order. The undo log corresponds to the A/E/T matrices of the thesis: every
// elimination records the fill-in edges it introduced and the neighbourhood
// of the eliminated vertex, so a restore is exact.
//
// The per-node kernels allocate nothing once a search has reached its
// deepest prefix: an elimination keeps N(v) itself as its undo record and
// hands v an empty set from a free list, fill edges go on one stack per
// graph, and the read methods (IsSimplicial, IsAlmostSimplicial, FillCount,
// Degree, Neighbors) are word-level bitset tests that write no scratch, so
// they stay safe for concurrent readers.
package elim

import (
	"hypertree/internal/bitset"
	"hypertree/internal/hypergraph"
)

// Graph is a mutable graph under vertex elimination with exact undo.
type Graph struct {
	adj        []*bitset.Set
	eliminated *bitset.Set
	remaining  int
	undo       []undoRecord
	fill       [][2]int      // fill edges of every applied elimination, in order
	free       []*bitset.Set // empty sets for the next eliminated vertices
}

type undoRecord struct {
	v         int
	neighbors *bitset.Set // N(v) at the moment of elimination
	fill      int         // height of the fill stack before the elimination
}

// New builds an elimination graph from a static graph.
func New(g *hypergraph.Graph) *Graph {
	n := g.NumVertices()
	e := &Graph{
		adj:        make([]*bitset.Set, n),
		eliminated: bitset.New(n),
		remaining:  n,
	}
	for v := 0; v < n; v++ {
		e.adj[v] = bitset.New(n)
		e.adj[v].CopyFrom(g.Neighbors(v))
	}
	return e
}

// NumVertices returns the total number of vertices (eliminated or not).
func (g *Graph) NumVertices() int { return len(g.adj) }

// Remaining returns the number of vertices not yet eliminated.
func (g *Graph) Remaining() int { return g.remaining }

// Eliminated reports whether v has been eliminated.
func (g *Graph) Eliminated(v int) bool { return g.eliminated.Contains(v) }

// Depth returns the number of eliminations currently applied.
func (g *Graph) Depth() int { return len(g.undo) }

// Degree returns the current degree of the non-eliminated vertex v.
func (g *Graph) Degree(v int) int { return g.adj[v].Len() }

// Neighbors returns the current neighbour set of v. The returned set must
// not be modified and is invalidated by Eliminate/Restore.
func (g *Graph) Neighbors(v int) *bitset.Set { return g.adj[v] }

// Clique returns {v} ∪ N(v) as a fresh set: the χ-label bucket elimination
// would assign to v if v were eliminated now.
func (g *Graph) Clique(v int) *bitset.Set {
	c := g.adj[v].Clone()
	c.Add(v)
	return c
}

// ForEachRemaining calls fn for every non-eliminated vertex in ascending
// order.
func (g *Graph) ForEachRemaining(fn func(v int)) {
	for v := 0; v < len(g.adj); v++ {
		if !g.eliminated.Contains(v) {
			fn(v)
		}
	}
}

// RemainingVertices returns the non-eliminated vertices in ascending order.
func (g *Graph) RemainingVertices() []int {
	out := make([]int, 0, g.remaining)
	g.ForEachRemaining(func(v int) { out = append(out, v) })
	return out
}

// EliminatedSet returns the set of eliminated vertices. The returned set must
// not be modified and is updated in place by Eliminate/Restore.
func (g *Graph) EliminatedSet() *bitset.Set { return g.eliminated }

// missing returns how many vertices of N(v) other than a itself are not
// adjacent to a, for a neighbour a of v. a ∉ N(a), so the count is
// deg(v) − 1 − |N(v) ∩ N(a)|.
func (g *Graph) missing(nb *bitset.Set, deg, a int) int {
	return deg - 1 - nb.IntersectionCount(g.adj[a])
}

// FillCount returns the number of edges elimination of v would add: the
// number of non-adjacent pairs among N(v). A return of 0 means v is
// simplicial.
func (g *Graph) FillCount(v int) int {
	nb := g.adj[v]
	deg := nb.Len()
	twice := 0
	nb.ForEach(func(a int) bool {
		twice += g.missing(nb, deg, a)
		return true
	})
	return twice / 2
}

// IsSimplicial reports whether v's neighbourhood induces a clique.
func (g *Graph) IsSimplicial(v int) bool {
	nb := g.adj[v]
	deg := nb.Len()
	simplicial := true
	nb.ForEach(func(a int) bool {
		simplicial = g.missing(nb, deg, a) == 0
		return simplicial
	})
	return simplicial
}

// IsAlmostSimplicial reports whether all but one neighbour of v induce a
// clique (and v is not simplicial). The second return value is the odd
// neighbour out. When N(v) misses exactly one edge both of its endpoints
// qualify, and the lower-indexed one is returned; with two or more missing
// edges at most one neighbour is an endpoint of all of them.
func (g *Graph) IsAlmostSimplicial(v int) (bool, int) {
	nb := g.adj[v]
	deg := nb.Len()
	if deg < 2 {
		return false, -1
	}
	twice := 0
	nb.ForEach(func(a int) bool {
		twice += g.missing(nb, deg, a)
		return true
	})
	if twice == 0 {
		return false, -1 // simplicial, not almost simplicial
	}
	// N(v) \ {u} is a clique iff u is an endpoint of every missing pair.
	odd := -1
	nb.ForEach(func(u int) bool {
		if 2*g.missing(nb, deg, u) == twice {
			odd = u
		}
		return odd < 0
	})
	return odd >= 0, odd
}

// Eliminate removes v from the graph, connecting all its current neighbours
// pairwise. It returns the degree of v at elimination time (the width
// contribution of this elimination step is that degree; the χ-set size is
// degree+1).
func (g *Graph) Eliminate(v int) int {
	if g.eliminated.Contains(v) {
		panic("elim: vertex already eliminated")
	}
	nb := g.adj[v]
	g.undo = append(g.undo, undoRecord{v: v, neighbors: nb, fill: len(g.fill)})
	nb.ForEach(func(a int) bool {
		// Connect a to every later neighbour it misses. a ∉ N(a), so the
		// difference holds a itself, which the b > a test skips.
		nb.ForEachDifference(g.adj[a], func(b int) bool {
			if b > a {
				g.adj[a].Add(b)
				g.adj[b].Add(a)
				g.fill = append(g.fill, [2]int{a, b})
			}
			return true
		})
		g.adj[a].Remove(v)
		return true
	})
	if k := len(g.free); k > 0 {
		g.adj[v] = g.free[k-1]
		g.free = g.free[:k-1]
	} else {
		g.adj[v] = bitset.New(len(g.adj))
	}
	g.eliminated.Add(v)
	g.remaining--
	return nb.Len()
}

// Restore undoes the most recent Eliminate and returns the restored vertex.
// It panics if nothing has been eliminated.
func (g *Graph) Restore() int {
	if len(g.undo) == 0 {
		panic("elim: nothing to restore")
	}
	rec := g.undo[len(g.undo)-1]
	g.undo = g.undo[:len(g.undo)-1]
	for _, e := range g.fill[rec.fill:] {
		g.adj[e[0]].Remove(e[1])
		g.adj[e[1]].Remove(e[0])
	}
	g.fill = g.fill[:rec.fill]
	g.free = append(g.free, g.adj[rec.v]) // empty since the elimination
	g.adj[rec.v] = rec.neighbors
	rec.neighbors.ForEach(func(u int) bool {
		g.adj[u].Add(rec.v)
		return true
	})
	g.eliminated.Remove(rec.v)
	g.remaining++
	return rec.v
}

// RestoreTo pops eliminations until Depth() == depth.
func (g *Graph) RestoreTo(depth int) {
	for len(g.undo) > depth {
		g.Restore()
	}
}

// Contract merges vertex v into vertex u (edge contraction for minor-based
// lower bounds): u gains all of v's neighbours, v is removed. Contractions
// are NOT undoable; use on a Clone. u and v must be adjacent.
func (g *Graph) Contract(u, v int) {
	if !g.adj[u].Contains(v) {
		panic("elim: contracting non-adjacent pair")
	}
	g.adj[v].ForEach(func(w int) bool {
		if w != u {
			g.adj[u].Add(w)
			g.adj[w].Add(u)
		}
		return true
	})
	g.adj[v].ForEach(func(w int) bool {
		g.adj[w].Remove(v)
		return true
	})
	g.adj[v].Clear()
	g.adj[u].Remove(v)
	g.eliminated.Add(v)
	g.remaining--
	g.dropUndo() // contractions invalidate the undo log
}

// Remove deletes v and its incident edges without connecting neighbours
// (plain vertex deletion, used by reductions on scratch copies). Not
// undoable; use on a Clone.
func (g *Graph) Remove(v int) {
	g.adj[v].ForEach(func(w int) bool {
		g.adj[w].Remove(v)
		return true
	})
	g.adj[v].Clear()
	g.eliminated.Add(v)
	g.remaining--
	g.dropUndo()
}

// dropUndo forgets the undo log after a non-undoable edit.
func (g *Graph) dropUndo() {
	g.undo, g.fill = nil, nil
}

// Clone returns a deep copy sharing no state. The undo log is not copied.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:        make([]*bitset.Set, len(g.adj)),
		eliminated: g.eliminated.Clone(),
		remaining:  g.remaining,
	}
	for i, s := range g.adj {
		c.adj[i] = s.Clone()
	}
	return c
}

// Snapshot returns the current graph as a static hypergraph.Graph over the
// same vertex indices (eliminated vertices become isolated).
func (g *Graph) Snapshot() *hypergraph.Graph {
	out := hypergraph.NewGraph(len(g.adj))
	for v := 0; v < len(g.adj); v++ {
		g.adj[v].ForEach(func(u int) bool {
			if v < u {
				out.AddEdge(v, u)
			}
			return true
		})
	}
	return out
}

// MinDegreeVertex returns the remaining vertex of minimum degree, breaking
// ties by lowest index, or -1 if none remain.
func (g *Graph) MinDegreeVertex() int {
	best, bestDeg := -1, int(^uint(0)>>1)
	g.ForEachRemaining(func(v int) {
		if d := g.adj[v].Len(); d < bestDeg {
			best, bestDeg = v, d
		}
	})
	return best
}
