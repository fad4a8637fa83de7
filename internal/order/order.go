// Package order implements elimination orderings (thesis Def. 15) and the
// machinery built on them: bucket elimination (Fig. 2.10), vertex
// elimination (Fig. 2.12), and the fast width-evaluation functions used by
// the genetic algorithms (Fig. 6.2 for treewidth, Fig. 7.1 for generalized
// hypertree width).
//
// Convention: Ordering[0] is eliminated FIRST. (The thesis writes
// σ = (v₁,…,vₙ) with vₙ eliminated first; we store the same sequence in
// elimination order to keep loops forward.)
package order

import (
	"fmt"
	"math/rand"

	"hypertree/internal/bitset"
	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/setcover"
)

// Ordering is a permutation of the vertex indices of a (hyper)graph;
// index 0 is eliminated first.
type Ordering []int

// Identity returns the ordering (0, 1, …, n−1).
func Identity(n int) Ordering {
	o := make(Ordering, n)
	for i := range o {
		o[i] = i
	}
	return o
}

// Random returns a uniformly random ordering of n vertices.
func Random(n int, rng *rand.Rand) Ordering {
	return Ordering(rng.Perm(n))
}

// Validate checks that o is a permutation of 0..n−1.
func (o Ordering) Validate(n int) error {
	if len(o) != n {
		return fmt.Errorf("order: length %d, want %d", len(o), n)
	}
	seen := make([]bool, n)
	for _, v := range o {
		if v < 0 || v >= n {
			return fmt.Errorf("order: vertex %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("order: vertex %d repeated", v)
		}
		seen[v] = true
	}
	return nil
}

// Positions returns the inverse permutation: Positions()[v] = elimination
// position of vertex v.
func (o Ordering) Positions() []int {
	pos := make([]int, len(o))
	for i, v := range o {
		pos[v] = i
	}
	return pos
}

// Clone returns an independent copy.
func (o Ordering) Clone() Ordering {
	return append(Ordering(nil), o...)
}

// VertexElimination implements algorithm Vertex Elimination (Fig. 2.12):
// eliminate the vertices of the primal graph of h in order, emitting one
// decomposition node ("bucket") per vertex labelled {v} ∪ N(v) at
// elimination time, with each bucket attached to the bucket of the
// next-eliminated neighbour. The result is a valid tree decomposition of h.
func VertexElimination(h *hypergraph.Hypergraph, o Ordering) *decomp.Decomposition {
	n := h.NumVertices()
	if err := o.Validate(n); err != nil {
		panic(err)
	}
	g := h.PrimalGraph()
	return eliminationTree(h, o, adjacencyOf(g))
}

// BucketElimination implements algorithm Bucket Elimination (Fig. 2.10).
// It produces exactly the same χ-labels as VertexElimination (Def. 16
// observes their equivalence), built from hyperedge buckets instead of the
// primal graph. Exposed separately so the equivalence is testable.
func BucketElimination(h *hypergraph.Hypergraph, o Ordering) *decomp.Decomposition {
	n := h.NumVertices()
	if err := o.Validate(n); err != nil {
		panic(err)
	}
	pos := o.Positions()

	// Fill buckets: each hyperedge goes to the bucket of its earliest-
	// eliminated vertex.
	chi := make([]*bitset.Set, n)
	for v := 0; v < n; v++ {
		chi[v] = bitset.New(n)
		chi[v].Add(v)
	}
	for e := 0; e < h.NumEdges(); e++ {
		first, firstPos := -1, n
		for _, v := range h.Edge(e) {
			if pos[v] < firstPos {
				first, firstPos = v, pos[v]
			}
		}
		if first >= 0 {
			chi[first].UnionWith(h.EdgeSet(e))
		}
	}

	// Process in elimination order: push A = χ(B_v) − {v} to the bucket of
	// A's earliest-eliminated vertex; connect the buckets.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	for i := 0; i < n; i++ {
		v := o[i]
		a := chi[v].Clone()
		a.Remove(v)
		if a.Empty() {
			continue
		}
		next, nextPos := -1, n
		a.ForEach(func(u int) bool {
			if pos[u] < nextPos {
				next, nextPos = u, pos[u]
			}
			return true
		})
		chi[next].UnionWith(a)
		parent[v] = next
	}
	return assembleTree(h, o, chi, parent)
}

// eliminationTree runs vertex elimination over an adjacency-set view.
func eliminationTree(h *hypergraph.Hypergraph, o Ordering, adj []*bitset.Set) *decomp.Decomposition {
	n := len(adj)
	pos := o.Positions()
	chi := make([]*bitset.Set, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	eliminated := bitset.New(n)
	for i := 0; i < n; i++ {
		v := o[i]
		// χ(B_v) = {v} ∪ current neighbours.
		label := adj[v].Clone()
		label.DifferenceWith(eliminated)
		nb := label.Clone()
		label.Add(v)
		chi[v] = label
		// Connect fill edges among neighbours and pick the next bucket.
		next, nextPos := -1, n
		nb.ForEach(func(u int) bool {
			if pos[u] < nextPos {
				next, nextPos = u, pos[u]
			}
			adj[u].UnionWith(nb)
			adj[u].Remove(u)
			return true
		})
		parent[v] = next // -1 when v had no later neighbours
		eliminated.Add(v)
	}
	return assembleTree(h, o, chi, parent)
}

func adjacencyOf(g *hypergraph.Graph) []*bitset.Set {
	adj := make([]*bitset.Set, g.NumVertices())
	for v := range adj {
		adj[v] = g.Neighbors(v).Clone()
	}
	return adj
}

// assembleTree turns per-vertex buckets and parent links into a rooted
// Decomposition. Parentless buckets (components) are chained to the bucket
// of the last-eliminated vertex so the result is a single tree.
func assembleTree(h *hypergraph.Hypergraph, o Ordering, chi []*bitset.Set, parent []int) *decomp.Decomposition {
	n := len(chi)
	d := decomp.New(h)
	if n == 0 {
		d.AddNode(bitset.New(0), nil)
		return d
	}
	nodes := make([]*decomp.Node, n)
	root := o[n-1] // last eliminated vertex: its bucket is the root
	// Create nodes in reverse elimination order so parents exist first.
	for i := n - 1; i >= 0; i-- {
		v := o[i]
		var p *decomp.Node
		if parent[v] >= 0 {
			p = nodes[parent[v]]
		} else if v != root {
			p = nodes[root]
		}
		nodes[v] = d.AddNode(chi[v], p)
	}
	return d
}

// Evaluator computes decomposition widths of orderings quickly, reusing
// buffers across calls. It implements the evaluation functions of Fig. 6.2
// (treewidth) and Fig. 7.1 (generalized hypertree width): instead of
// connecting all pairs of neighbours on elimination, each vertex's residual
// clique is pushed to the next-eliminated member, and the loop exits early
// once the width reaches the number of remaining vertices.
//
// An Evaluator is not safe for concurrent use; create one per goroutine.
// The cover oracle behind a GHW evaluator IS safe to share: hand the same
// oracle to every per-goroutine evaluator of one instance and their exact
// covers are solved once (cross-worker caching); randomized greedy covers
// bypass the cache by design, keeping seeds independent.
type Evaluator struct {
	base []*bitset.Set // primal adjacency
	adj  []*bitset.Set // scratch
	elim *bitset.Set
	chi  *bitset.Set
	pos  []int // scratch: elimination position per vertex

	orc      *cover.Oracle    // nil for treewidth evaluation
	rngCover *setcover.Solver // rng-tie-breaking greedy (nil when rng == nil)
	exact    bool             // use exact set cover instead of greedy
}

// NewTWEvaluator returns an evaluator of the tree-decomposition widths of
// g's elimination orderings.
func NewTWEvaluator(g *hypergraph.Graph) *Evaluator {
	return newEvaluator(g, nil, nil, false)
}

// NewGHWEvaluator returns an evaluator of generalized hypertree widths.
// With exact=false it uses the greedy set-cover heuristic with rng
// tie-breaking (as GA-ghw does); with exact=true it solves each cover
// exactly (as the branch-and-bound and A* searches require). Covers are
// memoized in orc, or in a private oracle when orc is nil, so concurrent
// evaluators of the same instance can share one memo table. Exact covers
// and nil-rng greedy covers go through the oracle; greedy covers with a
// non-nil rng are computed by a private solver and never cached, because
// their tie-breaking depends on the caller's random stream.
func NewGHWEvaluator(h *hypergraph.Hypergraph, rng *rand.Rand, exact bool, orc *cover.Oracle) *Evaluator {
	if orc == nil {
		orc = cover.New(h, cover.Options{})
	}
	var rngCover *setcover.Solver
	if rng != nil && !exact {
		rngCover = setcover.New(h, rng)
	}
	return newEvaluator(h.PrimalGraph(), orc, rngCover, exact)
}

func newEvaluator(g *hypergraph.Graph, orc *cover.Oracle, rngCover *setcover.Solver, exact bool) *Evaluator {
	n := g.NumVertices()
	e := &Evaluator{
		base:     adjacencyOf(g),
		adj:      make([]*bitset.Set, n),
		elim:     bitset.New(n),
		chi:      bitset.New(n),
		pos:      make([]int, n),
		orc:      orc,
		rngCover: rngCover,
		exact:    exact,
	}
	for v := 0; v < n; v++ {
		e.adj[v] = bitset.New(n)
	}
	return e
}

// Width returns the width of the decomposition induced by o: the
// tree-decomposition width max|χ|−1 for a TW evaluator, or the generalized
// hypertree width max|λ| (cover sizes) for a GHW evaluator.
func (e *Evaluator) Width(o Ordering) int {
	n := len(e.base)
	if len(o) != n {
		panic("order: evaluator/ordering size mismatch")
	}
	for v := 0; v < n; v++ {
		e.adj[v].CopyFrom(e.base[v])
	}
	e.elim.Clear()
	for i, v := range o {
		e.pos[v] = i
	}

	width := 0
	for i := 0; i < n; i++ {
		// Early exit (Fig. 6.2 / Fig. 7.1): every future χ-set has at most
		// `remaining` vertices, so it contributes < remaining to the TD
		// width and needs at most `remaining` cover edges.
		if remaining := n - i; width >= remaining {
			break
		}
		v := o[i]
		// X = later neighbours of v.
		x := e.adj[v]
		x.DifferenceWith(e.elim)
		x.Remove(v)

		if e.orc == nil {
			if l := x.Len(); l > width {
				width = l
			}
		} else {
			e.chi.CopyFrom(x)
			e.chi.Add(v)
			var k int
			switch {
			case e.exact:
				k = e.orc.ExactSize(e.chi, nil)
			case e.rngCover != nil:
				// Randomized greedy: tie-breaking consumes the caller's rng
				// stream, so it must not be served from (or stored in) the
				// shared memo table.
				k = e.rngCover.GreedySize(e.chi)
			default:
				k = e.orc.GreedySize(e.chi, nil)
			}
			if k > width {
				width = k
			}
		}

		// Push the residual clique to the next-eliminated member of X.
		if !x.Empty() {
			next, nextPos := -1, n
			x.ForEach(func(u int) bool {
				if e.pos[u] < nextPos {
					next, nextPos = u, e.pos[u]
				}
				return true
			})
			e.adj[next].UnionWith(x)
			e.adj[next].Remove(next)
		}
		e.elim.Add(v)
	}
	return width
}
