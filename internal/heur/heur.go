// Package heur implements the upper- and lower-bound heuristics of thesis
// §4.4.2: the min-fill and min-degree ordering heuristics (upper bounds on
// treewidth), maximum-cardinality search, the minor-min-width /
// MMD+(least-c) lower bound (Fig. 4.7), the minor-γ_R lower bound
// (Fig. 4.8), and the degeneracy lower bound.
//
// All heuristics operate on an elim.Graph and leave the argument untouched
// (they work on a copy), so they can be invoked on the residual graphs
// that arise inside branch-and-bound and A* searches. The contraction
// bounds keep their copy in a reusable Minor, so minor-min-width, which
// those searches recompute at every child, allocates nothing per call.
// Ordering heuristics return the elimination order of the graph's
// remaining vertices together with the width of the tree decomposition
// that order induces.
package heur

import (
	"context"
	"math/rand"
	"time"

	"hypertree/internal/bitset"
	"hypertree/internal/elim"
	"hypertree/internal/interrupt"
	"hypertree/internal/telemetry"
)

// pick returns a uniformly random element of candidates using rng, or the
// first candidate if rng is nil.
func pick(candidates []int, rng *rand.Rand) int {
	if len(candidates) == 0 {
		panic("heur: empty candidate set")
	}
	if rng == nil {
		return candidates[0]
	}
	return candidates[rng.Intn(len(candidates))]
}

// MinFill runs the min-fill ordering heuristic (§4.4.2): repeatedly
// eliminate a vertex that adds the fewest fill edges, breaking ties
// randomly. It returns the elimination ordering of g's remaining vertices
// and the width of the induced tree decomposition.
func MinFill(g *elim.Graph, rng *rand.Rand) ([]int, int) {
	o, w, _ := MinFillCtxStats(context.Background(), g, rng, nil)
	return o, w
}

// MinFillCtxStats is MinFill with cancellation and telemetry. It checks
// ctx once per elimination step and returns ctx's error (and no ordering)
// when cancelled: a partial greedy ordering is useless — unlike the
// lower-bound heuristics there is no anytime value to salvage — so
// cancellation aborts outright. Each greedy elimination step is counted
// into st (nil = disabled); the counters never influence the ordering.
func MinFillCtxStats(ctx context.Context, g *elim.Graph, rng *rand.Rand, st *telemetry.Stats) ([]int, int, error) {
	return greedyOrdering(ctx, g, rng, st, func(c *elim.Graph, v int) int { return c.FillCount(v) })
}

// MinDegree runs the min-degree ordering heuristic: repeatedly eliminate a
// vertex of minimum current degree.
func MinDegree(g *elim.Graph, rng *rand.Rand) ([]int, int) {
	o, w, _ := greedyOrdering(context.Background(), g, rng, nil, func(c *elim.Graph, v int) int { return c.Degree(v) })
	return o, w
}

func greedyOrdering(ctx context.Context, g *elim.Graph, rng *rand.Rand, st *telemetry.Stats, score func(*elim.Graph, int) int) ([]int, int, error) {
	// The whole greedy construction is heuristic-seed time (no oracle or
	// LP calls happen inside, so plain self-attribution is exact). Callers
	// that wrap a wider seeding window subtract this via AttributeSince.
	if st != nil {
		defer st.PhaseSince(telemetry.PhaseHeurSeed, time.Now())
	}
	chk := interrupt.New(ctx, 1)
	c := g.Clone()
	ordering := make([]int, 0, c.Remaining())
	width := 0
	var ties []int
	for c.Remaining() > 0 {
		if chk.Stop() {
			return nil, 0, interrupt.Cause(ctx)
		}
		best := int(^uint(0) >> 1)
		ties = ties[:0]
		c.ForEachRemaining(func(v int) {
			s := score(c, v)
			switch {
			case s < best:
				best = s
				ties = ties[:0]
				ties = append(ties, v)
			case s == best:
				ties = append(ties, v)
			}
		})
		v := pick(ties, rng)
		if d := c.Eliminate(v); d > width {
			width = d
		}
		ordering = append(ordering, v)
		st.Add(telemetry.HeurSteps, 1)
	}
	return ordering, width, nil
}

// MaxCardinality runs maximum-cardinality search: repeatedly select the
// vertex with the most already-selected neighbours; the REVERSE selection
// order is the elimination ordering. Returns ordering and induced width.
func MaxCardinality(g *elim.Graph, rng *rand.Rand) ([]int, int) {
	c := g.Clone()
	n := c.Remaining()
	selected := make([]bool, c.NumVertices())
	weight := make([]int, c.NumVertices())
	orderRev := make([]int, 0, n)
	var ties []int
	for len(orderRev) < n {
		best := -1
		ties = ties[:0]
		c.ForEachRemaining(func(v int) {
			if selected[v] {
				return
			}
			switch {
			case weight[v] > best:
				best = weight[v]
				ties = ties[:0]
				ties = append(ties, v)
			case weight[v] == best:
				ties = append(ties, v)
			}
		})
		v := pick(ties, rng)
		selected[v] = true
		orderRev = append(orderRev, v)
		c.Neighbors(v).ForEach(func(u int) bool {
			if !selected[u] {
				weight[u]++
			}
			return true
		})
	}
	// Reverse: last selected is eliminated first.
	ordering := make([]int, n)
	for i, v := range orderRev {
		ordering[n-1-i] = v
	}
	width := 0
	eval := g.Clone()
	for _, v := range ordering {
		if d := eval.Eliminate(v); d > width {
			width = d
		}
	}
	return ordering, width
}

// MinorMinWidth implements algorithm minor-min-width (Fig. 4.7), also known
// as MMD+(least-c): repeatedly record the minimum degree and contract a
// minimum-degree vertex with its least-degree neighbour. The maximum
// recorded degree is a lower bound on treewidth.
func MinorMinWidth(g *elim.Graph, rng *rand.Rand) int {
	return NewMinor(g.NumVertices()).MinorMinWidth(context.Background(), g, rng)
}

// MinorGammaR implements algorithm minor-γ_R (Fig. 4.8): sort remaining
// vertices by degree ascending, find the first vertex not adjacent to all
// its predecessors, record its degree (the Ramachandramurthi γ parameter),
// contract it with a least-degree neighbour, repeat. For a complete
// residual graph γ = n−1.
func MinorGammaR(g *elim.Graph, rng *rand.Rand) int {
	return NewMinor(g.NumVertices()).MinorGammaR(context.Background(), g, rng)
}

// Minor is the workspace of the contraction bounds: a copy of an
// elimination graph's residual adjacency, with a degree array that every
// contraction updates in place. A search keeps one and reuses it at every
// node, so minor-min-width allocates nothing once the workspace has been
// filled. A Minor is not safe for concurrent use.
type Minor struct {
	adj   []*bitset.Set // adjacency of the alive vertices
	deg   []int         // deg[v] = |adj[v]| for alive v
	alive *bitset.Set   // vertices neither removed nor contracted away
	seen  *bitset.Set   // minor-γ_R's scanned prefix
	order []int         // minor-γ_R's vertices by degree
	ties  []int
	chk   interrupt.Checker
}

// NewMinor returns a workspace for graphs of n vertices.
func NewMinor(n int) *Minor {
	m := &Minor{adj: make([]*bitset.Set, n), deg: make([]int, n), alive: bitset.New(n), seen: bitset.New(n)}
	for v := range m.adj {
		m.adj[v] = bitset.New(n)
	}
	return m
}

// load copies g's residual graph into the workspace and returns its
// number of vertices.
func (m *Minor) load(g *elim.Graph) int {
	m.alive.Clear()
	g.ForEachRemaining(func(v int) {
		m.adj[v].CopyFrom(g.Neighbors(v))
		m.deg[v] = g.Degree(v)
		m.alive.Add(v)
	})
	return g.Remaining()
}

// LowerBound is LowerBoundCtx on m: minor-min-width, then minor-γ_R.
func (m *Minor) LowerBound(ctx context.Context, g *elim.Graph, rng *rand.Rand) int {
	return max(m.MinorMinWidth(ctx, g, rng), m.MinorGammaR(ctx, g, rng))
}

// MinorMinWidth runs minor-min-width on m's copy of g. It collects the same
// ties in the same (ascending) order and makes the same rng draws as a run
// on a clone of g, so the bound and rng's state afterwards are the same.
// Each degree recorded during the contraction is by itself a treewidth
// lower bound, so when ctx ends early the bound so far is returned: weaker,
// still admissible, and no error is needed.
func (m *Minor) MinorMinWidth(ctx context.Context, g *elim.Graph, rng *rand.Rand) int {
	m.chk.Reset(ctx, 8)
	lb := 0
	for remaining := m.load(g); remaining > 0; remaining-- {
		if m.chk.Stop() {
			return lb
		}
		// Find min-degree vertex.
		best := int(^uint(0) >> 1)
		m.ties = m.ties[:0]
		m.alive.ForEach(func(v int) bool {
			best = m.tie(v, best)
			return true
		})
		v := pick(m.ties, rng)
		if d := m.deg[v]; d > lb {
			lb = d
		}
		if m.deg[v] == 0 {
			m.alive.Remove(v)
			continue
		}
		// Contract the edge: merge v's least-degree neighbour into v (the
		// merged vertex inherits both neighbourhoods, as in a graph minor).
		m.contract(v, m.leastDegreeNeighbor(v, rng))
	}
	return lb
}

// MinorGammaR runs minor-γ_R on m's copy of g, with the same sort order,
// contractions and rng draws as a run on a clone of g. Like MinorMinWidth,
// an early end of ctx returns the (admissible) bound accumulated so far.
func (m *Minor) MinorGammaR(ctx context.Context, g *elim.Graph, rng *rand.Rand) int {
	m.chk.Reset(ctx, 8)
	lb := 0
	for remaining := m.load(g); remaining > 1; remaining-- {
		if m.chk.Stop() {
			return lb
		}
		// Sort ascending by degree (stable by index for determinism).
		m.order = m.order[:0]
		m.alive.ForEach(func(v int) bool {
			m.order = append(m.order, v)
			return true
		})
		m.sortByDegree(m.order)
		v := -1
		m.seen.Clear()
		m.seen.Add(m.order[0])
		for _, w := range m.order[1:] {
			if !m.seen.SubsetOf(m.adj[w]) {
				v = w
				break
			}
			m.seen.Add(w)
		}
		if v < 0 {
			// Residual graph is complete: γ = n−1 and we are done.
			if g := remaining - 1; g > lb {
				lb = g
			}
			break
		}
		if d := m.deg[v]; d > lb {
			lb = d
		}
		if m.deg[v] == 0 {
			m.alive.Remove(v)
			continue
		}
		m.contract(v, m.leastDegreeNeighbor(v, rng))
	}
	return lb
}

// sortByDegree sorts vs by (degree, index) ascending.
func (m *Minor) sortByDegree(vs []int) {
	// Insertion sort: vertex lists here are short-lived and nearly sorted
	// across iterations; avoids pulling in sort for a hot path.
	for i := 1; i < len(vs); i++ {
		v := vs[i]
		d := m.deg[v]
		j := i - 1
		for j >= 0 && (m.deg[vs[j]] > d || (m.deg[vs[j]] == d && vs[j] > v)) {
			vs[j+1] = vs[j]
			j--
		}
		vs[j+1] = v
	}
}

// leastDegreeNeighbor returns a neighbour of v with minimum degree,
// breaking ties randomly.
func (m *Minor) leastDegreeNeighbor(v int, rng *rand.Rand) int {
	best := int(^uint(0) >> 1)
	m.ties = m.ties[:0]
	m.adj[v].ForEach(func(u int) bool {
		best = m.tie(u, best)
		return true
	})
	return pick(m.ties, rng)
}

// tie offers v to a running minimum-degree scan whose best degree so far is
// best, collecting the vertices of minimum degree in m.ties in the order
// offered. It returns the new best degree.
func (m *Minor) tie(v, best int) int {
	switch d := m.deg[v]; {
	case d < best:
		m.ties = append(m.ties[:0], v)
		return d
	case d == best:
		m.ties = append(m.ties, v)
	}
	return best
}

// contract merges u into its neighbour v: v gains u's other neighbours and
// u leaves the graph. Each w ∈ N(u) \ {v} loses u and, unless it was
// already adjacent to v, gains v in its place.
func (m *Minor) contract(v, u int) {
	av := m.adj[v]
	m.adj[u].ForEach(func(w int) bool {
		if w == v {
			return true
		}
		aw := m.adj[w]
		aw.Remove(u)
		if av.Contains(w) {
			m.deg[w]--
		} else {
			av.Add(w)
			aw.Add(v)
			m.deg[v]++
		}
		return true
	})
	av.Remove(u)
	m.deg[v]--
	m.alive.Remove(u)
}

// Degeneracy returns the degeneracy lower bound (MMD): the maximum over the
// min-degree elimination process of the minimum degree encountered.
func Degeneracy(g *elim.Graph) int {
	c := g.Clone()
	lb := 0
	for c.Remaining() > 0 {
		v := c.MinDegreeVertex()
		if d := c.Degree(v); d > lb {
			lb = d
		}
		c.Remove(v)
	}
	return lb
}

// LowerBound returns the combined treewidth lower bound used by A*-tw and
// BB-ghw: the maximum of minor-min-width and minor-γ_R (§5.1).
func LowerBound(g *elim.Graph, rng *rand.Rand) int {
	return LowerBoundCtx(context.Background(), g, rng)
}

// LowerBoundCtx is LowerBound with cancellation; aborting early yields a
// weaker but still admissible bound.
func LowerBoundCtx(ctx context.Context, g *elim.Graph, rng *rand.Rand) int {
	return NewMinor(g.NumVertices()).LowerBound(ctx, g, rng)
}
