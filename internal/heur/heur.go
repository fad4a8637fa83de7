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
	"math"
	"math/bits"
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
// elimination graph's residual adjacency as one flat matrix of words, one
// row per vertex, next to a degree array that every contraction updates in
// place. A search keeps one and reuses it at every node, so
// minor-min-width allocates nothing once the workspace has been filled,
// and its scans walk set bits with no call per vertex. A Minor is not safe
// for concurrent use.
type Minor struct {
	adj   []uint64   // row v, words [v·nw, (v+1)·nw), holds N(v) for alive v
	deg   []int32    // deg[v] = |N(v)| for alive v
	nw    int        // words per row
	alive bitset.Set // vertices neither removed nor contracted away
	seen  []uint64   // minor-γ_R's scanned prefix
	order []int      // minor-γ_R's vertices by degree
	ties  []int
	chk   interrupt.Checker
}

// NewMinor returns a workspace for graphs of n vertices.
func NewMinor(n int) *Minor {
	m := &Minor{}
	m.resize(n)
	return m
}

// resize shapes the workspace for graphs of n vertices, reusing its arrays
// when they are large enough.
func (m *Minor) resize(n int) {
	m.nw = (n + 63) / 64
	if cap(m.adj) < n*m.nw {
		m.adj = make([]uint64, n*m.nw)
		m.deg = make([]int32, n)
		m.seen = make([]uint64, m.nw)
	}
	m.adj, m.deg, m.seen = m.adj[:n*m.nw], m.deg[:n], m.seen[:m.nw]
}

// row returns v's adjacency words.
func (m *Minor) row(v int) []uint64 { return m.adj[v*m.nw : (v+1)*m.nw] }

// load copies g's residual graph into the workspace and returns its
// number of vertices.
func (m *Minor) load(g *elim.Graph) int {
	m.resize(g.NumVertices())
	m.alive.FillBelowExcept(g.NumVertices(), g.EliminatedSet(), nil)
	for wi, w := range m.alive.Words() {
		for ; w != 0; w &= w - 1 {
			v := wi<<6 | bits.TrailingZeros64(w)
			row := m.row(v)
			clear(row[copy(row, g.Neighbors(v).Words()):])
			m.deg[v] = int32(g.Degree(v))
		}
	}
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
		v := pick(m.leastDegree(m.alive.Words()), rng)
		d := int(m.deg[v])
		lb = max(lb, d)
		if d == 0 {
			m.alive.Remove(v)
			continue
		}
		// Contract the edge: merge v's least-degree neighbour into v (the
		// merged vertex inherits both neighbourhoods, as in a graph minor).
		m.contract(v, pick(m.leastDegree(m.row(v)), rng))
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
		for wi, w := range m.alive.Words() {
			for ; w != 0; w &= w - 1 {
				m.order = append(m.order, wi<<6|bits.TrailingZeros64(w))
			}
		}
		m.sortByDegree(m.order)
		// v is the first vertex not adjacent to all of its predecessors.
		v := -1
		clear(m.seen)
		m.seen[m.order[0]>>6] |= 1 << (m.order[0] & 63)
		for _, w := range m.order[1:] {
			if !m.adjacentToSeen(w) {
				v = w
				break
			}
			m.seen[w>>6] |= 1 << (w & 63)
		}
		if v < 0 {
			// Residual graph is complete: γ = n−1 and we are done.
			if g := remaining - 1; g > lb {
				lb = g
			}
			break
		}
		d := int(m.deg[v])
		lb = max(lb, d)
		if d == 0 {
			m.alive.Remove(v)
			continue
		}
		m.contract(v, pick(m.leastDegree(m.row(v)), rng))
	}
	return lb
}

// adjacentToSeen reports whether w is adjacent to every vertex of m.seen.
func (m *Minor) adjacentToSeen(w int) bool {
	for i, r := range m.row(w) {
		if m.seen[i]&^r != 0 {
			return false
		}
	}
	return true
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

// leastDegree collects in m.ties, ascending, the vertices of minimum
// degree among the set bits of words (the alive set, or a row), and
// returns them.
func (m *Minor) leastDegree(words []uint64) []int {
	best := int32(math.MaxInt32)
	ties := m.ties[:0]
	for wi, w := range words {
		for ; w != 0; w &= w - 1 {
			v := wi<<6 | bits.TrailingZeros64(w)
			switch d := m.deg[v]; {
			case d < best:
				best = d
				ties = append(ties[:0], v)
			case d == best:
				ties = append(ties, v)
			}
		}
	}
	m.ties = ties
	return ties
}

// contract merges u into its neighbour v: v gains u's other neighbours and
// u leaves the graph. Word by word, each common neighbour w ∈ N(u) ∩ N(v)
// loses u and so one degree, and each fresh one w ∈ N(u) \ N(v) \ {v}
// swaps u for v, which gains w.
func (m *Minor) contract(v, u int) {
	rv := m.row(v)
	uw, ub := u>>6, uint64(1)<<(u&63)
	vw, vb := v>>6, uint64(1)<<(v&63)
	for i, a := range m.row(u) {
		if i == vw {
			a &^= vb
		}
		common, fresh := a&rv[i], a&^rv[i]
		rv[i] |= fresh
		m.deg[v] += int32(bits.OnesCount64(fresh))
		for ; common != 0; common &= common - 1 {
			w := i<<6 | bits.TrailingZeros64(common)
			m.adj[w*m.nw+uw] &^= ub
			m.deg[w]--
		}
		for ; fresh != 0; fresh &= fresh - 1 {
			w := i<<6 | bits.TrailingZeros64(fresh)
			m.adj[w*m.nw+uw] &^= ub
			m.adj[w*m.nw+vw] |= vb
		}
	}
	rv[uw] &^= ub
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
