// Package heur implements the upper- and lower-bound heuristics of thesis
// §4.4.2: the min-fill and min-degree ordering heuristics (upper bounds on
// treewidth), maximum-cardinality search, the minor-min-width /
// MMD+(least-c) lower bound (Fig. 4.7), the minor-γ_R lower bound
// (Fig. 4.8), and the degeneracy lower bound.
//
// All heuristics operate on an elim.Graph and leave the argument untouched
// (they clone internally), so they can be invoked on the residual graphs
// that arise inside branch-and-bound and A* searches. Ordering heuristics
// return the elimination order of the graph's remaining vertices together
// with the width of the tree decomposition that order induces.
package heur

import (
	"context"
	"math/rand"
	"time"

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
	o, w, _ := MinFillCtx(context.Background(), g, rng)
	return o, w
}

// MinFillCtx is MinFill with cancellation: it checks ctx once per
// elimination step and returns ctx's error (and no ordering) when cancelled.
// A partial greedy ordering is useless — unlike the lower-bound heuristics
// there is no anytime value to salvage — so cancellation aborts outright.
func MinFillCtx(ctx context.Context, g *elim.Graph, rng *rand.Rand) ([]int, int, error) {
	return MinFillCtxStats(ctx, g, rng, nil)
}

// MinFillCtxStats is MinFillCtx with telemetry: each greedy elimination
// step is counted into st (nil = disabled). The counters never influence
// the ordering produced.
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
	return MinorMinWidthCtx(context.Background(), g, rng)
}

// MinorMinWidthCtx is MinorMinWidth with cancellation. Each degree recorded
// during the contraction process is by itself a valid treewidth lower
// bound, so aborting early simply returns a (possibly weaker) admissible
// bound — no error is needed.
func MinorMinWidthCtx(ctx context.Context, g *elim.Graph, rng *rand.Rand) int {
	chk := interrupt.New(ctx, 8)
	c := g.Clone()
	lb := 0
	var ties []int
	for c.Remaining() > 0 {
		if chk.Stop() {
			return lb
		}
		// Find min-degree vertex.
		best := int(^uint(0) >> 1)
		ties = ties[:0]
		c.ForEachRemaining(func(v int) {
			d := c.Degree(v)
			switch {
			case d < best:
				best = d
				ties = ties[:0]
				ties = append(ties, v)
			case d == best:
				ties = append(ties, v)
			}
		})
		v := pick(ties, rng)
		if d := c.Degree(v); d > lb {
			lb = d
		}
		if c.Degree(v) == 0 {
			c.Remove(v)
			continue
		}
		u := leastDegreeNeighbor(c, v, rng)
		// Contract the edge: merge u into v (the merged vertex inherits
		// both neighbourhoods, as in a graph minor).
		c.Contract(v, u)
	}
	return lb
}

// leastDegreeNeighbor returns a neighbour of v with minimum degree,
// breaking ties randomly.
func leastDegreeNeighbor(c *elim.Graph, v int, rng *rand.Rand) int {
	best := int(^uint(0) >> 1)
	var ties []int
	c.Neighbors(v).ForEach(func(u int) bool {
		d := c.Degree(u)
		switch {
		case d < best:
			best = d
			ties = ties[:0]
			ties = append(ties, u)
		case d == best:
			ties = append(ties, u)
		}
		return true
	})
	return pick(ties, rng)
}

// MinorGammaR implements algorithm minor-γ_R (Fig. 4.8): sort remaining
// vertices by degree ascending, find the first vertex not adjacent to all
// its predecessors, record its degree (the Ramachandramurthi γ parameter),
// contract it with a least-degree neighbour, repeat. For a complete
// residual graph γ = n−1.
func MinorGammaR(g *elim.Graph, rng *rand.Rand) int {
	return MinorGammaRCtx(context.Background(), g, rng)
}

// MinorGammaRCtx is MinorGammaR with cancellation; like MinorMinWidthCtx,
// an early abort returns the (admissible) bound accumulated so far.
func MinorGammaRCtx(ctx context.Context, g *elim.Graph, rng *rand.Rand) int {
	chk := interrupt.New(ctx, 8)
	c := g.Clone()
	lb := 0
	for c.Remaining() > 1 {
		if chk.Stop() {
			return lb
		}
		vs := c.RemainingVertices()
		// Sort ascending by degree (stable by index for determinism).
		sortByDegree(c, vs)
		v := -1
		for i := 1; i < len(vs); i++ {
			adjAll := true
			for j := 0; j < i; j++ {
				if !c.Neighbors(vs[i]).Contains(vs[j]) {
					adjAll = false
					break
				}
			}
			if !adjAll {
				v = vs[i]
				break
			}
		}
		if v < 0 {
			// Residual graph is complete: γ = n−1 and we are done.
			if g := c.Remaining() - 1; g > lb {
				lb = g
			}
			break
		}
		if d := c.Degree(v); d > lb {
			lb = d
		}
		if c.Degree(v) == 0 {
			c.Remove(v)
			continue
		}
		c.Contract(v, leastDegreeNeighbor(c, v, rng))
	}
	return lb
}

func sortByDegree(c *elim.Graph, vs []int) {
	// Insertion sort: vertex lists here are short-lived and nearly sorted
	// across iterations; avoids pulling in sort for a hot path.
	for i := 1; i < len(vs); i++ {
		v := vs[i]
		d := c.Degree(v)
		j := i - 1
		for j >= 0 && (c.Degree(vs[j]) > d || (c.Degree(vs[j]) == d && vs[j] > v)) {
			vs[j+1] = vs[j]
			j--
		}
		vs[j+1] = v
	}
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
	lb := MinorMinWidthCtx(ctx, g, rng)
	if r := MinorGammaRCtx(ctx, g, rng); r > lb {
		lb = r
	}
	return lb
}

// UpperBound returns the min-fill upper bound and its ordering (§5.1 uses
// min-fill as the initial upper bound heuristic).
func UpperBound(g *elim.Graph, rng *rand.Rand) ([]int, int) {
	return MinFill(g, rng)
}
