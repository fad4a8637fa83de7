package ga

import (
	"context"
	"math"
	"math/rand"

	"hypertree/internal/bitset"
	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
	"hypertree/internal/order"
)

// WeightedTreewidth runs the genetic algorithm with the Bayesian-network
// triangulation objective of Larrañaga et al. (thesis §4.5): minimise
//
//	w(TD) = log₂ Σ_{u ∈ T} ∏_{v ∈ χ(u)} states(v)
//
// over tree decompositions of the moral-graph hypergraph h, where
// states(v) is the number of states of variable v. This weighs clique
// state-space sizes instead of plain cardinalities, matching the cost of
// junction-tree inference.
//
// states must have one entry ≥ 1 per vertex of h.
func WeightedTreewidth(h *hypergraph.Hypergraph, states []int, cfg Config) FloatResult {
	if len(states) != h.NumVertices() {
		panic("ga: states length must match vertex count")
	}
	for _, s := range states {
		if s < 1 {
			panic("ga: variable state counts must be ≥ 1")
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return evolve(context.Background(), h.NumVertices(), cfg, rng, newWeightedEvaluator(h, states).weight, nil)
}

// WeightedWidth evaluates the Larrañaga objective of a single ordering:
// log₂ of the total state space of the tree decomposition the ordering
// induces.
func WeightedWidth(h *hypergraph.Hypergraph, states []int, o order.Ordering) float64 {
	if len(states) != h.NumVertices() {
		panic("ga: states length must match vertex count")
	}
	return newWeightedEvaluator(h, states).weight(o)
}

// weightedEvaluator computes w(TD) for the decomposition induced by an
// ordering, reusing buffers.
type weightedEvaluator struct {
	base      []*bitset.Set
	log2State []float64
	g         *elim.Graph
}

func newWeightedEvaluator(h *hypergraph.Hypergraph, states []int) *weightedEvaluator {
	logs := make([]float64, len(states))
	for i, s := range states {
		logs[i] = math.Log2(float64(s))
	}
	return &weightedEvaluator{
		g:         elim.New(h.PrimalGraph()),
		log2State: logs,
	}
}

// weight evaluates log₂ Σ_u ∏_{v∈χ(u)} states(v) via log-sum-exp to avoid
// overflow for large cliques.
func (e *weightedEvaluator) weight(o order.Ordering) float64 {
	g := e.g.Clone()
	// Collect log₂ of each clique's state product.
	logTerms := make([]float64, 0, len(o))
	for _, v := range o {
		sum := e.log2State[v]
		g.Neighbors(v).ForEach(func(u int) bool {
			sum += e.log2State[u]
			return true
		})
		logTerms = append(logTerms, sum)
		g.Eliminate(v)
	}
	// log2(Σ 2^t) = maxT + log2(Σ 2^(t−maxT)).
	maxT := math.Inf(-1)
	for _, t := range logTerms {
		if t > maxT {
			maxT = t
		}
	}
	sum := 0.0
	for _, t := range logTerms {
		sum += math.Exp2(t - maxT)
	}
	return maxT + math.Log2(sum)
}
