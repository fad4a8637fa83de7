// Package frac implements fractional edge covers and fractional hypertree
// width (fhw), the third width measure of the hypertree decomposition
// survey: λ assigns non-negative WEIGHTS to hyperedges and χ(p) must be
// covered with total weight bounds. fhw(H) ≤ ghw(H) always, and queries are
// answerable in O(‖I‖^{fhw+O(1)}) (Grohe–Marx / AGM).
//
// Covers are computed exactly with the sparse revised simplex on the
// fractional matching dual, memoized in the shared cover.Oracle's frac
// memo so racing portfolio workers and the search engines' fractional
// lower bound reuse each other's LPs. The elimination-ordering search
// space carries over: the chapter-3 argument of the thesis works for any
// cover measure that is monotone under ⊆, and fractional covers are.
//
// The engine entry points (SearchCtx and LocalSearchCtx in anytime.go)
// follow the repo-wide anytime contract: deadline or cancellation
// returns the best incumbent with Complete=false and a nil error; an
// error is returned only when cancellation struck before the
// first incumbent existed. LP failures never panic — the width evaluator
// degrades the affected bag to its deterministic greedy integral cover
// (an upper bound on ρ*), so a numerical wobble costs width quality, not
// a portfolio worker.
package frac

import (
	"context"
	"math"
	"math/rand"

	"hypertree/internal/bitset"
	"hypertree/internal/cover"
	"hypertree/internal/elim"
	"hypertree/internal/heur"
	"hypertree/internal/hypergraph"
	"hypertree/internal/order"
)

// Cover returns ρ*(target), the minimum total weight of a fractional edge
// cover of the target vertices, together with the optimal per-edge weights
// (indexed by hyperedge; only edges with positive weight appear). Vertices
// in no hyperedge are unconstrained and ignored. The error is the wrapped
// LP failure — the matching LP is always feasible and bounded, so a
// non-nil error indicates numerical trouble, and callers that can degrade
// should fall back to an integral cover (the width evaluator does).
func Cover(h *hypergraph.Hypergraph, target *bitset.Set) (float64, map[int]float64, error) {
	orc := cover.New(h, cover.Options{Disabled: true})
	val, cov, err := orc.FracCover(target)
	if err != nil {
		return 0, nil, err
	}
	if len(cov) == 0 {
		return val, nil, nil
	}
	weights := make(map[int]float64, len(cov))
	for _, ew := range cov {
		weights[ew.Edge] = ew.Weight
	}
	return val, weights, nil
}

// Width returns the fractional width of the elimination ordering: the
// maximum ρ* over the χ-sets produced by eliminating σ. For at least one
// ordering this equals fhw(H) (the ch. 3 argument applied to the monotone
// measure ρ*). It panics on an invalid ordering (programmer error).
func Width(h *hypergraph.Hypergraph, o order.Ordering) float64 {
	if err := o.Validate(h.NumVertices()); err != nil {
		panic(err)
	}
	w, err := widthOn(context.Background(), elim.New(h.PrimalGraph()), nil, newEvaluator(h, nil, nil), o, 0)
	if err != nil {
		panic(err) // unreachable: nil checker never stops, evaluator never errors
	}
	return w
}

// MinFillUpperBound returns the fractional width of the min-fill ordering,
// a fast fhw upper bound. The ordering comes from heur.MinFill — the one
// min-fill implementation the whole repo shares.
func MinFillUpperBound(h *hypergraph.Hypergraph, seed int64) (float64, order.Ordering) {
	g := elim.New(h.PrimalGraph())
	o, _ := heur.MinFill(g, rand.New(rand.NewSource(seed)))
	return Width(h, order.Ordering(o)), order.Ordering(o)
}

// ExactSmall computes fhw exactly by enumerating all elimination orderings
// — usable only for very small hypergraphs (n ≤ ~8); used by tests.
func ExactSmall(h *hypergraph.Hypergraph) float64 {
	n := h.NumVertices()
	best := math.Inf(1)
	perm := order.Identity(n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if w := Width(h, perm); w < best {
				best = w
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}
