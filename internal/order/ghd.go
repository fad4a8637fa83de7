package order

import (
	"math/rand"

	"hypertree/internal/bitset"
	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/setcover"
)

// GHD builds a generalized hypertree decomposition from an elimination
// ordering (thesis §2.5.2): run vertex elimination to obtain a tree
// decomposition, then cover every χ label with hyperedges. With exact=true
// the covers are optimal (the thesis's "bucket elimination with exact set
// covering"); otherwise the greedy heuristic with rng tie-breaking is used.
// The returned decomposition carries λ labels; its GHWidth() is the width
// of the ordering in the sense of Def. 17 (exactly, when exact=true).
// Covers come from orc (nil = a private oracle): passing the oracle of the
// search that produced o lets the final λ-materialization reuse the exact
// covers the search already memoized. Greedy covers with a non-nil rng
// bypass the oracle (see NewGHWEvaluator); greedy covers with rng == nil
// go through it.
func GHD(h *hypergraph.Hypergraph, o Ordering, rng *rand.Rand, exact bool, orc *cover.Oracle) *decomp.Decomposition {
	d := VertexElimination(h, o)
	d.CoverChi(newCoverFunc(h, rng, exact, orc))
	return d
}

func newCoverFunc(h *hypergraph.Hypergraph, rng *rand.Rand, exact bool, orc *cover.Oracle) func(*bitset.Set) []int {
	if !exact && rng != nil {
		return setcover.New(h, rng).Greedy
	}
	if orc == nil {
		orc = cover.New(h, cover.Options{})
	}
	if exact {
		return orc.Exact
	}
	return orc.Greedy
}

// GHWidth returns width(σ, H) per Def. 17 when exact=true: the maximum,
// over the cliques produced by eliminating σ, of the minimum cover size.
// With exact=false it is the greedy upper bound GA-ghw optimizes. Covers
// come from orc (nil = a private oracle); see NewGHWEvaluator for the
// sharing contract.
func GHWidth(h *hypergraph.Hypergraph, o Ordering, rng *rand.Rand, exact bool, orc *cover.Oracle) int {
	return NewGHWEvaluator(h, rng, exact, orc).Width(o)
}

// TWWidth returns the tree-decomposition width of the ordering over the
// primal graph of h.
func TWWidth(h *hypergraph.Hypergraph, o Ordering) int {
	return NewTWEvaluator(h.PrimalGraph()).Width(o)
}
