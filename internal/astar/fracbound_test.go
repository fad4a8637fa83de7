package astar

import (
	"context"
	"testing"

	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/search"
)

// A*-ghw with the fractional residual bound proves the same widths; the
// stronger heuristic reorders expansions but cannot change the optimum.
func TestGHWFracBoundSameWidths(t *testing.T) {
	instances := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"clique_8", gen.CliqueHypergraph(8)},
		{"grid2d_4", gen.Grid2DHypergraph(4, 4)},
		{"queenhg_4", hypergraph.FromGraph(gen.Queen(4))},
		{"random_10", gen.RandomHypergraph(10, 8, 4, 3)},
	}
	for _, inst := range instances {
		base := Search(context.Background(), search.GHW(inst.h), search.Options{Seed: 1})
		frac := Search(context.Background(), search.GHW(inst.h), search.Options{Seed: 1, FracBound: true})
		if base.Width != frac.Width || base.Exact != frac.Exact {
			t.Errorf("%s: frac bound changed the answer: (%d, %v) vs (%d, %v)",
				inst.name, base.Width, base.Exact, frac.Width, frac.Exact)
		}
	}
}
