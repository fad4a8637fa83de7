package bb

import (
	"context"
	"testing"

	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/search"
)

// The fractional residual bound is admissible and at least as strong as
// the k-set-cover bound: widths and exactness are identical with it on or
// off, and since it only adds cutoffs to an otherwise unchanged DFS, the
// node count never grows.
func TestGHWFracBoundSameWidthsFewerNodes(t *testing.T) {
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
		if frac.Nodes > base.Nodes {
			t.Errorf("%s: frac bound expanded more nodes (%d) than the set-cover bound (%d)",
				inst.name, frac.Nodes, base.Nodes)
		}
		if base.LowerBound > frac.LowerBound {
			t.Errorf("%s: frac bound weakened the lower bound %d -> %d",
				inst.name, base.LowerBound, frac.LowerBound)
		}
	}
}
