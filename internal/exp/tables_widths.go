package exp

import (
	"context"
	"fmt"

	"hypertree/internal/bb"
	"hypertree/internal/detk"
	"hypertree/internal/frac"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/search"
)

// TableS1 goes beyond the thesis: the width-measure comparison at the
// heart of the hypertree-decomposition survey — α-acyclicity, fractional
// hypertree width, generalized hypertree width and hypertree width side by
// side, witnessing fhw ≤ ghw ≤ hw ≤ tw+1 on every instance.
func TableS1(cfg Config) *Table {
	t := &Table{
		ID:     "S.1",
		Title:  "Width measures side by side (fhw ≤ ghw ≤ hw ≤ tw+1)",
		Header: []string{"Hypergraph", "V", "H", "acyclic", "fhw≤", "ghw", "hw", "tw"},
		Notes: []string{
			"fhw column is the fractional width of the best ghw ordering (∨ min-fill); ghw/hw are exact under budget ('?' = open)",
		},
	}
	type instance struct {
		name string
		h    *hypergraph.Hypergraph
	}
	instances := []instance{
		{"chain_12", gen.Chain(12, 4, 2)},
		{"cycle_9", hypergraph.FromGraph(gen.Cycle(9))},
		{"adder_8", gen.Adder(8)},
		{"bridge_8", gen.Bridge(8)},
		{"clique_8", gen.CliqueHypergraph(8)},
		{"grid2d_4", gen.Grid2DHypergraph(4, 4)},
	}
	if cfg.Full {
		instances = append(instances, instance{"adder_25", gen.Adder(25)}, instance{"clique_12", gen.CliqueHypergraph(12)})
	}
	for _, inst := range instances {
		h := inst.h
		ghw := bb.Search(context.Background(), search.GHW(h), search.Options{MaxNodes: cfg.ghwNodes(), Seed: cfg.Seed})
		// fhw upper bound: the fractional width of the best ghw ordering
		// (≤ its integral width by LP relaxation), improved by min-fill if
		// that happens to be fractionally better.
		fhw := frac.Width(h, ghw.Ordering)
		if mf, _ := frac.MinFillUpperBound(h, cfg.Seed); mf < fhw {
			fhw = mf
		}
		ghwStr := itoa(ghw.Width)
		if !ghw.Exact {
			ghwStr = "?≤" + ghwStr
		}

		// hw ≥ ghw, so det-k's levels start at the exact ghw. A level the
		// guess cap cuts short leaves hw open.
		hwStr := "?"
		k := 0
		if ghw.Exact {
			k = ghw.Width
		}
		for ; k <= ghw.Width+2; k++ {
			// Without a deadline det-k returns no error.
			r, _ := detk.Decompose(context.Background(), h, k, detk.Options{MaxGuesses: 200_000})
			if r.Decomposition != nil {
				hwStr = itoa(k)
			}
			if r.Decomposition != nil || !r.Complete {
				break
			}
		}

		tw := bb.Search(context.Background(), search.Treewidth(h.PrimalGraph()), search.Options{MaxNodes: cfg.twNodes(), Seed: cfg.Seed})
		twStr := itoa(tw.Width)
		if !tw.Exact {
			twStr = "?≤" + twStr
		}

		t.Rows = append(t.Rows, []string{
			inst.name, itoa(h.NumVertices()), itoa(h.NumEdges()),
			fmt.Sprintf("%v", h.IsAcyclic()), fmt.Sprintf("%.2f", fhw),
			ghwStr, hwStr, twStr,
		})
	}
	return t
}
