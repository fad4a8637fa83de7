package exp

import (
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
)

// GraphInstance is a named colouring-graph benchmark with the treewidth
// value the thesis reports (−1 when the thesis only has bounds).
type GraphInstance struct {
	Name    string
	Build   func() *hypergraph.Graph
	PaperTW int    // exact treewidth per Table 5.1/5.2, −1 if open there
	PaperUB int    // best upper bound per Table 6.6, −1 if absent
	Family  string // "exact" construction or "substitute"
}

// Graphs returns the DIMACS-style benchmark suite; full=true adds the
// paper-scale members. Exported for the JSON bench harness.
func Graphs(full bool) []GraphInstance { return graphSuite(full) }

// Hypergraphs returns the CSP hypergraph benchmark suite; full=true adds
// the paper-scale members. Exported for the JSON bench harness.
func Hypergraphs(full bool) []HGInstance { return hypergraphSuite(full) }

// graphSuite returns the DIMACS-style suite. With full=false the larger
// members are dropped so exact searches finish within bench budgets.
func graphSuite(full bool) []GraphInstance {
	small := []GraphInstance{
		{"myciel3", func() *hypergraph.Graph { return gen.Mycielski(3) }, 5, 5, "exact"},
		{"myciel4", func() *hypergraph.Graph { return gen.Mycielski(4) }, 10, 10, "exact"},
		{"queen5_5", func() *hypergraph.Graph { return gen.Queen(5) }, 18, 18, "exact"},
		{"queen6_6", func() *hypergraph.Graph { return gen.Queen(6) }, 25, 25, "exact"},
		{"DSJC30.2*", func() *hypergraph.Graph { return gen.ErdosRenyi(30, 0.2, 301) }, -1, -1, "substitute"},
		{"miles60*", func() *hypergraph.Graph { return gen.RandomGeometric(60, 0.22, 601) }, -1, -1, "substitute"},
		{"le45_6*", func() *hypergraph.Graph { return gen.KPartite(45, 6, 0.15, 451) }, -1, -1, "substitute"},
	}
	if !full {
		return small
	}
	return append(small,
		GraphInstance{"myciel5", func() *hypergraph.Graph { return gen.Mycielski(5) }, -1, 19, "exact"},
		GraphInstance{"queen7_7", func() *hypergraph.Graph { return gen.Queen(7) }, -1, 35, "exact"},
		GraphInstance{"myciel6", func() *hypergraph.Graph { return gen.Mycielski(6) }, -1, 35, "exact"},
		GraphInstance{"myciel7", func() *hypergraph.Graph { return gen.Mycielski(7) }, -1, 54, "exact"},
		GraphInstance{"DSJC125.1*", func() *hypergraph.Graph { return gen.ErdosRenyi(125, 0.1, 1251) }, -1, 64, "substitute"},
		GraphInstance{"DSJC125.5*", func() *hypergraph.Graph { return gen.ErdosRenyi(125, 0.5, 1255) }, -1, 109, "substitute"},
		GraphInstance{"miles250*", func() *hypergraph.Graph { return gen.RandomGeometric(128, 0.12, 2501) }, -1, 9, "substitute"},
		GraphInstance{"le450_25a*", func() *hypergraph.Graph { return gen.KPartite(450, 25, 0.08, 4501) }, -1, 234, "substitute"},
	)
}

// gaTuningSuite is the small instance set used for the operator and
// parameter comparison tables (6.1–6.5); the thesis tuned on games120,
// homer, inithx, le450_25d, myciel7, queen16_16, zeroin — we keep the two
// exact constructions plus substitutes of comparable density.
func gaTuningSuite(full bool) []GraphInstance {
	out := []GraphInstance{
		{"queen6_6", func() *hypergraph.Graph { return gen.Queen(6) }, 25, 25, "exact"},
		{"myciel4", func() *hypergraph.Graph { return gen.Mycielski(4) }, 10, 10, "exact"},
		{"games40*", func() *hypergraph.Graph { return gen.RandomGeometric(40, 0.3, 1201) }, -1, -1, "substitute"},
	}
	if full {
		out = append(out,
			GraphInstance{"queen16_16", func() *hypergraph.Graph { return gen.Queen(16) }, -1, 186, "exact"},
			GraphInstance{"myciel7", func() *hypergraph.Graph { return gen.Mycielski(7) }, -1, 54, "exact"},
			GraphInstance{"le450_25d*", func() *hypergraph.Graph { return gen.KPartite(450, 25, 0.17, 4504) }, -1, 336, "substitute"},
		)
	}
	return out
}

// HGInstance is a named hypergraph benchmark with the thesis's best-known
// upper bound on ghw (−1 when not reported) and the exactly known ghw
// (−1 when open).
type HGInstance struct {
	Name     string
	Build    func() *hypergraph.Hypergraph
	PaperUB  int // Table 7.1 "ub" column (best known before the thesis)
	KnownGHW int // provable ghw of our construction, −1 if unknown
	Family   string
}

// ref is the instance's known/paper cell: the exactly known ghw, else the
// thesis's best upper bound, else "-".
func (inst HGInstance) ref() string {
	switch {
	case inst.KnownGHW >= 0:
		return itoa(inst.KnownGHW)
	case inst.PaperUB >= 0:
		return itoa(inst.PaperUB)
	}
	return "-"
}

// hypergraphSuite returns the CSP hypergraph library suite (§7.1.3).
func hypergraphSuite(full bool) []HGInstance {
	small := []HGInstance{
		{"adder_10", func() *hypergraph.Hypergraph { return gen.Adder(10) }, 2, 2, "exact"},
		{"bridge_10", func() *hypergraph.Hypergraph { return gen.Bridge(10) }, 2, -1, "substitute"},
		{"clique_10", func() *hypergraph.Hypergraph { return gen.CliqueHypergraph(10) }, 5, 5, "exact"},
		{"chain_15", func() *hypergraph.Hypergraph { return gen.Chain(15, 4, 2) }, 1, 1, "exact"},
		{"grid2d_6", func() *hypergraph.Hypergraph { return gen.Grid2DHypergraph(6, 6) }, -1, -1, "exact"},
		// Binary-edge queen hypergraph: a dense instance the exact searches
		// still solve at the root (the min-fill seed is provably optimal), so
		// it pins the trivial end of the -fracbound node gate.
		{"queenhg_4", func() *hypergraph.Hypergraph { return hypergraph.FromGraph(gen.Queen(4)) }, -1, -1, "exact"},
		// Random CSP hypergraph whose exact ghw search does real branching
		// (~850 BB/A* nodes in milliseconds): the instance where the
		// fractional bound's extra pruning is strict, anchoring the CI
		// -fracbound node-reduction gate (htdbench -compare -max-nodes 1.0).
		{"rand16*", func() *hypergraph.Hypergraph { return gen.RandomHypergraph(16, 14, 4, 2) }, -1, -1, "substitute"},
		{"b06*", func() *hypergraph.Hypergraph { return gen.Circuit(8, 42, 4, 106) }, 5, -1, "substitute"},
	}
	if !full {
		return small
	}
	return append(small,
		HGInstance{"adder_75", func() *hypergraph.Hypergraph { return gen.Adder(75) }, 2, 2, "exact"},
		HGInstance{"adder_99", func() *hypergraph.Hypergraph { return gen.Adder(99) }, 2, 2, "exact"},
		HGInstance{"bridge_50", func() *hypergraph.Hypergraph { return gen.Bridge(50) }, 2, -1, "substitute"},
		HGInstance{"clique_20", func() *hypergraph.Hypergraph { return gen.CliqueHypergraph(20) }, 10, 10, "exact"},
		HGInstance{"grid2d_10", func() *hypergraph.Hypergraph { return gen.Grid2DHypergraph(10, 20) }, 11, -1, "exact"},
		HGInstance{"grid3d_4", func() *hypergraph.Hypergraph { return gen.Grid3DHypergraph(4, 4, 4) }, -1, -1, "exact"},
		// adder_48 with its edge indices shuffled: the same hypergraph up to
		// edge order (ghw stays 2), but the shuffle defeats det-k-decomp's
		// index-order separator descent — the single-threaded width search
		// exhausts a multi-second deadline while the balanced-separator
		// engine still closes the instance exactly in about a second. It is
		// the CI anchor for the balsep-vs-detk bench gate.
		HGInstance{"adder_48_perm", func() *hypergraph.Hypergraph { return gen.ShuffleEdges(gen.Adder(48), 11) }, 2, 2, "exact"},
		HGInstance{"b08*", func() *hypergraph.Hypergraph { return gen.Circuit(30, 149, 4, 108) }, 10, -1, "substitute"},
		HGInstance{"c499*", func() *hypergraph.Hypergraph { return gen.Circuit(41, 202, 5, 499) }, 13, -1, "substitute"},
	)
}
