// Package search contains the machinery shared by the branch-and-bound,
// A* and genetic algorithms for treewidth and generalized hypertree width:
// the width Measure and the cost "modes" it builds, which differentiate tw
// from ghw search (thesis ch. 5, 8, 9), the PR1/PR2 pruning rules (§4.4.5,
// §8.3), the reduction-restricted branching rule (§4.4.3), and the node
// Kernel that runs them for BB and A*.
//
// Both searches explore the tree of elimination-ordering prefixes. A Mode
// abstracts the three quantities that differ between the two width
// measures:
//
//	            treewidth            generalized hypertree width
//	StepCost    degree of v          exact cover size of {v} ∪ N(v)
//	ResidualLB  minor-min-width      tw-ksc-width (CoverLowerBound∘MMW)
//	FinishCost  |remaining| − 1      greedy cover size of remaining set
//
// FinishCost(g) must satisfy: the partial ordering can be completed in
// arbitrary order with every further step costing at most FinishCost(g).
// This yields the generalized PR1 rule: with current prefix cost gc,
// finishing now costs max(gc, FinishCost); if FinishCost ≤ gc the subtree
// cannot beat gc and is pruned after recording the bound.
package search

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
	"hypertree/internal/setcover"
	"hypertree/internal/telemetry"
)

// Mode bundles the cost structure of a width measure over elimination
// orderings. Modes are not safe for concurrent use.
type Mode struct {
	// StepCost is the cost of eliminating v from g now.
	StepCost func(g *elim.Graph, v int) int
	// ResidualLB lower-bounds the cost of the most expensive future step of
	// ANY completion of the current prefix.
	ResidualLB func(g *elim.Graph) int
	// FinishCost upper-bounds the cost of every future step if the prefix
	// is completed in arbitrary order right now.
	FinishCost func(g *elim.Graph) int
	// RootLB is a (possibly slower, stronger) lower bound used once at the
	// root of a search.
	RootLB func(g *elim.Graph) int
	// Reduction reports whether the simplicial / strongly almost simplicial
	// branching restriction (§4.4.3) preserves optimality under this cost
	// structure. It holds for treewidth, where eliminating a simplicial
	// vertex costs exactly its degree and cannot hurt any completion. It
	// does NOT hold for generalized hypertree width: the forced vertex fixes
	// which χ-sets must be covered, and a cover-optimal ordering may need to
	// eliminate elsewhere first (on the 3×3 grid hypergraph the restriction
	// yields 3 while ghw over orderings is 2).
	Reduction bool
	// Swappable reports whether the orderings "…, v, w, …" and
	// "…, w, v, …" have equal width under this cost structure, evaluated on
	// the graph in which neither vertex has been eliminated (Pruning Rule
	// 2). Non-adjacent pairs swap under every measure
	// (NonAdjacentSwappable), so PR2Pruned asks Swappable only about
	// adjacent pairs; nil means that no adjacent pair swaps. See
	// PR2Swappable.
	Swappable func(g *elim.Graph, v, w int) bool
}

// Measure is a width measure over the elimination orderings of G:
// treewidth when H is nil, otherwise the generalized hypertree width of H,
// whose primal graph G is. The two differ only in what one elimination
// step costs — the size of the bag or the size of its edge cover — over
// the same space of orderings (Theorem 3), so every search takes a Measure
// and asks it for the cost Mode and the GA's width evaluator.
type Measure struct {
	// G is the graph whose elimination orderings are searched.
	G *hypergraph.Graph
	// H is the hypergraph whose χ-sets are covered; nil for treewidth.
	H *hypergraph.Hypergraph
}

// Treewidth is the treewidth measure of g.
func Treewidth(g *hypergraph.Graph) Measure { return Measure{G: g} }

// GHW is the generalized hypertree width measure of h, searched over the
// orderings of its primal graph.
func GHW(h *hypergraph.Hypergraph) Measure { return Measure{G: h.PrimalGraph(), H: h} }

// Evaluator returns the width evaluator the genetic algorithms score
// orderings with: bag sizes for treewidth, greedy covers with rng
// tie-breaking for ghw (Fig. 7.1/7.2).
func (m Measure) Evaluator(rng *rand.Rand) *order.Evaluator {
	if m.H == nil {
		return order.NewTWEvaluator(m.G)
	}
	return order.NewGHWEvaluator(m.H, rng, false, nil)
}

// Mode returns the measure's cost mode. ctx is plumbed into the residual
// and root lower bounds: when it is cancelled they abort early with weaker,
// still admissible bounds, so a cancelled search unwinds without finishing
// a potentially expensive per-node heuristic first. rng feeds the
// randomised tie-breaking of those heuristics; it may be nil.
//
// For ghw, step costs use exact set covers (so search optima equal ghw by
// Theorem 3); the finish bound uses the greedy cover of the remaining
// vertex set, which is a valid completion cost because covering is
// monotone: every future χ-set is a subset of the current remaining set.
// opt.Cover memoizes the exact step covers and the greedy finish covers
// (nil = a private oracle). All covers the mode requests are computed
// deterministically (the oracle's contract), so the mode's values never
// depend on cache state or on who else shares the oracle. When opt.Stats
// is non-nil, every oracle query carries the calling worker's phase clock
// (probe/solve/LP split); attaching it never changes any mode value.
//
// opt.FracBound strengthens the ghw residual and root bounds. Every
// completion of the current prefix starts by eliminating some remaining
// vertex v, whose χ-set in the current graph is exactly {v} ∪ N(v) (no
// further fill has happened yet), at an integral cover cost of at least
// ⌈ρ*({v} ∪ N(v))⌉ — so min over remaining v of ⌈ρ*(χ_v)⌉ lower-bounds the
// width of every completion and max(set-cover bound, that minimum) stays
// admissible while strictly dominating the k-set-cover bound alone. The LPs
// run through the shared oracle's frac memo, on exactly the bags StepCost
// interns, so the cascade's marginal cost is mostly cache probes; the
// set-cover bound is computed first and the scan aborts as soon as some
// vertex's ceiling cannot improve on it. An LP failure silently falls back
// to the set-cover bound (weaker, still admissible), preserving
// determinism: the fallback depends only on the instance, never on cache
// state. With a Stats attached the cascade records its bound-effectiveness
// — LP evaluations, wins over the k-set-cover base, the margin
// distribution, and the cascade's rule time.
//
// Treewidth ignores opt.Cover, opt.FracBound and opt.Stats.
func (m Measure) Mode(ctx context.Context, rng *rand.Rand, opt Options) Mode {
	// The contraction bounds run on one workspace per mode (and so per
	// search), which the residual bound reuses at every child.
	minor := heur.NewMinor(m.G.NumVertices())
	if m.H == nil {
		return Mode{
			StepCost:   func(g *elim.Graph, v int) int { return g.Degree(v) },
			ResidualLB: func(g *elim.Graph) int { return minor.MinorMinWidth(ctx, g, rng) },
			FinishCost: func(g *elim.Graph) int { return g.Remaining() - 1 },
			RootLB:     func(g *elim.Graph) int { return minor.LowerBound(ctx, g, rng) },
			Reduction:  true,
			Swappable:  PR2Swappable,
		}
	}
	h, orc, st := m.H, opt.Cover, opt.Stats
	if orc == nil {
		orc = cover.New(h, cover.Options{})
	}
	scratch := bitset.New(h.NumVertices())
	fracScratch := bitset.New(h.NumVertices())
	ksc := setcover.SortedEdgeSizes(h)
	// fracFloor raises base to the fractional completion bound, early-
	// exiting once no remaining vertex can beat base. This is the cascade
	// the ROADMAP's bound-quality question is about, so it self-reports:
	// one FracLPEval per ρ* query, and per completed cascade the margin
	// (best − base, 0 on non-wins) plus the whole window as rule time.
	fracFloor := func(g *elim.Graph, base int) int {
		rt := ruleStart(st)
		best := -1
		done := false
		g.ForEachRemaining(func(v int) {
			if done {
				return
			}
			fracScratch.CopyFrom(g.Neighbors(v))
			fracScratch.Add(v)
			st.Add(telemetry.FracLPEvals, 1)
			val, err := orc.FracValue(fracScratch, st)
			if err != nil {
				best, done = -1, true // fall back to the set-cover bound
				return
			}
			c := int(math.Ceil(val - 1e-9))
			if best < 0 || c < best {
				best = c
				if best <= base {
					done = true // the minimum cannot end up above base
				}
			}
		})
		if st != nil {
			if best >= 0 { // completed cascade (not the LP-error fallback)
				margin := best - base
				if margin < 0 {
					margin = 0
				}
				st.FracBoundOutcome(int64(margin))
			}
			st.RuleSince(telemetry.RuleFracBound, rt)
		}
		if best > base {
			return best
		}
		return base
	}
	return Mode{
		StepCost: func(g *elim.Graph, v int) int {
			scratch.CopyFrom(g.Neighbors(v))
			scratch.Add(v)
			return orc.ExactSize(scratch, st)
		},
		ResidualLB: func(g *elim.Graph) int {
			if g.Remaining() == 0 {
				return 0
			}
			twlb := minor.MinorMinWidth(ctx, g, rng)
			lb := ksc.TwKscLowerBound(twlb)
			if opt.FracBound {
				lb = fracFloor(g, lb)
			}
			return lb
		},
		FinishCost: func(g *elim.Graph) int {
			if g.Remaining() == 0 {
				return 0
			}
			scratch.FillBelowExcept(g.NumVertices(), g.EliminatedSet(), nil)
			return orc.GreedySize(scratch, st)
		},
		RootLB: func(g *elim.Graph) int {
			if g.Remaining() == 0 {
				return 0
			}
			lb := ksc.TwKscLowerBound(minor.LowerBound(ctx, g, rng))
			if opt.FracBound {
				lb = fracFloor(g, lb)
			}
			return lb
		},
		// The simplicial branching restriction and the adjacent case of the
		// PR2 swap argue over clique CARDINALITIES, which cover sizes do not
		// respect; only the non-adjacent swap (identical χ-sets either way)
		// is width-preserving for ghw, so the mode has no Swappable test.
		Reduction: false,
	}
}

// PR2Swappable implements the treewidth interchangeability test of Pruning
// Rule 2 (§4.4.5), evaluated on the graph in which NEITHER v nor w has been
// eliminated: the orderings "…, v, w, …" and "…, w, v, …" have equal width
// if v and w are non-adjacent, or if they are adjacent and each has a
// remaining neighbour that is not a neighbour of the other. The adjacent
// case only equates the SIZES of the two elimination cliques, so it is
// sound for treewidth but not for cover-based widths.
func PR2Swappable(g *elim.Graph, v, w int) bool {
	nv, nw := g.Neighbors(v), g.Neighbors(w)
	if !nv.Contains(w) {
		return true
	}
	// x ∈ N(v) \ (N(w) ∪ {w}) and y ∈ N(w) \ (N(v) ∪ {v}) exist iff each
	// private part holds more than the other vertex itself.
	common := nv.IntersectionCount(nw)
	return g.Degree(v)-common > 1 && g.Degree(w)-common > 1
}

// NonAdjacentSwappable is the swap test valid for every width measure over
// elimination orderings: when v and w are non-adjacent, eliminating one
// adds no fill edge incident to the other, so both orders produce exactly
// the same two χ-sets and the widths coincide — whatever the per-clique
// cost (degree, exact cover, fractional cover). PR2Pruned applies it to
// every pair at once, word by word, which is why a mode's Swappable need
// only judge adjacent pairs.
func NonAdjacentSwappable(g *elim.Graph, v, w int) bool {
	return !g.Neighbors(v).Contains(w)
}

// PR2Pruned fills pruned with the candidate successors w of the elimination
// of v that Pruning Rule 2 removes: remaining w with w < v whose swap with v
// is width-preserving. The canonical representative kept is the branch
// eliminating the smaller-indexed vertex first. Every non-adjacent w swaps,
// so one pass over words prunes remaining ∩ [0, v) \ N(v); swappable is
// asked only about w ∈ N(v) ∩ [0, v), and not at all when nil. Must be
// called BEFORE eliminating v. pruned is the caller's and is overwritten.
func PR2Pruned(g *elim.Graph, v int, swappable func(*elim.Graph, int, int) bool, pruned *bitset.Set) {
	nv := g.Neighbors(v)
	pruned.FillBelowExcept(v, g.EliminatedSet(), nv)
	if swappable == nil {
		return
	}
	nv.ForEach(func(w int) bool {
		if w >= v {
			return false
		}
		if swappable(g, v, w) {
			pruned.Add(w)
		}
		return true
	})
}

// maxDominanceEntries caps the eliminated sets a Dominance cache records.
const maxDominanceEntries = 1 << 21

// Dominance is the eliminated-set dominance cache of the exact searches
// (an extension beyond the thesis, in the style of Dow & Korf duplicate
// detection). The completions of a prefix depend only on the set it
// eliminated, so a prefix that reaches a set at no lower cost than an
// earlier one cannot improve on it. A nil *Dominance is disabled.
type Dominance struct {
	slot map[string]int32 // eliminated-set key → its index in cost
	cost []int            // best prefix cost seen, per recorded set
	key  []byte           // the probed key, reused
}

// NewDominance returns an empty cache, or nil when disabled.
func NewDominance(disabled bool) *Dominance {
	if disabled {
		return nil
	}
	return &Dominance{slot: make(map[string]int32)}
}

// Pruned reports whether g's eliminated set was reached before at a prefix
// cost of at most cg. Otherwise it records cg for the set, while the cache
// holds fewer than its cap. Only recording a new set allocates.
func (d *Dominance) Pruned(g *elim.Graph, cg int) bool {
	if d == nil {
		return false
	}
	d.key = g.EliminatedSet().AppendKey(d.key[:0])
	i, ok := d.slot[string(d.key)]
	if ok && d.cost[i] <= cg {
		return true
	}
	if len(d.cost) < maxDominanceEntries {
		if ok {
			d.cost[i] = cg
		} else {
			d.slot[string(d.key)] = int32(len(d.cost))
			d.cost = append(d.cost, cg)
		}
	}
	return false
}

// OrderCost evaluates a complete elimination ordering of g's remaining
// vertices under the mode, restoring g to its entry depth afterwards.
func OrderCost(g *elim.Graph, mode Mode, ordering []int) int {
	depth := g.Depth()
	cost := 0
	for _, v := range ordering {
		if c := mode.StepCost(g, v); c > cost {
			cost = c
		}
		g.Eliminate(v)
	}
	g.RestoreTo(depth)
	return cost
}

// Options configures a width search. The zero value means: no limits,
// all prunings enabled, deterministic tie-breaking.
type Options struct {
	// MaxNodes bounds the number of search-tree nodes expanded (0 = no
	// bound). When exceeded, results carry Exact=false.
	MaxNodes int64
	// MaxMemoryStates bounds the number of states an A* search may hold
	// (0 = default cap).
	MaxMemoryStates int
	// DisablePR2 turns off Pruning Rule 2.
	DisablePR2 bool
	// DisableReduction turns off the simplicial / strongly almost
	// simplicial branching restriction.
	DisableReduction bool
	// DisableDominance turns off eliminated-set dominance caching (an
	// extension beyond the thesis, in the style of Dow & Korf duplicate
	// detection).
	DisableDominance bool
	// Seed feeds randomised tie-breaking in bound heuristics.
	Seed int64
	// FracBound enables the fractional strengthening of the GHW lower
	// bounds (see Measure.Mode): residual and root bounds become
	// max(k-set-cover bound, min over remaining v of ⌈ρ*({v} ∪ N(v))⌉).
	// Opt-in because every bound improvement costs LP probes; the widths
	// found are identical either way — only node counts change. Ignored by
	// treewidth searches.
	FracBound bool
	// Cover, when non-nil, is the shared cover-oracle the GHW searches
	// memoize their set-cover subproblems in. Portfolio runs hand every
	// worker the same oracle; sharing (or evicting, or disabling) the
	// cache never changes any result, because everything memoized is
	// computed deterministically. Ignored by treewidth searches.
	Cover *cover.Oracle
	// Stats, when non-nil, receives live telemetry counters (nodes
	// expanded, prunes by rule, heuristic steps). A nil Stats costs one
	// nil check per instrumentation point and nothing else. Attaching it
	// never changes the search result.
	Stats *telemetry.Stats
	// OnIncumbent, when non-nil, is invoked with each strict improvement
	// of the incumbent width, including the initial heuristic incumbent.
	// It is called synchronously on the search path, so it must be cheap
	// and must not block.
	OnIncumbent func(width int)
	// Trace, when non-nil, receives sampled structured events (batched
	// node pulses every 1024 expansions, incumbent instants) on the Track
	// timeline. Like Stats, a nil Trace costs one nil check per
	// instrumentation point, and attaching one never changes the result.
	Trace *telemetry.Trace
	// Track is the trace timeline this search emits on: 0 for a
	// single-method run, worker slot+1 in a portfolio.
	Track int
}

// Incumbent reports a new incumbent width through OnIncumbent, tolerating
// an unset hook.
func (o *Options) Incumbent(width int) {
	if o.OnIncumbent != nil {
		o.OnIncumbent(width)
	}
}

// Result reports the outcome of a width search.
//
// Searches run under a context return their best incumbent when cancelled
// (Exact=false). If cancellation struck before any incumbent existed —
// i.e. during the initial heuristic — Ordering is nil and Width is
// meaningless; callers must treat a nil Ordering (on a non-empty instance)
// as "no result".
type Result struct {
	// Width is the best width found (an upper bound; exact when Exact).
	Width int
	// LowerBound is the best proven lower bound (== Width when Exact).
	LowerBound int
	// Exact reports whether Width is proven optimal.
	Exact bool
	// FracWidth is the fractional width achieved by an fhw run (zero for
	// the integral methods, whose objective is Width). An fhw Result also
	// fills Width with the integral ghw of its Ordering, so fhw can race
	// inside the portfolio's integral selection.
	FracWidth float64
	// Ordering is an elimination ordering achieving Width.
	Ordering []int
	// Nodes is the number of search-tree nodes expanded.
	Nodes int64
	// Winner names the method that produced Ordering. Single-method runs
	// report their own method; portfolio runs report the winning worker's.
	Winner string
	// LowerBoundBy names the method that proved LowerBound. In a
	// portfolio run this may differ from Winner: a losing exact search's
	// bound often outlives its ordering.
	LowerBoundBy string
	// Workers holds the per-worker outcomes of a portfolio run in slot
	// order (nil for single-method runs): method, width, bounds, wall
	// time, and — when telemetry is attached — the worker's counters.
	Workers []telemetry.Outcome
}
