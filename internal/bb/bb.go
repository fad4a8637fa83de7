// Package bb implements the branch-and-bound algorithms for treewidth
// (QuickBB / BB-tw style, thesis §4.4) and generalized hypertree width
// (algorithm BB-ghw, thesis ch. 8).
//
// Both searches walk the tree of elimination-ordering prefixes depth-first,
// maintaining the incumbent upper bound, and prune with:
//   - the bound f = max(g, h, parent f) against the incumbent,
//   - Pruning Rule 1 (finish-now bound, §4.4.5 / §8.3),
//   - Pruning Rule 2 (order-swap dominance, §4.4.5),
//   - the simplicial / strongly almost simplicial branching restriction
//     (§4.4.3),
//   - optional eliminated-set dominance caching (extension).
//
// Given enough budget the result is exact (Exact=true); under a node budget
// the incumbent upper bound and the best proven lower bound are returned.
package bb

import (
	"context"
	"math/rand"
	"time"

	"hypertree/internal/bitset"
	"hypertree/internal/elim"
	"hypertree/internal/heur"
	"hypertree/internal/interrupt"
	"hypertree/internal/reduce"
	"hypertree/internal/search"
	"hypertree/internal/telemetry"
)

// Search runs branch and bound over the elimination orderings of m.G under
// m's cost mode: BB-tw for treewidth, BB-ghw with exact set covers for ghw
// (Theorem 3 makes this space complete for ghw). When ctx is cancelled the
// search stops promptly and the incumbent upper bound plus the proven
// lower bound are returned with Exact=false (anytime behaviour, like an
// exhausted node budget). See search.Result for the no-incumbent corner
// case.
func Search(ctx context.Context, m search.Measure, opt search.Options) search.Result {
	rng := rand.New(rand.NewSource(opt.Seed))
	return run(ctx, elim.New(m.G), m.Mode(ctx, rng, opt), rng, opt)
}

type bbState struct {
	g    *elim.Graph
	mode search.Mode
	opt  search.Options
	rng  *rand.Rand
	chk  *interrupt.Checker

	ub      int   // incumbent width
	best    []int // incumbent ordering
	prefix  []int // current elimination prefix
	nodes   int64
	stopped bool // node budget exhausted or context cancelled

	// proven lower bound: min over open leaves of their f; tracked as the
	// root bound plus improvements when the whole tree is closed.
	rootF int

	dom *search.Dominance

	// Per-depth buffers, indexed by prefix length: the candidate list a
	// node branches over, and the PR2 set it hands its current child.
	cands [][]int
	pr2   []*bitset.Set
}

// run executes the generic branch and bound.
func run(ctx context.Context, g *elim.Graph, mode search.Mode, rng *rand.Rand, opt search.Options) search.Result {
	s := &bbState{g: g, mode: mode, opt: opt, rng: rng, chk: interrupt.New(ctx, 4),
		dom: search.NewDominance(opt.DisableDominance)}

	n := g.Remaining()
	if n == 0 {
		return search.Result{Exact: true, Ordering: []int{}}
	}

	// Initial bounds: min-fill upper bound, combined lower bound. If the
	// deadline strikes before even the initial heuristic completes there is
	// no incumbent to report (Ordering nil). The whole seeding window —
	// min-fill, its evaluation, the root bound — attributes to the
	// heuristic-seed phase, minus whatever the oracle claims for itself.
	seedMark := opt.Stats.MarkPhase()
	initOrder, _, err := heur.MinFillCtxStats(ctx, g, rng, opt.Stats)
	if err != nil {
		return search.Result{}
	}
	s.ub = search.OrderCost(g, mode, initOrder)
	s.best = append([]int(nil), initOrder...)
	s.opt.Incumbent(s.ub)
	lb := mode.RootLB(g)
	opt.Stats.AttributeSince(telemetry.PhaseHeurSeed, seedMark)
	s.rootF = lb

	if lb >= s.ub {
		return search.Result{Width: s.ub, LowerBound: s.ub, Exact: true, Ordering: s.best, Nodes: 0}
	}

	s.prefix = make([]int, 0, n)
	s.cands = make([][]int, n)
	s.pr2 = make([]*bitset.Set, n)
	for d := range s.pr2 {
		s.pr2[d] = bitset.New(g.NumVertices())
	}
	// The depth-first loop is the branch-expansion phase; oracle and LP
	// time inside it self-attributes, leaving the driver's own share here.
	branchMark := opt.Stats.MarkPhase()
	s.dfs(0, lb, nil)
	opt.Stats.AttributeSince(telemetry.PhaseBranch, branchMark)

	res := search.Result{Width: s.ub, Ordering: s.best, Nodes: s.nodes}
	if s.stopped {
		res.LowerBound = s.rootF
		if res.LowerBound > res.Width {
			res.LowerBound = res.Width
		}
	} else {
		res.LowerBound = s.ub
		res.Exact = true
	}
	return res
}

// dfs explores all completions of the current prefix. gc is the prefix
// cost; pr2 is the set of candidates pruned by PR2 (nil when the parent was
// produced by a reduction or PR2 is disabled).
func (s *bbState) dfs(gc, f int, pr2 *bitset.Set) {
	if s.stopped {
		return
	}
	s.nodes++
	if s.opt.MaxNodes > 0 && s.nodes > s.opt.MaxNodes {
		s.stopped = true
		return
	}
	if s.chk.Stop() {
		s.stopped = true
		return
	}

	s.opt.Stats.Add(telemetry.Nodes, 1)
	// Sampled trace pulse: one instant per 1024 expansions keeps the trace
	// out of the inner loop while still showing expansion rate over time.
	if s.opt.Trace != nil && s.nodes&1023 == 0 {
		s.opt.Trace.Instant(s.opt.Track, "bb.batch",
			telemetry.Arg{Key: "nodes", Val: s.nodes},
			telemetry.Arg{Key: "ub", Val: int64(s.ub)},
			telemetry.Arg{Key: "depth", Val: int64(len(s.prefix))})
	}
	rem := s.g.Remaining()
	if rem == 0 {
		if gc < s.ub {
			s.ub = gc
			s.best = append(s.best[:0], s.prefix...)
			s.opt.Incumbent(s.ub)
		}
		return
	}

	// Pruning Rule 1: finishing now costs max(gc, finish).
	rt := s.ruleStart()
	finish := s.mode.FinishCost(s.g)
	s.opt.Stats.RuleSince(telemetry.RuleCoverBound, rt)
	if w := max(gc, finish); w < s.ub {
		s.ub = w
		s.best = append(s.best[:0], s.prefix...)
		s.g.ForEachRemaining(func(v int) { s.best = append(s.best, v) })
		s.opt.Incumbent(s.ub)
	}
	if finish <= gc {
		s.opt.Stats.Add(telemetry.PruneCoverBound, 1)
		return // no completion beats gc, which PR1 just recorded
	}

	// Reduction rule: branch only on a simplicial / strongly almost
	// simplicial vertex when one exists — only in modes whose cost
	// structure supports it (treewidth yes, ghw no; see Mode.Reduction).
	depth := len(s.prefix)
	candidates := s.cands[depth][:0]
	reduced := false
	if !s.opt.DisableReduction && s.mode.Reduction {
		rt := s.ruleStart()
		if v, ok := reduce.Find(s.g, f); ok {
			candidates = append(candidates, v)
			reduced = true
			s.opt.Stats.Add(telemetry.PruneSimplicial, 1)
		}
		s.opt.Stats.RuleSince(telemetry.RuleSimplicial, rt)
	}
	if !reduced {
		s.g.ForEachRemaining(func(v int) {
			if pr2 != nil && pr2.Contains(v) {
				s.opt.Stats.Add(telemetry.PrunePR2, 1)
				return
			}
			candidates = append(candidates, v)
		})
	}
	s.cands[depth] = candidates

	for _, v := range candidates {
		if s.stopped {
			return
		}
		// Candidate expansion does real work (PR2, set-cover step costs,
		// residual bounds), so poll here too — a single node's loop can
		// otherwise outlive a deadline by many milliseconds.
		if s.chk.Stop() {
			s.stopped = true
			return
		}
		// Child bound pieces must be computed before elimination (PR2) and
		// after (residual lower bound).
		var childPR2 *bitset.Set
		if !s.opt.DisablePR2 && !reduced {
			rt := s.ruleStart()
			childPR2 = s.pr2[depth]
			search.PR2Pruned(s.g, v, s.mode.Swappable, childPR2)
			s.opt.Stats.RuleSince(telemetry.RulePR2, rt)
		}
		step := s.mode.StepCost(s.g, v)
		cg := max(gc, step)
		if cg >= s.ub {
			s.opt.Stats.Add(telemetry.PruneLBCutoff, 1)
			continue
		}
		s.g.Eliminate(v)
		s.prefix = append(s.prefix, v)

		rt = s.ruleStart()
		domHit := s.dom.Pruned(s.g, cg)
		s.opt.Stats.RuleSince(telemetry.RuleDominance, rt)
		if domHit {
			s.opt.Stats.Add(telemetry.PruneDominance, 1)
			s.prefix = s.prefix[:len(s.prefix)-1]
			s.g.Restore()
			continue
		}

		rt = s.ruleStart()
		h := s.mode.ResidualLB(s.g)
		s.opt.Stats.RuleSince(telemetry.RuleLBCutoff, rt)
		cf := max(cg, h, f)
		if cf < s.ub {
			s.dfs(cg, cf, childPR2)
		} else {
			s.opt.Stats.Add(telemetry.PruneLBCutoff, 1)
		}

		s.prefix = s.prefix[:len(s.prefix)-1]
		s.g.Restore()
	}
}

// ruleStart opens a rule-time window: the zero time when telemetry is off
// (RuleSince then no-ops), time.Now when a Stats is attached.
func (s *bbState) ruleStart() time.Time {
	if s.opt.Stats == nil {
		return time.Time{}
	}
	return time.Now()
}
