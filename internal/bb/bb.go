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
// The per-node work — seed, finish bound, candidates, child evaluation —
// is search.Kernel's, shared with A*; this package is the traversal.
//
// Given enough budget the result is exact (Exact=true); under a node budget
// the incumbent upper bound and the best proven lower bound are returned.
package bb

import (
	"context"
	"math/rand"

	"hypertree/internal/interrupt"
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
	// Min-fill draws from the same rng as the mode's bounds.
	rng := rand.New(rand.NewSource(opt.Seed))
	k := search.NewKernel(ctx, m, rng, opt)
	seed, lb, done := k.Seed(ctx, rng)
	if done {
		return seed
	}
	n := k.G.Remaining()
	s := &bbState{k: k, opt: opt, chk: interrupt.New(ctx, 4),
		ub: seed.Width, best: seed.Ordering,
		prefix: make([]int, 0, n), cands: make([][]int, n)}

	// The depth-first loop is the branch-expansion phase; oracle and LP
	// time inside it self-attributes, leaving the driver's own share here.
	branchMark := opt.Stats.MarkPhase()
	s.dfs(search.Node{F: lb})
	opt.Stats.AttributeSince(telemetry.PhaseBranch, branchMark)

	res := search.Result{Width: s.ub, Ordering: s.best, Nodes: s.nodes}
	if s.stopped {
		// The root bound is the proven lower bound: the open leaves were
		// not all closed.
		res.LowerBound = min(lb, res.Width)
	} else {
		res.LowerBound = s.ub
		res.Exact = true
	}
	return res
}

type bbState struct {
	k   *search.Kernel
	opt search.Options
	chk *interrupt.Checker

	ub      int   // incumbent width
	best    []int // incumbent ordering
	prefix  []int // current elimination prefix
	nodes   int64
	stopped bool // node budget exhausted or context cancelled

	// cands holds each depth's candidate list, indexed by prefix length.
	cands [][]int
}

// dfs explores all completions of the current prefix, whose node is n.
func (s *bbState) dfs(n search.Node) {
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
	g := s.k.G
	if g.Remaining() == 0 {
		if n.G < s.ub {
			s.ub = n.G
			s.best = append(s.best[:0], s.prefix...)
			s.opt.Incumbent(s.ub)
		}
		return
	}

	// Pruning Rule 1: finishing now costs max(n.G, finish).
	finish := s.k.Finish()
	if w := max(n.G, finish); w < s.ub {
		s.ub = w
		s.best = append(s.best[:0], s.prefix...)
		g.ForEachRemaining(func(v int) { s.best = append(s.best, v) })
		s.opt.Incumbent(s.ub)
	}
	if finish <= n.G {
		s.opt.Stats.Add(telemetry.PruneCoverBound, 1)
		return // no completion beats n.G, which PR1 just recorded
	}

	depth := len(s.prefix)
	s.cands[depth] = s.k.Candidates(s.cands[depth][:0], &n)
	for _, v := range s.cands[depth] {
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
		c, ok := s.k.Child(v, n, s.ub)
		if !ok {
			continue
		}
		s.prefix = append(s.prefix, v)
		s.dfs(c)
		s.prefix = s.prefix[:len(s.prefix)-1]
		g.Restore()
	}
}
