package search

import (
	"context"
	"math/rand"
	"time"

	"hypertree/internal/bitset"
	"hypertree/internal/elim"
	"hypertree/internal/heur"
	"hypertree/internal/reduce"
	"hypertree/internal/telemetry"
)

// Kernel is the per-node work the branch-and-bound and A* searches share
// over one elimination graph: the heuristic seed, the finish bound, the
// candidate rule and the child evaluation. Each piece runs behind its
// prune rule's clock and counts its prunes, so the engines keep only their
// traversal: BB walks the tree depth-first, A* best-first. A Kernel is not
// safe for concurrent use.
type Kernel struct {
	// G is the elimination graph the search morphs: a node's prefix is
	// eliminated in G while the kernel works on it.
	G    *elim.Graph
	mode Mode
	opt  Options
	dom  *Dominance
	// pr2 holds the siblings that PR2 pruned for the last child Child
	// evaluated; that child's Candidates call reads it.
	pr2 *bitset.Set
}

// Node is one search-tree node as the kernel reads it.
type Node struct {
	// G is the width of the node's prefix, F its bound: max(G, the
	// residual bound, the parent's F).
	G, F int
	// PR2 reports that the kernel's PR2 set holds the candidates the
	// node's evaluation pruned.
	PR2 bool
	// Reduced reports that the candidate rule forced one vertex.
	Reduced bool
}

// NewKernel returns the kernel of a search over m's orderings: an
// elimination graph of m.G, and m's cost mode with its bounds drawing on
// rng (see Measure.Mode).
func NewKernel(ctx context.Context, m Measure, rng *rand.Rand, opt Options) *Kernel {
	return &Kernel{
		G:    elim.New(m.G),
		mode: m.Mode(ctx, rng, opt),
		opt:  opt,
		dom:  NewDominance(opt.DisableDominance),
		pr2:  bitset.New(m.G.NumVertices()),
	}
}

// ruleStart opens a rule-clock window: the zero time without a Stats,
// where RuleSince does nothing, and the wall clock with one. Every
// per-node rule window of the searches opens here.
func ruleStart(st *telemetry.Stats) time.Time {
	if st == nil {
		return time.Time{}
	}
	return time.Now()
}

// Seed runs the root's heuristic seed: the min-fill ordering, drawn with
// rng, is the first incumbent, costed under the mode and reported through
// OnIncumbent, and the mode's root bound is the first lower bound. The
// window attributes to the heuristic-seed phase, less what the oracle
// claims for itself. res carries the incumbent's width and ordering. done
// reports that res is already the search's whole result: the graph is
// empty, the root bound meets the incumbent (Exact), or ctx ended before
// min-fill finished (no ordering; see Result).
func (k *Kernel) Seed(ctx context.Context, rng *rand.Rand) (res Result, lb int, done bool) {
	if k.G.Remaining() == 0 {
		return Result{Exact: true, Ordering: []int{}}, 0, true
	}
	st := k.opt.Stats
	mark := st.MarkPhase()
	ord, _, err := heur.MinFillCtxStats(ctx, k.G, rng, st)
	if err != nil {
		return Result{}, 0, true
	}
	ub := OrderCost(k.G, k.mode, ord)
	k.opt.Incumbent(ub)
	lb = k.mode.RootLB(k.G)
	st.AttributeSince(telemetry.PhaseHeurSeed, mark)
	res = Result{Width: ub, Ordering: ord}
	if lb >= ub {
		res.LowerBound, res.Exact = ub, true
		return res, lb, true
	}
	return res, lb, false
}

// Finish is the finish bound of the current node: completing its prefix
// now, in any order, costs at most max(G, Finish()). BB records that
// completion and prunes when Finish() ≤ G (Pruning Rule 1); A* stops at
// the first such node (its goal test).
func (k *Kernel) Finish() int {
	rt := ruleStart(k.opt.Stats)
	finish := k.mode.FinishCost(k.G)
	k.opt.Stats.RuleSince(telemetry.RuleCoverBound, rt)
	return finish
}

// Candidates appends the vertices n branches on to dst and returns the
// list: a forced simplicial or strongly almost simplicial vertex when the
// mode allows the reduction rule and one exists (n.Reduced is set then),
// otherwise every remaining vertex that is not in n's PR2 set.
func (k *Kernel) Candidates(dst []int, n *Node) []int {
	st := k.opt.Stats
	if !k.opt.DisableReduction && k.mode.Reduction {
		rt := ruleStart(st)
		v, ok := reduce.Find(k.G, n.F)
		st.RuleSince(telemetry.RuleSimplicial, rt)
		if ok {
			st.Add(telemetry.PruneSimplicial, 1)
			n.Reduced = true
			return append(dst, v)
		}
	}
	k.G.ForEachRemaining(func(v int) {
		if n.PR2 && k.pr2.Contains(v) {
			st.Add(telemetry.PrunePR2, 1)
			return
		}
		dst = append(dst, v)
	})
	return dst
}

// Child evaluates the child of n that eliminates v, against the incumbent
// width ub. Unless n was reduced or PR2 is off, it first fills the PR2 set
// with the child's candidates that a swap with v makes redundant; the
// child's Candidates call reads that set, so it must come before the next
// Child call, as it does in both traversals. Then it costs the step and
// cuts off at ub, eliminates v, probes the dominance cache, and cuts off
// again on the residual bound. When ok, v stays eliminated in G for the
// caller to restore; otherwise G is as it was.
func (k *Kernel) Child(v int, n Node, ub int) (c Node, ok bool) {
	st := k.opt.Stats
	c.PR2 = !k.opt.DisablePR2 && !n.Reduced
	if c.PR2 {
		rt := ruleStart(st)
		PR2Pruned(k.G, v, k.mode.Swappable, k.pr2)
		st.RuleSince(telemetry.RulePR2, rt)
	}
	c.G = max(n.G, k.mode.StepCost(k.G, v))
	if c.G >= ub {
		st.Add(telemetry.PruneLBCutoff, 1)
		return c, false
	}
	k.G.Eliminate(v)
	if k.dom != nil {
		rt := ruleStart(st)
		pruned := k.dom.Pruned(k.G, c.G)
		st.RuleSince(telemetry.RuleDominance, rt)
		if pruned {
			st.Add(telemetry.PruneDominance, 1)
			k.G.Restore()
			return c, false
		}
	}
	rt := ruleStart(st)
	h := k.mode.ResidualLB(k.G)
	st.RuleSince(telemetry.RuleLBCutoff, rt)
	c.F = max(c.G, h, n.F)
	if c.F >= ub {
		st.Add(telemetry.PruneLBCutoff, 1)
		k.G.Restore()
		return c, false
	}
	return c, true
}
