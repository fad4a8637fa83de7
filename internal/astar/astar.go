// Package astar implements the A* algorithms for treewidth (algorithm
// A*-tw, thesis ch. 5) and generalized hypertree width (algorithm A*-ghw,
// thesis ch. 9).
//
// The search graph is the tree of elimination-ordering prefixes. Each state
// carries g (the width of its prefix), h (a lower bound on the residual
// problem) and f = max(g, h, parent f); states are expanded in ascending f
// order, ties broken by preferring deeper states (§5.3). Because h is
// admissible and f is monotone along paths, the first state whose residual
// can be finished at no extra cost is optimal. On a node or memory budget
// the f value of the last expanded state is a valid lower bound (§5.3).
//
// A single elimination graph is morphed between states by restoring and
// re-eliminating along tree paths (§5.2.1); states store only their parent
// link and vertex (§5.2.2), and closed states drop their child lists
// (§5.2.3).
package astar

import (
	"container/heap"
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

// Search runs A* over the elimination orderings of m.G under m's cost
// mode: A*-tw for treewidth, A*-ghw for ghw. When ctx is cancelled the
// search stops promptly and returns the heuristic incumbent together with
// the anytime lower bound of §5.3 (Exact=false), exactly as when a node or
// memory budget is exhausted. See search.Result for the no-incumbent
// corner case.
func Search(ctx context.Context, m search.Measure, opt search.Options) search.Result {
	rng := rand.New(rand.NewSource(opt.Seed))
	return run(ctx, elim.New(m.G), m.Mode(ctx, rng, opt), opt)
}

// state is a node of the search tree (§5.2.2): the partial ordering is
// recovered by following parent links.
type state struct {
	parent   *state
	vertex   int // vertex eliminated to reach this state (-1 at root)
	depth    int
	g, f     int
	reduced  bool
	children []int // candidate successors (freed after expansion, §5.2.3)
	index    int   // heap index
}

// queue is a priority queue ordered by (f asc, depth desc).
type queue []*state

func (q queue) Len() int { return len(q) }
func (q queue) Less(i, j int) bool {
	if q[i].f != q[j].f {
		return q[i].f < q[j].f
	}
	return q[i].depth > q[j].depth
}
func (q queue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *queue) Push(x any) {
	s := x.(*state)
	s.index = len(*q)
	*q = append(*q, s)
}
func (q *queue) Pop() any {
	old := *q
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return s
}

const defaultMaxStates = 1 << 22

func run(ctx context.Context, g *elim.Graph, mode search.Mode, opt search.Options) search.Result {
	n := g.Remaining()
	if n == 0 {
		return search.Result{Exact: true, Ordering: []int{}}
	}
	maxStates := opt.MaxMemoryStates
	if maxStates <= 0 {
		maxStates = defaultMaxStates
	}
	chk := interrupt.New(ctx, 4)

	rng := rand.New(rand.NewSource(opt.Seed))
	// Heuristic-seed phase: min-fill, its evaluation, and the root bound,
	// minus whatever the oracle self-attributes inside the window.
	seedMark := opt.Stats.MarkPhase()
	ubOrder, _, err := heur.MinFillCtxStats(ctx, g, rng, opt.Stats)
	if err != nil {
		return search.Result{}
	}
	ub := search.OrderCost(g, mode, ubOrder)
	opt.Incumbent(ub)
	lb := mode.RootLB(g)
	opt.Stats.AttributeSince(telemetry.PhaseHeurSeed, seedMark)
	if lb >= ub {
		return search.Result{Width: ub, LowerBound: ub, Exact: true, Ordering: ubOrder}
	}

	// Everything from here to any return is the branch-expansion phase;
	// oracle probes/solves and LPs inside it self-attribute, the deferred
	// close keeps only the A* driver's own share (valid on every exit path).
	branchMark := opt.Stats.MarkPhase()
	defer opt.Stats.AttributeSince(telemetry.PhaseBranch, branchMark)

	root := &state{parent: nil, vertex: -1, depth: 0, g: 0, f: lb}
	root.children, root.reduced = rootChildren(g, mode, opt, lb)

	var q queue
	heap.Init(&q)
	heap.Push(&q, root)

	// dominance: eliminated set → best g enqueued.
	dom := search.NewDominance(opt.DisableDominance)
	// One PR2 set serves every child: successors reads it before the next
	// child overwrites it. tail is morph's path buffer.
	pr2 := bitset.New(g.NumVertices())
	var tail []int

	var nodes int64
	states := 1
	bestF := lb

	// cur tracks the prefix currently applied to g (as a state pointer).
	var cur *state

	for q.Len() > 0 {
		s := heap.Pop(&q).(*state)
		nodes++
		opt.Stats.Add(telemetry.Nodes, 1)
		// Sampled trace pulse: one instant per 1024 expansions shows the
		// f-frontier climbing without touching the hot loop.
		if opt.Trace != nil && nodes&1023 == 0 {
			opt.Trace.Instant(opt.Track, "astar.batch",
				telemetry.Arg{Key: "nodes", Val: nodes},
				telemetry.Arg{Key: "ub", Val: int64(ub)},
				telemetry.Arg{Key: "best_f", Val: int64(bestF)})
		}
		if opt.MaxNodes > 0 && nodes > opt.MaxNodes {
			return search.Result{
				Width: ub, LowerBound: min(bestF, ub), Exact: false,
				Ordering: ubOrder, Nodes: nodes,
			}
		}
		if chk.Stop() {
			g.RestoreTo(0)
			return search.Result{
				Width: ub, LowerBound: min(bestF, ub), Exact: false,
				Ordering: ubOrder, Nodes: nodes,
			}
		}
		if s.f > bestF {
			bestF = s.f // anytime lower bound (§5.3)
		}
		if s.f >= ub {
			// Remaining open states cannot beat the heuristic solution.
			opt.Stats.Add(telemetry.PruneLBCutoff, 1)
			return search.Result{Width: ub, LowerBound: ub, Exact: true, Ordering: ubOrder, Nodes: nodes}
		}

		cur, tail = morph(g, cur, s, tail)

		// Goal test: the residual can be finished at no cost beyond s.g.
		rt := ruleStart(opt.Stats)
		finish := mode.FinishCost(g)
		opt.Stats.RuleSince(telemetry.RuleCoverBound, rt)
		if finish <= s.g {
			ordering := prefixOf(s)
			g.ForEachRemaining(func(v int) { ordering = append(ordering, v) })
			g.RestoreTo(0)
			opt.Incumbent(s.g)
			return search.Result{Width: s.g, LowerBound: s.g, Exact: true, Ordering: ordering, Nodes: nodes}
		}

		// Expand children. Each child costs a step-cost evaluation and a
		// residual bound, so poll within the loop as well.
		for _, v := range s.children {
			if chk.Stop() {
				g.RestoreTo(0)
				return search.Result{
					Width: ub, LowerBound: min(bestF, ub), Exact: false,
					Ordering: ubOrder, Nodes: nodes,
				}
			}
			var childPR2 *bitset.Set
			if !opt.DisablePR2 && !s.reduced {
				rt := ruleStart(opt.Stats)
				childPR2 = pr2
				search.PR2Pruned(g, v, mode.Swappable, childPR2)
				opt.Stats.RuleSince(telemetry.RulePR2, rt)
			}
			step := mode.StepCost(g, v)
			cg := max(s.g, step)
			if cg >= ub {
				opt.Stats.Add(telemetry.PruneLBCutoff, 1)
				continue
			}
			g.Eliminate(v)

			if dom != nil {
				rt := ruleStart(opt.Stats)
				pruned := dom.Pruned(g, cg)
				opt.Stats.RuleSince(telemetry.RuleDominance, rt)
				if pruned {
					opt.Stats.Add(telemetry.PruneDominance, 1)
					g.Restore()
					continue
				}
			}

			rt := ruleStart(opt.Stats)
			h := mode.ResidualLB(g)
			opt.Stats.RuleSince(telemetry.RuleLBCutoff, rt)
			cf := max(cg, h, s.f)
			if cf >= ub {
				opt.Stats.Add(telemetry.PruneLBCutoff, 1)
				g.Restore()
				continue
			}
			t := &state{parent: s, vertex: v, depth: s.depth + 1, g: cg, f: cf}
			t.children, t.reduced = successors(g, mode, opt, cf, childPR2)
			g.Restore()

			heap.Push(&q, t)
			states++
			if states > maxStates {
				g.RestoreTo(0)
				return search.Result{
					Width: ub, LowerBound: min(bestF, ub), Exact: false,
					Ordering: ubOrder, Nodes: nodes,
				}
			}
		}
		s.children = nil // §5.2.3: free successor lists of closed states
	}

	// Queue exhausted without a goal: every state reached f ≥ ub, so the
	// heuristic upper bound is optimal.
	g.RestoreTo(0)
	return search.Result{Width: ub, LowerBound: ub, Exact: true, Ordering: ubOrder, Nodes: nodes}
}

// ruleStart opens a rule-time window: the zero time when telemetry is off
// (RuleSince then no-ops), time.Now when a Stats is attached.
func ruleStart(st *telemetry.Stats) time.Time {
	if st == nil {
		return time.Time{}
	}
	return time.Now()
}

// morph transforms the elimination graph from the prefix of state a to the
// prefix of state b by restoring to their deepest common ancestor and
// re-eliminating along b's path (§5.2.1). tail is a buffer for the path,
// returned for reuse.
func morph(g *elim.Graph, a, b *state, tail []int) (*state, []int) {
	if a == nil {
		g.RestoreTo(0)
		for _, v := range prefixOf(b) {
			g.Eliminate(v)
		}
		return b, tail
	}
	// Lift both to equal depth collecting b's tail.
	tail = tail[:0]
	x, y := a, b
	for x.depth > y.depth {
		x = x.parent
	}
	for y.depth > x.depth {
		tail = append(tail, y.vertex)
		y = y.parent
	}
	for x != y {
		x = x.parent
		tail = append(tail, y.vertex)
		y = y.parent
	}
	g.RestoreTo(x.depth)
	for i := len(tail) - 1; i >= 0; i-- {
		g.Eliminate(tail[i])
	}
	return b, tail
}

func prefixOf(s *state) []int {
	out := make([]int, s.depth)
	for t := s; t.parent != nil; t = t.parent {
		out[t.depth-1] = t.vertex
	}
	return out
}

// rootChildren computes the root state's candidate list.
func rootChildren(g *elim.Graph, mode search.Mode, opt search.Options, lb int) ([]int, bool) {
	return successors(g, mode, opt, lb, nil)
}

// successors lists the candidate vertices of the current residual graph:
// a forced simplicial / strongly almost simplicial vertex when the
// reduction rule applies, otherwise all remaining vertices minus the PR2
// pruned set.
func successors(g *elim.Graph, mode search.Mode, opt search.Options, f int, pr2 *bitset.Set) ([]int, bool) {
	if !opt.DisableReduction && mode.Reduction {
		rt := ruleStart(opt.Stats)
		v, ok := reduce.Find(g, f)
		opt.Stats.RuleSince(telemetry.RuleSimplicial, rt)
		if ok {
			opt.Stats.Add(telemetry.PruneSimplicial, 1)
			return []int{v}, true
		}
	}
	var out []int
	g.ForEachRemaining(func(v int) {
		if pr2 != nil && pr2.Contains(v) {
			opt.Stats.Add(telemetry.PrunePR2, 1)
			return
		}
		out = append(out, v)
	})
	return out, false
}
