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
// (§5.2.3). The per-node work — seed, goal test, candidates, child
// evaluation — is search.Kernel's, shared with BB; this package is the
// traversal.
package astar

import (
	"container/heap"
	"context"
	"math/rand"

	"hypertree/internal/elim"
	"hypertree/internal/interrupt"
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
	k := search.NewKernel(ctx, m, rand.New(rand.NewSource(opt.Seed)), opt)
	// Min-fill draws from a second rng with the same seed, so the mode's
	// bounds start from the seed's first draw.
	seed, lb, done := k.Seed(ctx, rand.New(rand.NewSource(opt.Seed)))
	if done {
		return seed
	}
	return run(ctx, k, seed, lb, opt)
}

// state is a node of the search tree (§5.2.2): the partial ordering is
// recovered by following parent links, and g and f are the kernel Node's.
type state struct {
	search.Node
	parent   *state
	vertex   int // vertex eliminated to reach this state (-1 at root)
	depth    int
	children []int // candidate successors (freed after expansion, §5.2.3)
	index    int   // heap index
}

// queue is a priority queue ordered by (f asc, depth desc).
type queue []*state

func (q queue) Len() int { return len(q) }
func (q queue) Less(i, j int) bool {
	if q[i].F != q[j].F {
		return q[i].F < q[j].F
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

// run expands states best-first from the root, whose bound is lb, against
// the incumbent seed.
func run(ctx context.Context, k *search.Kernel, seed search.Result, lb int, opt search.Options) search.Result {
	maxStates := opt.MaxMemoryStates
	if maxStates <= 0 {
		maxStates = defaultMaxStates
	}
	chk := interrupt.New(ctx, 4)
	g, ub, ubOrder := k.G, seed.Width, seed.Ordering

	// Everything from here to any return is the branch-expansion phase;
	// oracle probes/solves and LPs inside it self-attribute, the deferred
	// close keeps only the A* driver's own share (valid on every exit path).
	branchMark := opt.Stats.MarkPhase()
	defer opt.Stats.AttributeSince(telemetry.PhaseBranch, branchMark)

	root := &state{Node: search.Node{F: lb}, vertex: -1}
	root.children = k.Candidates(nil, &root.Node)

	var q queue
	heap.Init(&q)
	heap.Push(&q, root)

	var tail []int // morph's path buffer
	var nodes int64
	states := 1
	bestF := lb
	// stop ends the search without a proof: the heuristic incumbent and the
	// anytime lower bound.
	stop := func() search.Result {
		g.RestoreTo(0)
		return search.Result{
			Width: ub, LowerBound: min(bestF, ub), Exact: false,
			Ordering: ubOrder, Nodes: nodes,
		}
	}

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
		if opt.MaxNodes > 0 && nodes > opt.MaxNodes || chk.Stop() {
			return stop()
		}
		if s.F > bestF {
			bestF = s.F // anytime lower bound (§5.3)
		}
		if s.F >= ub {
			// Remaining open states cannot beat the heuristic solution.
			opt.Stats.Add(telemetry.PruneLBCutoff, 1)
			return search.Result{Width: ub, LowerBound: ub, Exact: true, Ordering: ubOrder, Nodes: nodes}
		}

		cur, tail = morph(g, cur, s, tail)

		// Goal test: the residual can be finished at no cost beyond s.G.
		if k.Finish() <= s.G {
			ordering := prefixOf(s)
			g.ForEachRemaining(func(v int) { ordering = append(ordering, v) })
			g.RestoreTo(0)
			opt.Incumbent(s.G)
			return search.Result{Width: s.G, LowerBound: s.G, Exact: true, Ordering: ordering, Nodes: nodes}
		}

		// Expand children. Each child costs a step-cost evaluation and a
		// residual bound, so poll within the loop as well.
		for _, v := range s.children {
			if chk.Stop() {
				return stop()
			}
			c, ok := k.Child(v, s.Node, ub)
			if !ok {
				continue
			}
			t := &state{Node: c, parent: s, vertex: v, depth: s.depth + 1}
			t.children = k.Candidates(nil, &t.Node)
			g.Restore()

			heap.Push(&q, t)
			states++
			if states > maxStates {
				return stop()
			}
		}
		s.children = nil // §5.2.3: free successor lists of closed states
	}

	// Queue exhausted without a goal: every state reached f ≥ ub, so the
	// heuristic upper bound is optimal.
	g.RestoreTo(0)
	return search.Result{Width: ub, LowerBound: ub, Exact: true, Ordering: ubOrder, Nodes: nodes}
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
