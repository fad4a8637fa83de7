// Balanced-separator hypertree decomposition in the style of BalancedGo
// (Gottlob–Okulmus–Pichler): at every subproblem the feasible λ-separators
// are tried balanced-first (largest [λ]-component at most half the
// component), which yields shallow trees. This file holds the engine
// behind MethodBalSep: a context-aware sequential search, separator
// enumeration fed by the shared cover oracle and one memo per budget
// level, an approx mode that widens k before declaring failure, and the
// det-k enumeration order on small components.
package detk

import (
	"context"
	"math/rand"
	"sort"

	"hypertree/internal/bitset"
	"hypertree/internal/cover"
	"hypertree/internal/hypergraph"
	"hypertree/internal/telemetry"
)

// BalancedOptions configures the balanced-separator decomposer.
type BalancedOptions struct {
	// MaxGuesses bounds separator enumeration (0 = unbounded). When the
	// cap trips the result reports Complete=false: a failure no longer
	// proves hw(H) > k.
	MaxGuesses int64
	// Approx is the width slack of the approx mode: a subproblem that
	// exhausts its separators at budget b < k+Approx retries at b+1 before
	// declaring failure. Results may then use separators of up to k+Approx
	// edges (SlackUsed reports the excess actually spent); a failure still
	// proves hw(H) > k+Approx when Complete.
	Approx int
	// Seed drives the per-subproblem separator shuffle. Fixing it makes
	// the search bit-for-bit reproducible.
	Seed int64
	// Oracle, when non-nil, feeds separator enumeration: the exact-cover
	// size of a connector prunes subproblems whose connector alone needs
	// more than the budget, and a subproblem whose full scope has a cover
	// within budget closes as a single leaf with that cover as λ. The
	// oracle is concurrency-safe and may be shared with other engines.
	Oracle *cover.Oracle
	// Stats, when non-nil, receives node counters, cover-probe telemetry
	// and branch-phase attribution. Attaching it never changes the result.
	Stats *telemetry.Stats
	// Trace, when non-nil, receives a "balsep.decompose" span and sampled
	// "balsep.component" instants on the Track timeline.
	Trace *telemetry.Trace
	// Track is the trace timeline events are emitted on.
	Track int
}

// smallComponent is the component size (in edges) at or below which the
// engine falls back to the det-k enumeration order: first feasible
// separator in sorted edge order, no balance scoring.
const smallComponent = 6

// DecomposeBalanced runs the balanced-separator engine at budget k: it
// returns a hypertree decomposition of width ≤ k+Approx, or none, which
// proves hw(H) > k+Approx when the result is Complete. Cancellation or a
// deadline aborts the search at the next poll and returns the context
// error with Complete=false.
func DecomposeBalanced(ctx context.Context, h *hypergraph.Hypergraph, k int, opt BalancedOptions) (Result, error) {
	opt.Approx = max(opt.Approx, 0)
	maxEdge := 0
	for ed := 0; ed < h.NumEdges(); ed++ {
		maxEdge = max(maxEdge, h.EdgeSet(ed).Len())
	}
	e := &balEngine{
		frame:   newFrame(ctx, h, k, "balsep", 64, opt.Trace, opt.Track),
		opt:     opt,
		maxEdge: maxEdge,
		memos:   make([]memo, opt.Approx+1),
	}
	return e.run(ctx, opt.Stats, func(comp, conn *bitset.Set) *node {
		root, _ := e.solve(comp, conn, k, 0)
		return root
	})
}

// balEngine is the state of one balanced-separator run.
type balEngine struct {
	frame
	opt BalancedOptions

	maxEdge int // largest hyperedge cardinality, for the b·maxEdge prune

	// memos[b-k] maps the (component, connector) pairs decided at budget b
	// to their witness subtree, or to nil for a complete failure. Reusing a
	// witness is always sound, and per-level keying keeps every hit
	// byte-identical to a fresh solve; a cut-short search plants no
	// failures.
	memos []memo
}

// guess counts one separator candidate against the budget, reporting
// true when the cap trips.
func (e *balEngine) guess() bool {
	e.guesses++
	if e.opt.MaxGuesses > 0 && e.guesses > e.opt.MaxGuesses {
		e.capped = true
		return true
	}
	return false
}

// solve finds a hypertree for comp whose root covers conn, widening the
// budget up to k+Approx before declaring failure. The second return is
// the completeness of a failure (true = proof at k+Approx).
func (e *balEngine) solve(comp, conn *bitset.Set, budget, depth int) (*node, bool) {
	for b := budget; b <= e.k+e.opt.Approx; b++ {
		n, complete := e.solveAt(comp, conn, b, depth)
		if n != nil {
			e.memos[b-e.k].put(comp, conn, n)
			return n, true
		}
		if !complete {
			return nil, false
		}
	}
	return nil, true
}

// solveAt is one budget level of solve.
func (e *balEngine) solveAt(comp, conn *bitset.Set, b, depth int) (*node, bool) {
	if e.stopped() {
		return nil, false
	}
	memo := &e.memos[b-e.k]
	if n, ok := memo.get(comp, conn); ok {
		return n, true
	}
	e.sample(comp, conn, depth)
	e.opt.Stats.Add(telemetry.Nodes, 1)

	compVars := e.componentVars(comp)
	scope := compVars.Clone()
	scope.UnionWith(conn)
	// Counting prune: b edges cover at most b·maxEdge vertices, so a
	// connector larger than that can never be covered within budget. Free,
	// sound, and it doubles as the gate keeping every oracle consultation
	// below on a target small enough for the exact set-cover solver.
	if conn.Len() > b*e.maxEdge {
		memo.put(comp, conn, nil)
		return nil, true
	}
	if e.opt.Oracle != nil {
		// Connector prune: any node covering conn needs at least its exact
		// cover size many λ-edges — a proof, so the memo may record it.
		// The counting prune above bounds |conn| by b·maxEdge, so the solve
		// stays cheap and memoizable.
		if !conn.Empty() && e.opt.Oracle.ExactSize(conn, e.opt.Stats) > b {
			memo.put(comp, conn, nil)
			return nil, true
		}
	}
	if e.opt.Oracle != nil && scope.Len() <= b*e.maxEdge {
		// Oracle base case: a single leaf must have χ ⊇ compVars ∪ conn, so
		// it exists iff the scope has a cover within budget — strictly
		// stronger than the |comp| ≤ b test below, and shared with other
		// engines through the oracle's memo table. Only consulted when the
		// counting bound says a b-cover of the scope is possible at all,
		// which keeps the exact solve off whole-graph targets.
		if e.opt.Oracle.ExactSize(scope, e.opt.Stats) <= b {
			lambda := e.opt.Oracle.Exact(scope)
			return &node{lambda: lambda, chi: scope}, true
		}
	} else if e.opt.Oracle == nil && comp.Len() <= b {
		// Legacy base case: the component's own edges as λ.
		lambda := comp.Slice()
		cov := e.varsOfEdges(lambda)
		if conn.SubsetOf(cov) {
			chi := cov.Clone()
			chi.IntersectWith(scope)
			return &node{lambda: lambda, chi: chi}, true
		}
		// Fall through: a small component may still need outside edges to
		// cover its connector.
	}

	candidates := e.candidateEdges(comp, conn, compVars)
	if comp.Len() <= smallComponent {
		// Hybrid fallback: det-k order on small components — first
		// feasible separator in sorted edge order, no balance scoring.
		// Shares the budget memo and the guess cap.
		n, complete := e.enumerate(comp, conn, compVars, candidates, b, depth, sepAll)
		if n == nil && complete {
			memo.put(comp, conn, nil)
		}
		return n, complete
	}

	// Seeded separator order: a deterministic per-subproblem shuffle —
	// reproducible for a fixed Seed, and vastly better than sorted order
	// at hitting balanced separators early on chain-like instances.
	ordered := e.shuffled(candidates, comp, conn, b)

	n, balComplete := e.enumerate(comp, conn, compVars, ordered, b, depth, sepBalanced)
	if n != nil {
		return n, true
	}
	n, unbComplete := e.enumerate(comp, conn, compVars, ordered, b, depth, sepUnbalanced)
	if n != nil {
		return n, true
	}
	complete := balComplete && unbComplete
	if complete {
		memo.put(comp, conn, nil)
	}
	return nil, complete
}

// shuffled returns a deterministic per-subproblem permutation of the
// candidate edges, seeded by Options.Seed and the subproblem identity.
func (e *balEngine) shuffled(candidates []int, comp, conn *bitset.Set, b int) []int {
	out := append([]int(nil), candidates...)
	seed := int64(comp.Hash()^conn.Hash()^(uint64(b)*0x9e3779b97f4a7c15)) ^ e.opt.Seed
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sepMode selects which feasible separators one enumeration pass tries.
type sepMode int

const (
	sepBalanced   sepMode = iota // largest component ≤ ⌈|comp|/2⌉
	sepUnbalanced                // the complement (completeness fallback)
	sepAll                       // every feasible separator (det-k fallback)
)

// enumerate walks λ ⊆ candidates with |λ| ≤ b lazily, trying each feasible
// separator admitted by mode as soon as it is generated. It returns the
// first success, plus the completeness of failure: false when the guess
// cap, cancellation, or an incomplete child truncated it.
func (e *balEngine) enumerate(comp, conn, compVars *bitset.Set, cand []int, b, depth int, mode sepMode) (*node, bool) {
	half := (comp.Len() + 1) / 2
	complete := true
	var out *node
	var dfs func(from int, lambda []int) bool
	dfs = func(from int, lambda []int) bool {
		if len(lambda) > 0 {
			if e.guess() || e.stopped() {
				complete = false
				return true
			}
			sepVars := e.varsOfEdges(lambda)
			if conn.SubsetOf(sepVars) {
				comps := e.components(comp, sepVars)
				progress, worst := true, 0
				for _, c := range comps {
					l := c.edges.Len()
					if l >= comp.Len() {
						progress = false
						break
					}
					if l > worst {
						worst = l
					}
				}
				if progress && (mode == sepAll || (mode == sepBalanced) == (worst <= half)) {
					n, cc := e.trySep(comp, conn, compVars, lambda, sepVars, comps, b, depth)
					if n != nil {
						out = n
						return true
					}
					if !cc {
						complete = false
					}
				}
			}
		}
		if len(lambda) == b {
			return false
		}
		for i := from; i < len(cand); i++ {
			ed := cand[i]
			es := e.h.EdgeSet(ed)
			if !es.Intersects(compVars) && !es.Intersects(conn) {
				continue
			}
			if dfs(i+1, append(lambda, ed)) {
				return true
			}
		}
		return false
	}
	dfs(0, nil)
	return out, complete
}

// trySep builds the node for one separator and recurses into its
// components, smallest first. The second return is the completeness of a
// failure: a separator is provably dead as soon as one child fails
// completely.
func (e *balEngine) trySep(comp, conn, compVars *bitset.Set, lambda []int, sepVars *bitset.Set, comps []component, b, depth int) (*node, bool) {
	chi := sepVars.Clone()
	scope := compVars.Clone()
	scope.UnionWith(conn)
	chi.IntersectWith(scope)
	if !conn.SubsetOf(chi) {
		return nil, true
	}
	n := &node{lambda: append([]int(nil), lambda...), chi: chi}
	if len(comps) == 0 {
		return n, true
	}

	// Screen every child's connector for provable infeasibility before
	// recursing into any: without this, a doomed separator can burn the
	// full cost of solving its big components before the cheap failure of
	// a small one surfaces — the classic balanced-separation thrash. The
	// screen must use the widest budget a child may reach, so a discarded
	// separator is a complete-failure proof even in approx mode.
	bMax := e.k + e.opt.Approx
	childConns := make([]*bitset.Set, len(comps))
	for i, c := range comps {
		childConn := c.vars.Clone()
		childConn.IntersectWith(chi)
		if childConn.Len() > bMax*e.maxEdge {
			return nil, true
		}
		if e.opt.Oracle != nil && !childConn.Empty() &&
			e.opt.Oracle.ExactSize(childConn, e.opt.Stats) > bMax {
			return nil, true
		}
		childConns[i] = childConn
	}
	// Smallest components first: cheap failures before expensive successes.
	order := make([]int, len(comps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return comps[order[a]].edges.Len() < comps[order[b]].edges.Len()
	})

	n.children = make([]*node, len(comps))
	for _, i := range order {
		child, cc := e.solve(comps[i].edges, childConns[i], b, depth+1)
		if child == nil {
			return nil, cc
		}
		n.children[i] = child
	}
	return n, true
}
