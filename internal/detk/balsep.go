// Balanced-separator hypertree decomposition in the style of BalancedGo
// (Gottlob–Okulmus–Pichler): at every subproblem the feasible λ-separators
// are tried balanced-first (largest [λ]-component at most half the
// component), which yields shallow trees. This file holds the engine
// behind MethodBalSep: a context-aware sequential search, separator
// enumeration fed by the shared cover oracle and failure memo, an approx
// mode that widens k before declaring failure, and the det-k enumeration
// order on small components.
package detk

import (
	"context"
	"math/rand"
	"sort"

	"hypertree/internal/bitset"
	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/interrupt"
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

// BalancedResult reports one balanced-separator run.
type BalancedResult struct {
	// Decomposition is the witness (nil unless Found). It satisfies the
	// three GHD conditions plus the descendant condition (CheckSpecial)
	// and has width ≤ k+SlackUsed.
	Decomposition *decomp.Decomposition
	// Found reports whether a decomposition was produced.
	Found bool
	// Complete reports that the search ran to its full conclusion: no
	// MaxGuesses cap and no cancellation truncated it. A !Found result
	// proves hw(H) > k+Approx only when Complete — this is the
	// incompleteness fact the legacy API used to swallow.
	Complete bool
	// SlackUsed is the width in excess of k the approx mode actually
	// spent on the witness (0 in exact mode or when the witness stayed
	// within k).
	SlackUsed int
	// Guesses is the number of separator candidates evaluated.
	Guesses int64
	// Err carries the context error when cancellation struck before a
	// decomposition was found (nil otherwise).
	Err error
}

// smallComponent is the component size (in edges) at or below which the
// engine falls back to the det-k enumeration order: first feasible
// separator in sorted edge order, no balance scoring.
const smallComponent = 6

// DecomposeBalanced computes a hypertree decomposition of width ≤ k with
// the balanced-separator engine. It returns the decomposition, whether
// one was found, and whether the search was complete: ok=false with
// complete=true proves hw(H) > k (+Approx), while ok=false with
// complete=false only means the MaxGuesses cap truncated enumeration —
// the two outcomes the legacy API conflated.
func DecomposeBalanced(h *hypergraph.Hypergraph, k int, opt BalancedOptions) (*decomp.Decomposition, bool, bool) {
	r := DecomposeBalancedCtx(context.Background(), h, k, opt)
	return r.Decomposition, r.Found, r.Complete
}

// DecomposeBalancedCtx is DecomposeBalanced under a context: cancellation
// or a deadline aborts the search at the next poll and reports the
// context error with Complete=false.
func DecomposeBalancedCtx(ctx context.Context, h *hypergraph.Hypergraph, k int, opt BalancedOptions) BalancedResult {
	if k < 1 {
		// Non-trivial hypergraphs have hw ≥ 1; an empty one decomposes at
		// any k, but the facade never asks for k < 1.
		return BalancedResult{Complete: true}
	}
	mark := opt.Stats.MarkPhase()
	defer opt.Stats.AttributeSince(telemetry.PhaseBranch, mark)
	if opt.Approx < 0 {
		opt.Approx = 0
	}
	maxEdge := 0
	for ed := 0; ed < h.NumEdges(); ed++ {
		if l := h.EdgeSet(ed).Len(); l > maxEdge {
			maxEdge = l
		}
	}
	e := &balEngine{
		h:       h,
		geo:     &solver{h: h},
		k:       k,
		opt:     opt,
		chk:     interrupt.New(ctx, 64),
		maxEdge: maxEdge,
		memos:   make([]*cover.FailMemo, opt.Approx+1),
		wins:    make([]winMemo, opt.Approx+1),
	}
	for i := range e.memos {
		e.memos[i] = cover.NewFailMemo(0)
	}
	if opt.Trace != nil {
		opt.Trace.Begin(opt.Track, "balsep.decompose",
			telemetry.Arg{Key: "k", Val: int64(k)})
	}

	all := bitset.New(h.NumEdges())
	for ed := 0; ed < h.NumEdges(); ed++ {
		all.Add(ed)
	}
	root, complete := e.solve(all, bitset.New(h.NumVertices()), k, 0)

	res := BalancedResult{Guesses: e.guesses}
	if opt.Trace != nil {
		found := int64(0)
		if root != nil {
			found = 1
		}
		opt.Trace.End(opt.Track, "balsep.decompose",
			telemetry.Arg{Key: "found", Val: found},
			telemetry.Arg{Key: "guesses", Val: res.Guesses})
	}
	if root != nil {
		d := decomp.New(h)
		attach(d, root, nil)
		d.Complete()
		res.Decomposition = d
		res.Found = true
		res.Complete = !e.capped && !e.cancelled
		if w := d.GHWidth(); w > k {
			res.SlackUsed = w - k
		}
		return res
	}
	res.Complete = complete
	if e.cancelled {
		res.Err = interrupt.Cause(ctx)
	}
	return res
}

// balEngine is the state of one balanced-separator run.
type balEngine struct {
	h   *hypergraph.Hypergraph
	geo *solver // stateless geometry helpers (components, candidates)
	k   int
	opt BalancedOptions
	chk *interrupt.Checker // amortized cancellation poll

	maxEdge int // largest hyperedge cardinality, for the b·maxEdge prune

	// memos[b-k] records (component, connector) pairs proven infeasible
	// at budget b. Only complete failures are recorded — a cap- or
	// cancellation-truncated search must not plant failure certificates.
	memos []*cover.FailMemo
	// wins[b-k] memoizes the witness subtree of (component, connector)
	// pairs solved at budget b. Unlike failures, a witness is sound to
	// reuse unconditionally, and per-level keying keeps every hit
	// byte-identical to a fresh solve.
	wins []winMemo

	guesses   int64
	calls     int64 // subproblems entered, for trace sampling
	capped    bool
	cancelled bool
}

// stopped reports (and latches) cancellation.
func (e *balEngine) stopped() bool {
	if !e.cancelled && e.chk.Stop() {
		e.cancelled = true
	}
	return e.cancelled
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
			e.wins[b-e.k].put(comp, conn, n)
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
	memo := e.memos[b-e.k]
	if memo.Failed(comp, conn) {
		return nil, true
	}
	if n := e.wins[b-e.k].get(comp, conn); n != nil {
		return n, true
	}
	e.calls++
	if e.opt.Trace != nil && (depth <= 1 || e.calls&63 == 0) {
		e.opt.Trace.Instant(e.opt.Track, "balsep.component",
			telemetry.Arg{Key: "depth", Val: int64(depth)},
			telemetry.Arg{Key: "edges", Val: int64(comp.Len())},
			telemetry.Arg{Key: "conn", Val: int64(conn.Len())})
	}
	e.opt.Stats.Add(telemetry.Nodes, 1)

	compVars := e.geo.componentVars(comp)
	scope := compVars.Clone()
	scope.UnionWith(conn)
	// Counting prune: b edges cover at most b·maxEdge vertices, so a
	// connector larger than that can never be covered within budget. Free,
	// sound, and it doubles as the gate keeping every oracle consultation
	// below on a target small enough for the exact set-cover solver.
	if conn.Len() > b*e.maxEdge {
		memo.MarkFailed(comp, conn)
		return nil, true
	}
	if e.opt.Oracle != nil {
		// Connector prune: any node covering conn needs at least its exact
		// cover size many λ-edges — a proof, so the memo may record it.
		// The counting prune above bounds |conn| by b·maxEdge, so the solve
		// stays cheap and memoizable.
		if !conn.Empty() && e.opt.Oracle.ExactSizeStats(conn, e.opt.Stats) > b {
			memo.MarkFailed(comp, conn)
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
		if e.opt.Oracle.ExactSizeStats(scope, e.opt.Stats) <= b {
			lambda := append([]int(nil), e.opt.Oracle.Exact(scope)...)
			return &node{lambda: lambda, chi: scope}, true
		}
	} else if e.opt.Oracle == nil && comp.Len() <= b {
		// Legacy base case: the component's own edges as λ.
		lambda := comp.Slice()
		cov := e.geo.varsOfEdges(lambda)
		if conn.SubsetOf(cov) {
			chi := cov.Clone()
			chi.IntersectWith(scope)
			return &node{lambda: lambda, chi: chi}, true
		}
		// Fall through: a small component may still need outside edges to
		// cover its connector.
	}

	candidates := e.geo.candidateEdges(comp, conn, compVars)
	if comp.Len() <= smallComponent {
		// Hybrid fallback: det-k order on small components — first
		// feasible separator in sorted edge order, no balance scoring.
		// Shares the budget memo and the guess cap.
		n, complete := e.enumerate(comp, conn, compVars, candidates, b, depth, sepAll)
		if n == nil && complete {
			memo.MarkFailed(comp, conn)
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
		memo.MarkFailed(comp, conn)
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
			sepVars := e.geo.varsOfEdges(lambda)
			if conn.SubsetOf(sepVars) {
				comps := e.geo.components(comp, sepVars)
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
			e.opt.Oracle.ExactSizeStats(childConn, e.opt.Stats) > bMax {
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

// componentVars returns the union of the component's edge variables.
func (s *solver) componentVars(comp *bitset.Set) *bitset.Set {
	vars := bitset.New(s.h.NumVertices())
	comp.ForEach(func(e int) bool {
		vars.UnionWith(s.h.EdgeSet(e))
		return true
	})
	return vars
}

// candidateEdges lists the edges eligible as separator members.
func (s *solver) candidateEdges(comp, conn, compVars *bitset.Set) []int {
	seen := map[int]bool{}
	var out []int
	add := func(e int) {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	comp.ForEach(func(e int) bool { add(e); return true })
	union := compVars.Clone()
	union.UnionWith(conn)
	union.ForEach(func(v int) bool {
		for _, e := range s.h.IncidentEdges(v) {
			add(e)
		}
		return true
	})
	sort.Ints(out)
	return out
}

// maxWinEntries bounds the witness memo. Dropping an entry only costs
// re-deriving the same subtree, never correctness or determinism (a fresh
// solve of the key is byte-identical to the dropped witness).
const maxWinEntries = 1 << 17

// winMemo memoizes successful subproblem solutions: (component, connector)
// → the witness subtree found at one budget level. The failure memo alone
// leaves the engine re-deriving the same small subtrees at every parent
// separator trial — the dominant cost on chain-like instances, where the
// same single-edge tails reappear under thousands of candidate separators.
// Entries are interned clones with Equal-verified hash chains, mirroring
// cover.FailMemo.
type winMemo struct {
	m map[uint64]*winEntry
	n int
}

type winEntry struct {
	comp *bitset.Set
	conn *bitset.Set
	node *node
	next *winEntry
}

func winPairHash(comp, conn *bitset.Set) uint64 {
	return comp.Hash()*0x9e3779b97f4a7c15 ^ conn.Hash()
}

func (m *winMemo) get(comp, conn *bitset.Set) *node {
	for e := m.m[winPairHash(comp, conn)]; e != nil; e = e.next {
		if e.comp.Equal(comp) && e.conn.Equal(conn) {
			return e.node
		}
	}
	return nil
}

func (m *winMemo) put(comp, conn *bitset.Set, n *node) {
	if m.get(comp, conn) != nil {
		return
	}
	if m.m == nil || m.n >= maxWinEntries {
		// Cheap pressure valve: drop everything rather than tracking
		// recency. Re-derivation is deterministic, so this is purely a
		// time/space trade.
		m.m = make(map[uint64]*winEntry)
		m.n = 0
	}
	hash := winPairHash(comp, conn)
	m.m[hash] = &winEntry{comp: comp.Clone(), conn: conn.Clone(), node: n, next: m.m[hash]}
	m.n++
}
