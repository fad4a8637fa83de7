// Balanced-separator hypertree decomposition in the style of BalancedGo
// (Gottlob–Okulmus–Pichler): at every subproblem the feasible λ-separators
// are tried balanced-first (largest [λ]-component at most half the
// component), which yields shallow trees and natural AND-parallelism
// across a separator's components. This file holds the promoted engine
// behind MethodBalSep: a context-aware anytime search with a bounded
// work-stealing worker pool, separator enumeration fed by the shared
// cover oracle and failure memo, an approx mode that widens k before
// declaring failure, and a sequential det-k fallback on small components.
package detk

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"hypertree/internal/bitset"
	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/interrupt"
	"hypertree/internal/telemetry"
)

// BalancedOptions configures the balanced-separator decomposer.
type BalancedOptions struct {
	// Jobs is the size of the engine's bounded worker pool: sibling
	// components of one separator are explored concurrently through a
	// shared LIFO task queue that idle workers steal from (≤ 1 runs the
	// whole search on the calling goroutine). The decomposition found by a
	// complete search is identical at every Jobs value: parallelism is
	// AND-parallelism over components whose subsearches are individually
	// deterministic, so only wall time depends on scheduling.
	Jobs int
	// MaxGuesses bounds separator enumeration globally across all workers
	// (0 = unbounded). When the cap trips the result reports
	// Complete=false: a failure no longer proves hw(H) > k.
	MaxGuesses int64
	// Approx is the width slack of the approx mode: a subproblem that
	// exhausts its separators at budget b < k+Approx retries at b+1 before
	// declaring failure. Results may then use separators of up to k+Approx
	// edges (SlackUsed reports the excess actually spent); a failure still
	// proves hw(H) > k+Approx when Complete.
	Approx int
	// Seed drives the per-subproblem separator shuffle. Fixing it makes
	// the search bit-for-bit reproducible (see Jobs).
	Seed int64
	// SmallComponent is the component size (in edges) at or below which
	// the engine falls back to the sequential det-k enumeration order —
	// first feasible separator in sorted edge order, no balance scoring,
	// no forking (0 = a small default, < 0 = never).
	SmallComponent int
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

// smallComponentDefault is the det-k fallback threshold when
// BalancedOptions.SmallComponent is zero.
const smallComponentDefault = 6

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
// or a deadline aborts the search at the next poll, drains the worker
// pool, and reports the context error with Complete=false.
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
	small := opt.SmallComponent
	if small == 0 {
		small = smallComponentDefault
	}
	jobs := opt.Jobs
	if jobs < 1 {
		jobs = 1
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
		small:   small,
		maxEdge: maxEdge,
		pool:    jobs > 1,
	}
	e.cond = sync.NewCond(&e.mu)
	e.memos = make([]*cover.FailMemo, opt.Approx+1)
	e.wins = make([]*winMemo, opt.Approx+1)
	for i := range e.memos {
		e.memos[i] = cover.NewFailMemo(0)
		e.wins[i] = &winMemo{}
	}
	if opt.Trace != nil {
		opt.Trace.Begin(opt.Track, "balsep.decompose",
			telemetry.Arg{Key: "k", Val: int64(k)},
			telemetry.Arg{Key: "jobs", Val: int64(jobs)})
	}
	var wg sync.WaitGroup
	for i := 1; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.workerLoop(ctx)
		}()
	}

	all := bitset.New(h.NumEdges())
	for ed := 0; ed < h.NumEdges(); ed++ {
		all.Add(ed)
	}
	w0 := &balWorker{chk: interrupt.New(ctx, 64)}
	root, complete := e.solve(w0, all, bitset.New(h.NumVertices()), k, 0, nil)

	// Shutdown: the root returning implies every fork joined, so the task
	// queue is empty; workers exit at the broadcast and none leak.
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	wg.Wait()

	res := BalancedResult{Guesses: e.guesses.Load()}
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
		res.Complete = !e.capped.Load() && !e.cancelled.Load()
		if w := d.GHWidth(); w > k {
			res.SlackUsed = w - k
		}
		return res
	}
	res.Complete = complete
	if e.cancelled.Load() {
		res.Err = interrupt.Cause(ctx)
	}
	return res
}

// balEngine is the shared state of one balanced-separator run.
type balEngine struct {
	h   *hypergraph.Hypergraph
	geo *solver // stateless geometry helpers (components, candidates)
	k   int
	opt BalancedOptions

	small   int  // det-k fallback threshold (edges)
	maxEdge int  // largest hyperedge cardinality, for the b·maxEdge prune
	pool    bool // workers exist; forking is worthwhile

	// memos[b-k] records (component, connector) pairs proven infeasible
	// at budget b. Only complete failures are recorded — a cap- or
	// cancellation-truncated search must not plant failure certificates.
	memos []*cover.FailMemo
	// wins[b-k] memoizes the witness subtree of (component, connector)
	// pairs solved at budget b. Unlike failures, a witness is sound to
	// reuse unconditionally, and per-level keying keeps every hit
	// byte-identical to a fresh solve, preserving Jobs-invariance.
	wins []*winMemo

	guesses   atomic.Int64
	calls     atomic.Int64
	capped    atomic.Bool
	cancelled atomic.Bool

	// Work-stealing pool state: a LIFO stack of forked component tasks.
	// Forking workers help — they pop and run queued tasks while their
	// own children are pending — so the pool can never deadlock: a join
	// blocks only when all of its children are being executed by others.
	mu     sync.Mutex
	cond   *sync.Cond
	stack  []*balTask
	closed bool
}

// balWorker is the per-goroutine state: the amortized cancellation
// checker (interrupt.Checker is not concurrency-safe).
type balWorker struct {
	chk *interrupt.Checker
}

// balTask is one forked component subproblem.
type balTask struct {
	run  func(w *balWorker)
	join *balJoin
}

// balJoin tracks one fork's outstanding children (guarded by balEngine.mu)
// and the sibling-abort flag (atomic: read on hot paths without the lock).
type balJoin struct {
	pending int
	failed  atomic.Bool
	parent  *balJoin
}

// aborted reports whether this fork or any enclosing one has failed,
// letting sibling subsearches bail out without producing certificates.
func (j *balJoin) aborted() bool {
	for n := j; n != nil; n = n.parent {
		if n.failed.Load() {
			return true
		}
	}
	return false
}

// stopped reports (and latches) cancellation.
func (e *balEngine) stopped(w *balWorker) bool {
	if e.cancelled.Load() {
		return true
	}
	if w.chk.Stop() {
		e.cancelled.Store(true)
		return true
	}
	return false
}

// guess counts one separator candidate against the global budget,
// reporting true when the cap trips.
func (e *balEngine) guess() bool {
	g := e.guesses.Add(1)
	if e.opt.MaxGuesses > 0 && g > e.opt.MaxGuesses {
		e.capped.Store(true)
		return true
	}
	return false
}

// workerLoop is the body of one pool worker: steal the newest task, run
// it, sleep when the queue is dry, exit at shutdown.
func (e *balEngine) workerLoop(ctx context.Context) {
	w := &balWorker{chk: interrupt.New(ctx, 64)}
	e.mu.Lock()
	for {
		if n := len(e.stack); n > 0 {
			t := e.stack[n-1]
			e.stack = e.stack[:n-1]
			e.mu.Unlock()
			e.exec(w, t)
			e.mu.Lock()
			continue
		}
		if e.closed {
			break
		}
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// exec runs one task and signals its join.
func (e *balEngine) exec(w *balWorker, t *balTask) {
	t.run(w)
	e.mu.Lock()
	t.join.pending--
	e.cond.Broadcast()
	e.mu.Unlock()
}

// fork pushes the children of one separator onto the shared queue and
// joins: while any child is pending the forking worker helps by stealing
// queued tasks (its own children included), so saturation cannot deadlock.
func (e *balEngine) fork(w *balWorker, j *balJoin, fns []func(w *balWorker)) {
	e.mu.Lock()
	j.pending = len(fns)
	for _, fn := range fns {
		e.stack = append(e.stack, &balTask{run: fn, join: j})
	}
	e.cond.Broadcast()
	for j.pending > 0 {
		if n := len(e.stack); n > 0 {
			t := e.stack[n-1]
			e.stack = e.stack[:n-1]
			e.mu.Unlock()
			e.exec(w, t)
			e.mu.Lock()
			continue
		}
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// solve finds a hypertree for comp whose root covers conn, widening the
// budget up to k+Approx before declaring failure. The second return is
// the completeness of a failure (true = proof at k+Approx).
func (e *balEngine) solve(w *balWorker, comp, conn *bitset.Set, budget, depth int, abort *balJoin) (*node, bool) {
	for b := budget; b <= e.k+e.opt.Approx; b++ {
		n, complete := e.solveAt(w, comp, conn, b, depth, abort)
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
func (e *balEngine) solveAt(w *balWorker, comp, conn *bitset.Set, b, depth int, abort *balJoin) (*node, bool) {
	if e.stopped(w) || abort.aborted() {
		return nil, false
	}
	memo := e.memos[b-e.k]
	if memo.Failed(comp, conn) {
		return nil, true
	}
	if n := e.wins[b-e.k].get(comp, conn); n != nil {
		return n, true
	}
	if calls := e.calls.Add(1); e.opt.Trace != nil && (depth <= 1 || calls&63 == 0) {
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
		// stronger than the |comp| ≤ b test below, and shared across
		// workers through the oracle's memo table. Only consulted when the
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
	if comp.Len() <= e.small && e.small >= 0 {
		// Hybrid fallback: sequential det-k on small components — first
		// feasible separator in sorted edge order, no balance scoring, no
		// forking. Shares the budget memo and the global guess cap.
		n, complete := e.enumerate(w, comp, conn, compVars, candidates, b, depth, abort, sepAll, true)
		if n == nil && complete {
			memo.MarkFailed(comp, conn)
		}
		return n, complete
	}

	// Seeded separator order: a deterministic per-subproblem shuffle —
	// reproducible for a fixed Seed at every Jobs value, and vastly better
	// than sorted order at hitting balanced separators early on chain-like
	// instances.
	ordered := e.shuffled(candidates, comp, conn, b)

	n, balComplete := e.enumerate(w, comp, conn, compVars, ordered, b, depth, abort, sepBalanced, false)
	if n != nil {
		return n, true
	}
	n, unbComplete := e.enumerate(w, comp, conn, compVars, ordered, b, depth, abort, sepUnbalanced, false)
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
// cap, cancellation, a sibling abort, or an incomplete child truncated it.
func (e *balEngine) enumerate(w *balWorker, comp, conn, compVars *bitset.Set, cand []int, b, depth int, abort *balJoin, mode sepMode, seq bool) (*node, bool) {
	half := (comp.Len() + 1) / 2
	complete := true
	var out *node
	var dfs func(from int, lambda []int) bool
	dfs = func(from int, lambda []int) bool {
		if len(lambda) > 0 {
			if e.guess() {
				complete = false
				return true
			}
			if e.stopped(w) || abort.aborted() {
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
					n, cc := e.trySep(w, comp, conn, compVars, lambda, sepVars, comps, b, depth, abort, seq)
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
// components — concurrently through the pool when they are large enough.
// The second return is the completeness of a failure: a separator is
// provably dead as soon as one child fails completely, even if siblings
// were aborted early.
func (e *balEngine) trySep(w *balWorker, comp, conn, compVars *bitset.Set, lambda []int, sepVars *bitset.Set, comps []component, b, depth int, abort *balJoin, seq bool) (*node, bool) {
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
	// a small one surfaces — the classic balanced-separation thrash (and
	// the reason sequential runs would otherwise be far slower than
	// pooled ones, where sibling aborts mask it). The screen must use the
	// widest budget a child may reach, so a discarded separator is a
	// complete-failure proof even in approx mode.
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

	results := make([]*node, len(comps))
	completes := make([]bool, len(comps))
	if seq || !e.pool || len(comps) < 2 {
		for _, i := range order {
			child, cc := e.solve(w, comps[i].edges, childConns[i], b, depth+1, abort)
			if child == nil {
				return nil, cc
			}
			results[i], completes[i] = child, cc
		}
		n.children = results
		return n, true
	}

	j := &balJoin{parent: abort}
	fns := make([]func(w *balWorker), len(comps))
	for slot, i := range order {
		i := i
		fns[slot] = func(w *balWorker) {
			child, cc := e.solve(w, comps[i].edges, childConns[i], b, depth+1, j)
			results[i], completes[i] = child, cc
			if child == nil {
				// Siblings of a failed component bail at their next abort
				// poll; their truncated searches stay un-memoized.
				j.failed.Store(true)
			}
		}
	}
	e.fork(w, j, fns)

	failComplete := false
	for i := range results {
		if results[i] == nil {
			if completes[i] {
				failComplete = true
			}
		}
	}
	for i := range results {
		if results[i] == nil {
			return nil, failComplete
		}
	}
	n.children = results
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
// cover.FailMemo; one mutex suffices because hits replace entire
// subsearches, so the map is touched orders of magnitude less often than
// the work it saves.
type winMemo struct {
	mu sync.Mutex
	m  map[uint64]*winEntry
	n  int
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
	hash := winPairHash(comp, conn)
	m.mu.Lock()
	defer m.mu.Unlock()
	for e := m.m[hash]; e != nil; e = e.next {
		if e.comp.Equal(comp) && e.conn.Equal(conn) {
			return e.node
		}
	}
	return nil
}

func (m *winMemo) put(comp, conn *bitset.Set, n *node) {
	hash := winPairHash(comp, conn)
	m.mu.Lock()
	defer m.mu.Unlock()
	for e := m.m[hash]; e != nil; e = e.next {
		if e.comp.Equal(comp) && e.conn.Equal(conn) {
			return
		}
	}
	if m.m == nil {
		m.m = make(map[uint64]*winEntry)
	}
	if m.n >= maxWinEntries {
		// Cheap pressure valve: drop everything rather than tracking
		// recency. Re-derivation is deterministic, so this is purely a
		// time/space trade.
		m.m = make(map[uint64]*winEntry)
		m.n = 0
	}
	m.m[hash] = &winEntry{comp: comp.Clone(), conn: conn.Clone(), node: n, next: m.m[hash]}
	m.n++
}
