// The context-aware Yannakakis engine: parallel, cancellable evaluation of
// conjunctive queries over a generalized hypertree decomposition.
//
// Evaluation is one dataflow (flow) with one step function per relation
// layer. Every pass over a layer (base joins, the two full-reducer sweeps,
// the output join pass) is level-synchronous: nodes are grouped by depth
// and a bounded worker pool processes one level at a time, with a barrier
// between levels. Because each node's relation depends only on relations
// of adjacent levels — which are complete before the level starts — the
// result of every pass is bit-identical for every Jobs setting, including
// sequential. Determinism is by construction, not by locking.
package cq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/elim"
	"hypertree/internal/heur"
	"hypertree/internal/interrupt"
	"hypertree/internal/order"
	"hypertree/internal/telemetry"
)

// EvalOptions configures the context-aware evaluator. The zero value is
// valid: parallel over all CPUs, no telemetry.
type EvalOptions struct {
	// Jobs caps the concurrent workers of each parallel pass (≤ 0 uses
	// GOMAXPROCS, 1 runs sequentially). Any setting yields identical
	// results: the engine's passes are level-synchronous.
	Jobs int
	// Stats receives join/semijoin tuple counters. Nil-safe.
	Stats *telemetry.Stats
	// Trace receives one span per pass and one instant per node batch on
	// track Track. Nil-safe.
	Trace *telemetry.Trace
	// Track is the trace track the engine emits on.
	Track int
}

// jobs resolves the worker count for a pass of n independent tasks.
func (o EvalOptions) jobs(n int) int {
	j := o.Jobs
	if j <= 0 {
		j = runtime.GOMAXPROCS(0)
	}
	if j > n {
		j = n
	}
	if j < 1 {
		j = 1
	}
	return j
}

// EvaluateCtx is Evaluate with cancellation, parallelism, and telemetry:
// it builds the default decomposition (min-fill ordering, exact covers)
// and runs the engine over it. On cancellation or deadline expiry it
// returns the context's error promptly — context.DeadlineExceeded once
// the deadline has passed — and no partial results.
func EvaluateCtx(ctx context.Context, q *Query, db *Database, opt EvalOptions) ([][]string, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return EvaluateWithCtx(ctx, q, db, defaultDecomposition(q), opt)
}

// BooleanCtx answers a Boolean query — does any assignment satisfy the
// body? — and stops after the bottom-up half of the full reducer: the
// query is satisfiable iff no node relation empties, so the top-down
// sweep, the output join pass, and answer materialization are all
// skipped. Stats.CQOutputJoins stays zero on this path.
func BooleanCtx(ctx context.Context, q *Query, db *Database, opt EvalOptions) (bool, error) {
	if err := q.Validate(); err != nil {
		return false, err
	}
	return BooleanWithCtx(ctx, q, db, defaultDecomposition(q), opt)
}

// BooleanWithCtx is BooleanCtx over a caller-supplied decomposition of
// q.Hypergraph().
func BooleanWithCtx(ctx context.Context, q *Query, db *Database, d *decomp.Decomposition, opt EvalOptions) (bool, error) {
	_, sat, err := evaluate(ctx, q, db, d, opt, nil, false)
	return sat, err
}

// EvaluateWithCtx answers the query over a caller-supplied decomposition
// of q.Hypergraph() (e.g. a width-optimal one from the exact searches),
// with cancellation, parallelism, and telemetry per opt.
func EvaluateWithCtx(ctx context.Context, q *Query, db *Database, d *decomp.Decomposition, opt EvalOptions) ([][]string, error) {
	rows, _, err := evaluate(ctx, q, db, d, opt, nil, true)
	return rows, err
}

// errEmptied ends the bottom-up reducer early: some node relation emptied,
// so the query has no answers.
var errEmptied = errors.New("cq: node relation emptied")

// evaluate is the one-shot evaluator behind EvaluateWithCtx, BooleanWithCtx
// and the batch path: the flow's two reducer sweeps (reduce), then, when
// full is set, the output join pass and answer assembly. It stops with no
// answers as soon as a node relation empties, and after the bottom-up
// reducer when full is false, reporting only satisfiability. When sb is
// non-nil the instance interns through it, serving plain atoms from the
// batch's canonical hashed rows.
func evaluate(ctx context.Context, q *Query, db *Database, d *decomp.Decomposition, opt EvalOptions, sb *sharedBase, full bool) (rows [][]string, sat bool, err error) {
	if err := q.Validate(); err != nil {
		return nil, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	// The whole evaluation — base pass, both reducer sweeps, output join,
	// answer assembly — is conjunctive-query phase time. Worker goroutines
	// sharing this Stats only deepen the subtraction, which keeps the
	// exclusive sum ≤ wall.
	mark := opt.Stats.MarkPhase()
	defer opt.Stats.AttributeSince(telemetry.PhaseCQ, mark)
	in, err := newInstance(q, db, sb)
	if err != nil {
		return nil, false, err
	}
	f, err := newFlow(in, d, q.Head, opt)
	if err != nil || in.empty {
		return nil, false, err
	}
	if sat, err = f.reduce(ctx, full); err != nil || !sat || !full {
		return nil, sat, err
	}
	tr, track := opt.Trace, opt.Track
	f.out = make([]*csp.Relation, len(f.nodes))
	tr.Begin(track, "cq.output")
	err = f.walk(ctx, true, nil, func(nodes []int) error {
		return f.each(ctx, nodes, func(i int) { f.out[i] = f.outStep(i, f.down[i], f.kids(f.out, i)) })
	})
	tr.End(track, "cq.output")
	if err != nil {
		return nil, false, err
	}
	rows, err = assembleAnswers(q, in, f.out[f.root])
	return rows, err == nil, err
}

// basePass fills the base layer in one batch over every node, since base
// joins are mutually independent. It reports false when some base relation
// is empty: the instance then has no answers.
func (f *flow) basePass(ctx context.Context) (bool, error) {
	f.base = make([]*csp.Relation, len(f.nodes))
	var emptied atomic.Bool
	tr, track := f.opt.Trace, f.opt.Track
	tr.Begin(track, "cq.base")
	err := runTasks(ctx, f.opt, len(f.nodes), func(i int) error {
		r, err := f.baseStep(ctx, i)
		if err != nil {
			return err
		}
		f.base[i] = r
		if r.Size() == 0 {
			emptied.Store(true)
		}
		tr.Instant(track, "cq.node",
			telemetry.Arg{Key: "node", Val: int64(i)},
			telemetry.Arg{Key: "tuples", Val: int64(r.Size())})
		return nil
	})
	tr.End(track, "cq.base")
	return err == nil && !emptied.Load(), err
}

// reduce runs the base pass and the bottom-up full reducer, then the
// top-down one when full is set, with base, up and down aliased to one
// slice, so each reducer step overwrites its node's relation in place. It
// reports false as soon as a node relation empties.
func (f *flow) reduce(ctx context.Context, full bool) (bool, error) {
	if ok, err := f.basePass(ctx); !ok {
		return false, err
	}
	f.up, f.down = f.base, f.base
	tr, track := f.opt.Trace, f.opt.Track

	// A leaf's up relation is its base relation, already in place.
	var emptied atomic.Bool
	tr.Begin(track, "cq.reduce.up")
	err := f.walk(ctx, true, f.hasChildren, func(nodes []int) error {
		err := f.each(ctx, nodes, func(i int) {
			f.up[i] = f.upStep(i)
			if f.up[i].Size() == 0 {
				emptied.Store(true)
			}
		})
		if err == nil && emptied.Load() {
			err = errEmptied
		}
		return err
	})
	tr.End(track, "cq.reduce.up")
	if errors.Is(err, errEmptied) {
		return false, nil
	}
	if err != nil || !full {
		return err == nil, err
	}

	// The root's down relation is its up relation, already in place.
	tr.Begin(track, "cq.reduce.down")
	err = f.walk(ctx, false, f.hasParent, func(nodes []int) error {
		return f.each(ctx, nodes, func(i int) { f.down[i] = f.downStep(i) })
	})
	tr.End(track, "cq.reduce.down")
	return err == nil, err
}

// defaultDecomposition builds the evaluator's stock GHD: min-fill
// ordering with exact covers, seeded deterministically.
func defaultDecomposition(q *Query) *decomp.Decomposition {
	h := q.Hypergraph()
	o, _ := heur.MinFill(elim.New(h.PrimalGraph()), rand.New(rand.NewSource(1)))
	return order.GHD(h, o, nil, true, nil)
}

// flow is the Yannakakis dataflow over one completed decomposition: the
// tree's index — nodes, node → index map, depth levels, head variables —
// and four relation layers per node,
//
//	base[p] = π_χ(⋈ λ)                      (base joins)
//	up[p]   = base[p] ⋉ up[c1] ⋉ … ⋉ up[ck] (bottom-up full reducer)
//	down[p] = up[p] ⋉ down[parent(p)]       (top-down full reducer; root: up)
//	out[p]  = π_{head ∪ connector}(down[p] ⋈ out[c1] ⋈ … ⋈ out[ck])
//
// each computed by exactly one step function. The joins of base and out
// project as they go (csp.JoinProject): each keeps only the variables of
// the result and those a later operand still shares, so no step builds a
// join it would project away. The one-shot engine runs the steps pass by
// pass over the whole tree; a StandingQuery keeps the layers apart and
// re-runs steps only where a delta reaches.
type flow struct {
	in  *instance
	opt EvalOptions

	nodes  []*decomp.Node
	idx    map[*decomp.Node]int // node → position in nodes
	levels [][]int              // node positions by depth, each level in preorder
	root   int                  // position of the root
	head   map[int]bool         // vertex indices of the head variables

	base, up, down, out []*csp.Relation
}

// errPlanShape reports a decomposition of another hypergraph than the
// instance's.
var errPlanShape = errors.New("cq: decomposition is not of the instance's hypergraph")

// newFlow checks d against the instance, then completes and indexes it.
// The check runs once, before d.Complete: d.H must have the instance
// hypergraph's vertex count and edge sets, and d must be a valid GHD of
// it, so a caller's decomposition of another hypergraph ends in an error
// here and not in a worker's panic. The layers are left for the caller to
// allocate.
func newFlow(in *instance, d *decomp.Decomposition, head []string, opt EvalOptions) (*flow, error) {
	if d.H != in.h && hypergraphSig(d.H) != hypergraphSig(in.h) {
		return nil, errPlanShape
	}
	if err := d.ValidateGHD(); err != nil {
		return nil, fmt.Errorf("cq: invalid decomposition: %w", err)
	}
	d.Complete()
	f := &flow{
		in: in, opt: opt,
		nodes: d.Nodes(),
		idx:   make(map[*decomp.Node]int, d.NumNodes()),
		head:  map[int]bool{},
	}
	for i, n := range f.nodes {
		f.idx[n] = i
	}
	f.root = f.idx[d.Root]
	// Group nodes into depth levels by preorder walk, so each level is
	// deterministically ordered and children sit exactly one level below
	// their parent.
	var walk func(n *decomp.Node, depth int)
	walk = func(n *decomp.Node, depth int) {
		if depth == len(f.levels) {
			f.levels = append(f.levels, nil)
		}
		f.levels[depth] = append(f.levels[depth], f.idx[n])
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(d.Root, 0)
	for _, hv := range head {
		f.head[in.varIndex[hv]] = true
	}
	return f, nil
}

func (f *flow) hasChildren(i int) bool { return len(f.nodes[i].Children) > 0 }
func (f *flow) hasParent(i int) bool   { return f.nodes[i].Parent != nil }

// baseStep computes base[i] = π_χ(⋈ λ) without building the whole join.
// First it drops from each λ atom the variables outside χ that no other
// atom of the node holds: such a variable constrains its own atom only, so
// π_χ(⋈ λ) does not change. Then it joins the atoms in λ order, each join
// projecting to χ plus the variables that atoms still to be joined hold,
// so the last join lands on χ. It stops once the join empties, with a
// cancellation poll between joins.
func (f *flow) baseStep(ctx context.Context, i int) (*csp.Relation, error) {
	n := f.nodes[i]
	chi := n.Chi.Slice()
	switch len(n.Lambda) {
	case 0:
		return csp.NewRelation(nil, [][]int{{}}), nil
	case 1:
		return csp.Project(f.in.atomRel[n.Lambda[0]], chi), nil
	}
	// pending[v] counts the atoms not yet joined whose scope holds v.
	pending := map[int]int{}
	for _, a := range n.Lambda {
		for _, v := range f.in.atomRel[a].Scope {
			pending[v]++
		}
	}
	rels := make([]*csp.Relation, len(n.Lambda))
	for k, a := range n.Lambda {
		r := f.in.atomRel[a]
		vars := keepVars(func(v int) bool { return n.Chi.Contains(v) || pending[v] > 1 }, r.Scope)
		if len(vars) < len(r.Scope) {
			r = csp.Project(r, vars)
		}
		rels[k] = r
	}
	chk := interrupt.New(ctx, 1)
	var joined *csp.Relation
	for k, r := range rels {
		for _, v := range r.Scope {
			pending[v]--
		}
		if k == 0 {
			joined = r
			continue
		}
		if chk.Now() {
			return nil, stopCause(ctx)
		}
		later := keepVars(func(v int) bool { return !n.Chi.Contains(v) && pending[v] > 0 }, joined.Scope, r.Scope)
		joined = csp.JoinProject(joined, r, append(chi[:len(chi):len(chi)], later...))
		f.opt.Stats.Add(telemetry.CQJoinTuples, int64(joined.Size()))
		if joined.Size() == 0 {
			return csp.Project(joined, chi), nil
		}
	}
	return joined, nil
}

// keepVars returns the variables of the given scopes that keep accepts, in
// scope order and each once.
func keepVars(keep func(v int) bool, scopes ...[]int) []int {
	var out []int
	for _, s := range scopes {
		for _, v := range s {
			if keep(v) && !slices.Contains(out, v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// upStep computes up[i]: base[i] semijoined with each child's up relation
// in child order, skipping scope-less operands and stopping once empty.
func (f *flow) upStep(i int) *csp.Relation {
	r := f.base[i]
	for _, ch := range f.nodes[i].Children {
		cr := f.up[f.idx[ch]]
		if len(r.Scope) == 0 || len(cr.Scope) == 0 {
			continue
		}
		r = csp.Semijoin(r, cr)
		f.opt.Stats.Add(telemetry.CQSemijoinTuples, int64(r.Size()))
		if r.Size() == 0 {
			break
		}
	}
	return r
}

// downStep computes down[i]: up[i] semijoined with the parent's down
// relation (the root's is its up relation), skipping scope-less operands.
func (f *flow) downStep(i int) *csp.Relation {
	n, r := f.nodes[i], f.up[i]
	if n.Parent == nil {
		return r
	}
	pr := f.down[f.idx[n.Parent]]
	if len(r.Scope) == 0 || len(pr.Scope) == 0 {
		return r
	}
	r = csp.Semijoin(r, pr)
	f.opt.Stats.Add(telemetry.CQSemijoinTuples, int64(r.Size()))
	return r
}

// outStep computes node i's out rows from its operands: down, rows of
// down[i], joined with kids, rows of each child's out relation in child
// order, projected to the head variables plus those shared with the
// parent. The one-shot engine passes whole relations, so the result is
// out[i]; a standing query passes only the rows a delta reaches (see
// outGroups). Each join projects as it goes: it keeps those variables and
// the ones a later child's rows still hold, so the last join lands on the
// result.
func (f *flow) outStep(i int, down *csp.Relation, kids []*csp.Relation) *csp.Relation {
	n := f.nodes[i]
	f.opt.Stats.Add(telemetry.CQOutputJoins, 1)
	// pending[v] counts the children not yet joined whose out scope holds v.
	pending := map[int]int{}
	for _, cr := range kids {
		for _, v := range cr.Scope {
			pending[v]++
		}
	}
	keep := func(v int) bool {
		return f.head[v] || (n.Parent != nil && n.Parent.Chi.Contains(v)) || pending[v] > 0
	}
	joined := down
	if len(kids) == 0 {
		return csp.Project(joined, keepVars(keep, joined.Scope))
	}
	for _, cr := range kids {
		for _, v := range cr.Scope {
			pending[v]--
		}
		joined = csp.JoinProject(joined, cr, keepVars(keep, joined.Scope, cr.Scope))
		f.opt.Stats.Add(telemetry.CQJoinTuples, int64(joined.Size()))
	}
	return joined
}

// kids returns the relations of layer at node i's children, in child
// order: outStep's operands from a whole out layer.
func (f *flow) kids(layer []*csp.Relation, i int) []*csp.Relation {
	ch := f.nodes[i].Children
	rs := make([]*csp.Relation, len(ch))
	for k, c := range ch {
		rs[k] = layer[f.idx[c]]
	}
	return rs
}

// walk drives one reducer or output layer level by level — deepest level
// first when bottomUp, root first otherwise — polling for cancellation
// before each level and handing run the level's nodes that keep accepts
// (nil keeps all). Levels with no such node are skipped. Because a step
// reads only its own node and the adjacent level, which the previous
// batch completed, the nodes of one batch are independent.
func (f *flow) walk(ctx context.Context, bottomUp bool, keep func(i int) bool, run func(nodes []int) error) error {
	chk := interrupt.New(ctx, 1)
	for k := range f.levels {
		lvl := k
		if bottomUp {
			lvl = len(f.levels) - 1 - k
		}
		if chk.Now() {
			return stopCause(ctx)
		}
		var nodes []int
		for _, i := range f.levels[lvl] {
			if keep == nil || keep(i) {
				nodes = append(nodes, i)
			}
		}
		if len(nodes) == 0 {
			continue
		}
		if err := run(nodes); err != nil {
			return err
		}
	}
	return nil
}

// each runs fn over a batch of independent nodes on the worker pool.
func (f *flow) each(ctx context.Context, nodes []int, fn func(i int)) error {
	return runTasks(ctx, f.opt, len(nodes), func(k int) error {
		fn(nodes[k])
		return nil
	})
}

// runTasks executes fn(0..n-1) on a bounded worker pool of opt.jobs(n)
// goroutines (sequentially for one). Tasks must be mutually independent —
// scheduling cannot affect results. Cancellation is checked before each
// task; context errors win over task errors, so a cancelled run never
// reports a partial verdict. Every pass of the one-shot engine and of a
// standing query's deltas runs its per-node batches through this.
func runTasks(ctx context.Context, opt EvalOptions, n int, fn func(i int) error) error {
	st := opt.Stats
	if st != nil {
		// Wrap each task with batch timing. The wrapper exists only when a
		// Stats is attached, so telemetry-off runs pay nothing here, and
		// timing never feeds back into scheduling or results.
		inner := fn
		fn = func(i int) error {
			t0 := time.Now()
			err := inner(i)
			st.Observe(telemetry.CQBatchNs, time.Since(t0))
			return err
		}
	}
	jobs := opt.jobs(n)
	if jobs <= 1 {
		chk := interrupt.New(ctx, 1)
		for i := 0; i < n; i++ {
			if chk.Now() {
				return stopCause(ctx)
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next int64
		errs = make([]error, n)
		wg   sync.WaitGroup
	)
	// finished[w] is when worker w ran out of tasks; the gap to the level
	// barrier's release is that worker's barrier wait (idle tail while the
	// slowest worker drains). Only tracked with a Stats attached.
	var finished []time.Time
	if st != nil {
		finished = make([]time.Time, jobs)
	}
	for w := 0; w < jobs; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if finished != nil {
				defer func() { finished[w] = time.Now() }()
			}
			chk := interrupt.New(ctx, 1)
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if chk.Now() {
					errs[i] = stopCause(ctx)
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if st != nil {
		barrier := time.Now()
		for _, t := range finished {
			if !t.IsZero() {
				st.Observe(telemetry.CQLevelWaitNs, barrier.Sub(t))
			}
		}
	}
	if err := interrupt.Cause(ctx); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stopCause is the error a fired cancellation poll reports. It is
// interrupt.Cause — so a deadline the wall clock has passed reports
// context.DeadlineExceeded even before the runtime delivers the context's
// timer and Err turns non-nil — and never nil: a poll that fires on a
// closed Done channel is a cancellation even if Err lags behind.
func stopCause(ctx context.Context) error {
	if err := interrupt.Cause(ctx); err != nil {
		return err
	}
	return context.Canceled
}

// headCols returns the column of each head variable in a root out scope.
func headCols(q *Query, in *instance, scope []int) ([]int, error) {
	colOf := make([]int, len(q.Head))
	for i, hv := range q.Head {
		colOf[i] = slices.Index(scope, in.varIndex[hv])
		if colOf[i] < 0 {
			return nil, errHeadLost(hv)
		}
	}
	return colOf, nil
}

// assembleAnswers renders a root output relation as sorted answer rows in
// head order — shared between the one-shot engine and the standing
// evaluator so both produce byte-identical answer sets. The rows need no
// deduplication: the root's out rows are distinct, every root column is a
// head variable, and interning is one-to-one, so distinct tuples render as
// distinct rows even when the head repeats a variable. For the same reason
// the rows sort on int codes ranked by their strings, which orders them as
// the strings would: a stable counting sort per head column, last column
// first, so the sort is linear in the rows.
func assembleAnswers(q *Query, in *instance, root *csp.Relation) ([][]string, error) {
	colOf, err := headCols(q, in, root.Scope)
	if err != nil {
		return nil, err
	}
	if root.Size() == 0 {
		return nil, nil
	}
	if len(q.Head) == 0 {
		// Boolean-shaped query: report one empty row when satisfiable.
		return [][]string{{}}, nil
	}
	// rank[c] orders code c among the codes the answers use.
	rank := make([]int32, len(in.terms.dict))
	var codes []int
	for r := 0; r < root.Size(); r++ {
		t := root.Row(r)
		for _, col := range colOf {
			if c := t[col]; rank[c] == 0 {
				rank[c] = 1
				codes = append(codes, c)
			}
		}
	}
	slices.SortFunc(codes, func(x, y int) int { return strings.Compare(in.value(x), in.value(y)) })
	for i, c := range codes {
		rank[c] = int32(i)
	}
	w := len(q.Head)
	keys := make([]int32, root.Size()*w)
	order := make([]int32, root.Size())
	for r := range order {
		order[r] = int32(r)
		t := root.Row(r)
		for i, c := range colOf {
			keys[r*w+i] = rank[t[c]]
		}
	}
	sorted := make([]int32, len(order))
	start := make([]int32, len(codes)+1)
	for i := w - 1; i >= 0; i-- {
		clear(start)
		for _, r := range order {
			start[keys[int(r)*w+i]+1]++
		}
		for k := 1; k < len(start); k++ {
			start[k] += start[k-1]
		}
		for _, r := range order {
			k := keys[int(r)*w+i]
			sorted[start[k]] = r
			start[k]++
		}
		order, sorted = sorted, order
	}
	block := make([]string, len(order)*w)
	rows := make([][]string, len(order))
	for k, r := range order {
		row := block[k*w : (k+1)*w : (k+1)*w]
		t := root.Row(int(r))
		for i, c := range colOf {
			row[i] = in.value(t[c])
		}
		rows[k] = row
	}
	return rows, nil
}
