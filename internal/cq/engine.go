// The context-aware Yannakakis engine: parallel, cancellable evaluation of
// conjunctive queries over a generalized hypertree decomposition.
//
// Every pass (base joins, the two full-reducer sweeps, the output join
// pass) is level-synchronous: nodes are grouped by depth and a bounded
// worker pool processes one level at a time, with a barrier between
// levels. Because each node's relation depends only on relations of
// adjacent levels — which are complete before the level starts — the
// result of every pass is bit-identical for every Jobs setting, including
// sequential. Determinism is by construction, not by locking.
package cq

import (
	"context"
	"math/rand"
	"runtime"
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
// returns ctx.Err() promptly and no partial results.
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
	if err := q.Validate(); err != nil {
		return false, err
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	mark := opt.Stats.MarkPhase()
	defer opt.Stats.AttributeSince(telemetry.PhaseCQ, mark)
	in, err := newInstance(q, db, nil)
	if err != nil {
		return false, err
	}
	if in.empty {
		return false, nil
	}
	e := newEngine(q, in, d, opt)
	empty, err := e.basePass(ctx)
	if err != nil || empty {
		return false, err
	}
	empty, err = e.reduceUp(ctx)
	if err != nil || empty {
		return false, err
	}
	return true, nil
}

// EvaluateWithCtx answers the query over a caller-supplied decomposition
// of q.Hypergraph() (e.g. a width-optimal one from the exact searches),
// with cancellation, parallelism, and telemetry per opt.
func EvaluateWithCtx(ctx context.Context, q *Query, db *Database, d *decomp.Decomposition, opt EvalOptions) ([][]string, error) {
	return evaluateShared(ctx, q, db, d, opt, nil)
}

// evaluateShared is EvaluateWithCtx with an optional batch-shared base
// store: when sb is non-nil the instance interns through it, serving plain
// atoms from the canonical hashed rows instead of re-building them.
func evaluateShared(ctx context.Context, q *Query, db *Database, d *decomp.Decomposition, opt EvalOptions, sb *sharedBase) ([][]string, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The whole evaluation — base pass, both reducer sweeps, output join,
	// answer assembly — is conjunctive-query phase time. Worker goroutines
	// sharing this Stats only deepen the subtraction, which keeps the
	// exclusive sum ≤ wall.
	mark := opt.Stats.MarkPhase()
	defer opt.Stats.AttributeSince(telemetry.PhaseCQ, mark)
	in, err := newInstance(q, db, sb)
	if err != nil {
		return nil, err
	}
	if in.empty {
		return nil, nil
	}
	e := newEngine(q, in, d, opt)
	empty, err := e.basePass(ctx)
	if err != nil || empty {
		return nil, err
	}
	empty, err = e.reduceUp(ctx)
	if err != nil || empty {
		return nil, err
	}
	if err := e.reduceDown(ctx); err != nil {
		return nil, err
	}
	if err := e.outputPass(ctx); err != nil {
		return nil, err
	}
	return e.assemble()
}

// defaultDecomposition builds the evaluator's stock GHD: min-fill
// ordering with exact covers, seeded deterministically.
func defaultDecomposition(q *Query) *decomp.Decomposition {
	h := q.Hypergraph()
	o, _ := heur.MinFill(elim.New(h.PrimalGraph()), rand.New(rand.NewSource(1)))
	return order.GHD(h, o, nil, true)
}

// engine holds the per-evaluation state: the interned instance, the
// decomposition with its nodes indexed and grouped into depth levels, and
// the evolving per-node relations.
type engine struct {
	q   *Query
	in  *instance
	d   *decomp.Decomposition
	opt EvalOptions

	idx    map[*decomp.Node]int // node → position in d.Nodes()
	levels [][]*decomp.Node     // nodes by depth, each level in preorder
	rel    []*csp.Relation      // R_p per node index (the reducer rewrites these)
	out    []*csp.Relation      // output-pass relations per node index

	emptied atomic.Bool // some node relation became empty: no answers
}

func newEngine(q *Query, in *instance, d *decomp.Decomposition, opt EvalOptions) *engine {
	d.Complete()
	e := &engine{
		q: q, in: in, d: d, opt: opt,
		idx: make(map[*decomp.Node]int, d.NumNodes()),
		rel: make([]*csp.Relation, d.NumNodes()),
		out: make([]*csp.Relation, d.NumNodes()),
	}
	for i, n := range d.Nodes() {
		e.idx[n] = i
	}
	// Group nodes into depth levels by preorder walk, so each level is
	// deterministically ordered and children sit exactly one level below
	// their parent.
	var walk func(n *decomp.Node, depth int)
	walk = func(n *decomp.Node, depth int) {
		if depth == len(e.levels) {
			e.levels = append(e.levels, nil)
		}
		e.levels[depth] = append(e.levels[depth], n)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(d.Root, 0)
	return e
}

// runLevel executes fn over the tasks of one level batch on the bounded
// worker pool. Tasks are independent within a batch, so scheduling cannot
// affect results. Cancellation is checked before each task; the first
// cause wins, with context errors taking priority so a cancelled run
// never reports a partial verdict.
func (e *engine) runLevel(ctx context.Context, tasks []*decomp.Node, fn func(n *decomp.Node) error) error {
	return runTasks(ctx, e.opt, len(tasks), func(i int) error { return fn(tasks[i]) })
}

// runTasks executes fn(0..n-1) on a bounded worker pool of opt.jobs(n)
// goroutines (sequentially for one). Tasks must be mutually independent —
// scheduling cannot affect results. Cancellation is checked before each
// task; context errors win over task errors, so a cancelled run never
// reports a partial verdict. Both the level-synchronous engine and the
// standing-query delta passes run their per-node batches through this.
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
				return ctx.Err()
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
					errs[i] = ctx.Err()
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
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// basePass computes R_p = π_χ(⋈ λ) for every node, in parallel across
// nodes (they are mutually independent). Returns empty=true when some
// node relation is empty, which settles the query as answerless.
func (e *engine) basePass(ctx context.Context) (empty bool, err error) {
	tr, track := e.opt.Trace, e.opt.Track
	tr.Begin(track, "cq.base")
	defer tr.End(track, "cq.base")
	err = e.runLevel(ctx, e.d.Nodes(), func(n *decomp.Node) error {
		i := e.idx[n]
		if len(n.Lambda) == 0 {
			e.rel[i] = &csp.Relation{Tuples: [][]int{{}}}
			return nil
		}
		chk := interrupt.New(ctx, 1)
		joined := e.in.atomRel[n.Lambda[0]]
		for _, a := range n.Lambda[1:] {
			if chk.Now() {
				return ctx.Err()
			}
			joined = csp.Join(joined, e.in.atomRel[a])
			e.opt.Stats.Add(telemetry.CQJoinTuples, int64(joined.Size()))
			if joined.Size() == 0 {
				break
			}
		}
		e.rel[i] = csp.Project(joined, n.Chi.Slice())
		if e.rel[i].Size() == 0 {
			e.emptied.Store(true)
		}
		tr.Instant(track, "cq.node",
			telemetry.Arg{Key: "node", Val: int64(i)},
			telemetry.Arg{Key: "tuples", Val: int64(e.rel[i].Size())})
		return nil
	})
	return e.emptied.Load(), err
}

// reduceUp runs the bottom-up half of the full reducer: level by level
// from the deepest parents to the root, each parent semijoins with its
// children in child order. Within a level parents are independent, so
// they run in parallel; the level barrier guarantees every child is fully
// reduced before its parent consumes it — the exact dataflow of the
// sequential postorder sweep.
func (e *engine) reduceUp(ctx context.Context) (empty bool, err error) {
	tr, track := e.opt.Trace, e.opt.Track
	tr.Begin(track, "cq.reduce.up")
	defer tr.End(track, "cq.reduce.up")
	chk := interrupt.New(ctx, 1)
	for lvl := len(e.levels) - 2; lvl >= 0; lvl-- {
		if chk.Now() {
			return false, ctx.Err()
		}
		parents := withChildren(e.levels[lvl])
		err := e.runLevel(ctx, parents, func(p *decomp.Node) error {
			pi := e.idx[p]
			pr := e.rel[pi]
			for _, ch := range p.Children {
				cr := e.rel[e.idx[ch]]
				if len(pr.Scope) == 0 || len(cr.Scope) == 0 {
					continue
				}
				pr = csp.Semijoin(pr, cr)
				e.opt.Stats.Add(telemetry.CQSemijoinTuples, int64(pr.Size()))
				if pr.Size() == 0 {
					e.emptied.Store(true)
					break
				}
			}
			e.rel[pi] = pr
			return nil
		})
		if err != nil {
			return false, err
		}
		if e.emptied.Load() {
			return true, nil
		}
	}
	return false, nil
}

// reduceDown runs the top-down half of the full reducer: level by level
// from the root, each parent semijoins its children against itself —
// again matching the sequential preorder dataflow exactly.
func (e *engine) reduceDown(ctx context.Context) error {
	tr, track := e.opt.Trace, e.opt.Track
	tr.Begin(track, "cq.reduce.down")
	defer tr.End(track, "cq.reduce.down")
	chk := interrupt.New(ctx, 1)
	for lvl := 0; lvl < len(e.levels)-1; lvl++ {
		if chk.Now() {
			return ctx.Err()
		}
		parents := withChildren(e.levels[lvl])
		err := e.runLevel(ctx, parents, func(p *decomp.Node) error {
			pr := e.rel[e.idx[p]]
			for _, ch := range p.Children {
				ci := e.idx[ch]
				if len(pr.Scope) == 0 || len(e.rel[ci].Scope) == 0 {
					continue
				}
				e.rel[ci] = csp.Semijoin(e.rel[ci], pr)
				e.opt.Stats.Add(telemetry.CQSemijoinTuples, int64(e.rel[ci].Size()))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// outputPass materializes answers bottom-up: each node joins its reduced
// relation with its children's output relations and projects to head ∪
// parent-connector variables. Levels run deepest first so children are
// complete before their parent joins them; nodes within a level are
// independent and run in parallel.
func (e *engine) outputPass(ctx context.Context) error {
	tr, track := e.opt.Trace, e.opt.Track
	tr.Begin(track, "cq.output")
	defer tr.End(track, "cq.output")
	headSet := map[int]bool{}
	for _, hv := range e.q.Head {
		headSet[e.in.varIndex[hv]] = true
	}
	chk := interrupt.New(ctx, 1)
	for lvl := len(e.levels) - 1; lvl >= 0; lvl-- {
		if chk.Now() {
			return ctx.Err()
		}
		err := e.runLevel(ctx, e.levels[lvl], func(n *decomp.Node) error {
			i := e.idx[n]
			e.opt.Stats.Add(telemetry.CQOutputJoins, 1)
			joined := e.rel[i]
			for _, ch := range n.Children {
				joined = csp.Join(joined, e.out[e.idx[ch]])
				e.opt.Stats.Add(telemetry.CQJoinTuples, int64(joined.Size()))
			}
			var keep []int
			seen := map[int]bool{}
			for _, v := range joined.Scope {
				inParent := n.Parent != nil && n.Parent.Chi.Contains(v)
				if (headSet[v] || inParent) && !seen[v] {
					seen[v] = true
					keep = append(keep, v)
				}
			}
			e.out[i] = csp.Project(joined, keep)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// assemble renders the root's output relation as sorted, deduplicated
// answer rows in head order.
func (e *engine) assemble() ([][]string, error) {
	return assembleAnswers(e.q, e.in, e.out[e.idx[e.d.Root]])
}

// assembleAnswers renders a root output relation as sorted, deduplicated
// answer rows in head order — shared between the one-shot engine and the
// standing evaluator so both produce byte-identical answer sets.
func assembleAnswers(q *Query, in *instance, root *csp.Relation) ([][]string, error) {
	colOf := make([]int, len(q.Head))
	for i, hv := range q.Head {
		v := in.varIndex[hv]
		colOf[i] = -1
		for j, sv := range root.Scope {
			if sv == v {
				colOf[i] = j
			}
		}
		if colOf[i] < 0 {
			return nil, errHeadLost(hv)
		}
	}
	if len(q.Head) == 0 {
		// Boolean-shaped query: report one empty row when satisfiable.
		if root.Size() > 0 {
			return [][]string{{}}, nil
		}
		return nil, nil
	}
	dedupe := map[string]bool{}
	var rows [][]string
	for _, t := range root.Tuples {
		row := make([]string, len(q.Head))
		key := ""
		for i, c := range colOf {
			row[i] = in.value(t[c])
			key += row[i] + "\x00"
		}
		if !dedupe[key] {
			dedupe[key] = true
			rows = append(rows, row)
		}
	}
	sortRows(rows)
	return rows, nil
}

// withChildren filters a level down to its internal nodes, preserving
// order.
func withChildren(nodes []*decomp.Node) []*decomp.Node {
	var out []*decomp.Node
	for _, n := range nodes {
		if len(n.Children) > 0 {
			out = append(out, n)
		}
	}
	return out
}
