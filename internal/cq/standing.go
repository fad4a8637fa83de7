// Incremental query serving: a StandingQuery keeps a conjunctive query's
// answer set maintained under single-tuple inserts and deletes without
// re-running the full evaluation.
//
// The standing state is the engine's dataflow made explicit. Per node of
// the (completed) decomposition four relation layers are kept:
//
//	base[p] = π_χ(⋈ λ)                      (the base pass)
//	up[p]   = base[p] ⋉ up[c1] ⋉ … ⋉ up[ck] (bottom-up full reducer)
//	down[p] = up[p] ⋉ down[parent(p)]       (top-down full reducer; root: up)
//	out[p]  = π_{head ∪ connector}(down[p] ⋈ out[c1] ⋈ … ⋈ out[ck])
//
// plus, per body atom, a multiplicity count of the database rows matching
// it, so set-semantics per-atom relations survive duplicate inserts and
// partial deletes.
//
// A delta first rewrites the per-atom relations it touches, then sweeps
// each layer in the engine's level order, recomputing only nodes whose
// inputs changed and cutting off with a set-equality test (csp.SameSet):
// every kernel consumes its inputs with set semantics, so an unchanged
// recomputed relation proves the delta cannot reach past that node. For a
// delta touching one atom this is exactly the root-leaf path through the
// owning node — up along its ancestors, down and out through the subtrees
// the path borders — and the cutoff usually stops far earlier.
//
// All recomputation uses the same kernels, the same skip rules, and the
// same level-synchronous runTasks pool as the one-shot engine, so Answers
// is bit-identical to a fresh EvaluateCtx over the mutated database at
// every Jobs value. A cancelled delta rolls back through an undo journal —
// relations are replaced, never mutated in place — leaving no partial
// answer state.
package cq

import (
	"context"
	"sync"
	"time"

	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/telemetry"
)

// atomState is the per-atom maintenance record of a standing query.
type atomState struct {
	scope      []int          // hypergraph vertex per scope position
	scopeNames []string       // variable name per scope position
	counts     map[string]int // projected-row key → multiplicity in the database
	ground     bool           // atom has no variables
	groundVal  int            // interned "_" filling the dummy vertex of a ground atom
}

// StandingQuery is a continuously maintained conjunctive query: it
// captures the database contents at creation and re-answers after every
// Insert/Delete by delta propagation over the decomposition. Safe for
// concurrent use; deltas serialize on an internal mutex.
type StandingQuery struct {
	mu  sync.Mutex
	q   *Query
	d   *decomp.Decomposition
	opt EvalOptions
	in  *instance

	nodes     []*decomp.Node
	idx       map[*decomp.Node]int
	levels    [][]*decomp.Node
	atomNodes [][]int // atom index → indices of nodes whose λ contains it
	headSet   map[int]bool

	atoms []atomState

	base, up, down, out []*csp.Relation
	isEmpty             bool // some base/up relation is empty: no answers
	answers             [][]string

	undo []func() // rollback journal of the in-flight delta
}

// NewStandingQuery builds a standing evaluator for q over the current
// contents of db, using the caller-supplied decomposition of
// q.Hypergraph() (nil builds the default min-fill plan). The database is
// read once; later mutations go through Insert/Delete on the handle.
func NewStandingQuery(ctx context.Context, q *Query, db *Database, d *decomp.Decomposition, opt EvalOptions) (*StandingQuery, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d == nil {
		d = defaultDecomposition(q)
	}
	in, err := newInstance(q, db, nil)
	if err != nil {
		return nil, err
	}
	d.Complete()
	s := &StandingQuery{
		q: q, d: d, opt: opt, in: in,
		nodes:   d.Nodes(),
		idx:     make(map[*decomp.Node]int, d.NumNodes()),
		headSet: map[int]bool{},
	}
	for i, n := range s.nodes {
		s.idx[n] = i
	}
	var walk func(n *decomp.Node, depth int)
	walk = func(n *decomp.Node, depth int) {
		if depth == len(s.levels) {
			s.levels = append(s.levels, nil)
		}
		s.levels[depth] = append(s.levels[depth], n)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(d.Root, 0)
	s.atomNodes = make([][]int, len(q.Body))
	for i, n := range s.nodes {
		for _, a := range n.Lambda {
			s.atomNodes[a] = append(s.atomNodes[a], i)
		}
	}
	for _, hv := range q.Head {
		s.headSet[in.varIndex[hv]] = true
	}

	s.atoms = make([]atomState, len(q.Body))
	for ai, a := range q.Body {
		st := &s.atoms[ai]
		seenV := map[string]bool{}
		for _, t := range a.Terms {
			if t.IsVar && !seenV[t.Value] {
				seenV[t.Value] = true
				st.scope = append(st.scope, in.varIndex[t.Value])
				st.scopeNames = append(st.scopeNames, t.Value)
			}
		}
		st.counts = map[string]int{}
		if len(st.scope) == 0 {
			st.ground = true
			st.groundVal = in.terms.intern("_")
		}
		for _, row := range db.Relation(a.Relation) {
			// Arity was validated by newInstance above.
			binding, ok := bindAtomRow(a, row)
			if !ok {
				continue
			}
			st.counts[s.rowKey(st, binding)]++
		}
	}
	if err := s.rebuild(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// rowKey renders a binding as the atom's projected-row count key.
func (s *StandingQuery) rowKey(st *atomState, binding map[string]string) string {
	key := ""
	for _, name := range st.scopeNames {
		key += binding[name] + "\x00"
	}
	return key
}

// rebuild computes every layer from scratch (construction only — deltas
// go through propagate).
func (s *StandingQuery) rebuild(ctx context.Context) error {
	n := len(s.nodes)
	s.base = make([]*csp.Relation, n)
	s.up = make([]*csp.Relation, n)
	s.down = make([]*csp.Relation, n)
	s.out = make([]*csp.Relation, n)
	err := runTasks(ctx, s.opt, n, func(i int) error {
		s.base[i] = s.computeBase(i)
		return nil
	})
	if err != nil {
		return err
	}
	for lvl := len(s.levels) - 1; lvl >= 0; lvl-- {
		if err := s.runLayer(ctx, s.levels[lvl], s.up, s.computeUp); err != nil {
			return err
		}
	}
	for lvl := 0; lvl < len(s.levels); lvl++ {
		if err := s.runLayer(ctx, s.levels[lvl], s.down, s.computeDown); err != nil {
			return err
		}
	}
	for lvl := len(s.levels) - 1; lvl >= 0; lvl-- {
		if err := s.runLayer(ctx, s.levels[lvl], s.out, s.computeOut); err != nil {
			return err
		}
	}
	s.isEmpty = s.anyEmpty()
	return s.refreshAnswers()
}

// runLayer computes one layer function over a full level into dst.
func (s *StandingQuery) runLayer(ctx context.Context, nodes []*decomp.Node, dst []*csp.Relation, fn func(n *decomp.Node) *csp.Relation) error {
	return runTasks(ctx, s.opt, len(nodes), func(k int) error {
		dst[s.idx[nodes[k]]] = fn(nodes[k])
		return nil
	})
}

// computeBase is the engine's base pass for one node: R_p = π_χ(⋈ λ).
func (s *StandingQuery) computeBase(i int) *csp.Relation {
	n := s.nodes[i]
	if len(n.Lambda) == 0 {
		return &csp.Relation{Tuples: [][]int{{}}}
	}
	joined := s.in.atomRel[n.Lambda[0]]
	for _, a := range n.Lambda[1:] {
		joined = csp.Join(joined, s.in.atomRel[a])
		s.opt.Stats.Add(telemetry.CQJoinTuples, int64(joined.Size()))
		if joined.Size() == 0 {
			break
		}
	}
	return csp.Project(joined, n.Chi.Slice())
}

// computeUp is the bottom-up reducer step for one node, with the engine's
// scope-empty skip rule and empty short-circuit.
func (s *StandingQuery) computeUp(n *decomp.Node) *csp.Relation {
	pr := s.base[s.idx[n]]
	for _, ch := range n.Children {
		cr := s.up[s.idx[ch]]
		if len(pr.Scope) == 0 || len(cr.Scope) == 0 {
			continue
		}
		pr = csp.Semijoin(pr, cr)
		s.opt.Stats.Add(telemetry.CQSemijoinTuples, int64(pr.Size()))
		if pr.Size() == 0 {
			break
		}
	}
	return pr
}

// computeDown is the top-down reducer step for one node.
func (s *StandingQuery) computeDown(n *decomp.Node) *csp.Relation {
	cr := s.up[s.idx[n]]
	if n.Parent == nil {
		return cr
	}
	pr := s.down[s.idx[n.Parent]]
	if len(cr.Scope) == 0 || len(pr.Scope) == 0 {
		return cr
	}
	red := csp.Semijoin(cr, pr)
	s.opt.Stats.Add(telemetry.CQSemijoinTuples, int64(red.Size()))
	return red
}

// computeOut is the output-pass step for one node: join the reduced
// relation with the children's outputs and project to head ∪ connector.
func (s *StandingQuery) computeOut(n *decomp.Node) *csp.Relation {
	i := s.idx[n]
	s.opt.Stats.Add(telemetry.CQOutputJoins, 1)
	joined := s.down[i]
	for _, ch := range n.Children {
		joined = csp.Join(joined, s.out[s.idx[ch]])
		s.opt.Stats.Add(telemetry.CQJoinTuples, int64(joined.Size()))
	}
	var keep []int
	seen := map[int]bool{}
	for _, v := range joined.Scope {
		inParent := n.Parent != nil && n.Parent.Chi.Contains(v)
		if (s.headSet[v] || inParent) && !seen[v] {
			seen[v] = true
			keep = append(keep, v)
		}
	}
	return csp.Project(joined, keep)
}

// anyEmpty reports whether some base or bottom-up-reduced relation is
// empty — exactly the engine's "no answers" short-circuit conditions.
func (s *StandingQuery) anyEmpty() bool {
	for i := range s.base {
		if s.base[i].Size() == 0 || s.up[i].Size() == 0 {
			return true
		}
	}
	return false
}

// refreshAnswers re-renders the answer set from the root output relation
// (nil when the short-circuit emptiness holds, matching EvaluateCtx).
func (s *StandingQuery) refreshAnswers() error {
	if s.isEmpty {
		s.answers = nil
		return nil
	}
	rows, err := assembleAnswers(s.q, s.in, s.out[s.idx[s.d.Root]])
	if err != nil {
		return err
	}
	s.answers = rows
	return nil
}

// Answers returns the current answer set — sorted, deduplicated rows in
// head order, bit-identical to EvaluateCtx over the mutated database. The
// outer slice is a copy; rows are shared and must not be mutated.
func (s *StandingQuery) Answers() [][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.answers == nil {
		return nil
	}
	return append([][]string(nil), s.answers...)
}

// Insert adds one tuple to the named relation and re-answers the query.
// On cancellation it returns ctx.Err() and the standing state rolls back
// to before the call.
func (s *StandingQuery) Insert(ctx context.Context, relation string, tuple ...string) error {
	return s.apply(ctx, relation, tuple, true)
}

// Delete removes one occurrence of the tuple from the named relation and
// re-answers the query. Deleting an absent tuple is a no-op. On
// cancellation it returns ctx.Err() and the standing state rolls back.
func (s *StandingQuery) Delete(ctx context.Context, relation string, tuple ...string) error {
	return s.apply(ctx, relation, tuple, false)
}

func (s *StandingQuery) apply(ctx context.Context, relation string, tuple []string, insert bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.opt.Stats; st != nil {
		// End-to-end delta latency, including validation, propagation, and
		// (on conflict) the undo-journal rollback. The same window is the
		// delta's conjunctive-query phase time.
		t0 := time.Now()
		defer func() { st.Observe(telemetry.CQDeltaApplyNs, time.Since(t0)) }()
		mark := st.MarkPhase()
		defer st.AttributeSince(telemetry.PhaseCQ, mark)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Validate arity against every atom over the relation before touching
	// any state, mirroring the interner's error.
	for _, a := range s.q.Body {
		if a.Relation == relation && len(tuple) != len(a.Terms) {
			return errArity(relation, len(tuple), len(a.Terms))
		}
	}
	s.undo = s.undo[:0]
	dirty := make([]bool, len(s.nodes))
	any := false
	for ai := range s.q.Body {
		a := s.q.Body[ai]
		if a.Relation != relation {
			continue
		}
		if !s.applyAtom(ai, a, tuple, insert) {
			continue
		}
		any = true
		for _, ni := range s.atomNodes[ai] {
			dirty[ni] = true
		}
	}
	if !any {
		// The delta changed no per-atom relation (duplicate insert, delete
		// of an absent or extra-multiplicity row, constant mismatch): the
		// answer set is provably unchanged.
		s.undo = nil
		s.opt.Stats.Add(telemetry.CQDeltaTuples, 1)
		return nil
	}
	tr, track := s.opt.Trace, s.opt.Track
	tr.Begin(track, "cq.delta")
	err := s.propagate(ctx, dirty)
	tr.End(track, "cq.delta")
	if err != nil {
		s.rollback()
		return err
	}
	s.undo = nil
	s.opt.Stats.Add(telemetry.CQDeltaTuples, 1)
	return nil
}

// applyAtom rewrites one atom's multiplicity count and, when the set of
// matching rows actually changes, its per-atom relation. Relations are
// replaced wholesale — never mutated — so the undo journal's saved
// pointers stay valid. Reports whether the relation changed.
func (s *StandingQuery) applyAtom(ai int, a Atom, tuple []string, insert bool) bool {
	binding, ok := bindAtomRow(a, tuple)
	if !ok {
		return false
	}
	st := &s.atoms[ai]
	key := s.rowKey(st, binding)
	old := st.counts[key]
	if insert {
		st.counts[key] = old + 1
	} else {
		if old == 0 {
			return false
		}
		if old == 1 {
			delete(st.counts, key)
		} else {
			st.counts[key] = old - 1
		}
	}
	oldCount := old
	s.undo = append(s.undo, func() {
		if oldCount == 0 {
			delete(st.counts, key)
		} else {
			st.counts[key] = oldCount
		}
	})
	changed := (insert && old == 0) || (!insert && old == 1)
	if !changed {
		return false
	}
	oldRel := s.in.atomRel[ai]
	s.undo = append(s.undo, func() { s.in.atomRel[ai] = oldRel })
	rel := &csp.Relation{Scope: oldRel.Scope}
	if st.ground {
		if insert {
			rel.Tuples = [][]int{{st.groundVal}}
		}
		s.in.atomRel[ai] = rel
		return true
	}
	row := make([]int, len(st.scope))
	for si, name := range st.scopeNames {
		row[si] = s.in.terms.intern(binding[name])
	}
	if insert {
		rel.Tuples = make([][]int, 0, len(oldRel.Tuples)+1)
		rel.Tuples = append(rel.Tuples, oldRel.Tuples...)
		rel.Tuples = append(rel.Tuples, row)
	} else {
		rel.Tuples = make([][]int, 0, len(oldRel.Tuples))
		for _, t := range oldRel.Tuples {
			if !equalRow(t, row) {
				rel.Tuples = append(rel.Tuples, t)
			}
		}
	}
	s.in.atomRel[ai] = rel
	return true
}

func equalRow(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// propagate sweeps the four layers in engine level order, recomputing only
// nodes whose inputs changed and stopping where csp.SameSet proves the
// recomputation a no-op. Commits journal the old relation pointers so a
// cancelled sweep rolls back cleanly.
func (s *StandingQuery) propagate(ctx context.Context, baseDirty []bool) error {
	n := len(s.nodes)
	changedBase := make([]bool, n)
	var tasks []*decomp.Node
	for i, d := range baseDirty {
		if d {
			tasks = append(tasks, s.nodes[i])
		}
	}
	nBase, err := s.sweep(ctx, tasks, s.base, changedBase, func(n *decomp.Node) *csp.Relation {
		return s.computeBase(s.idx[n])
	})
	if err != nil {
		return err
	}

	changedUp := make([]bool, n)
	nUp := 0
	for lvl := len(s.levels) - 1; lvl >= 0; lvl-- {
		nodes := filterNodes(s.levels[lvl], func(nd *decomp.Node) bool {
			if changedBase[s.idx[nd]] {
				return true
			}
			for _, ch := range nd.Children {
				if changedUp[s.idx[ch]] {
					return true
				}
			}
			return false
		})
		k, err := s.sweep(ctx, nodes, s.up, changedUp, s.computeUp)
		if err != nil {
			return err
		}
		nUp += k
	}

	changedDown := make([]bool, n)
	nDown := 0
	for lvl := 0; lvl < len(s.levels); lvl++ {
		nodes := filterNodes(s.levels[lvl], func(nd *decomp.Node) bool {
			return changedUp[s.idx[nd]] ||
				(nd.Parent != nil && changedDown[s.idx[nd.Parent]])
		})
		k, err := s.sweep(ctx, nodes, s.down, changedDown, s.computeDown)
		if err != nil {
			return err
		}
		nDown += k
	}

	changedOut := make([]bool, n)
	nOut := 0
	for lvl := len(s.levels) - 1; lvl >= 0; lvl-- {
		nodes := filterNodes(s.levels[lvl], func(nd *decomp.Node) bool {
			if changedDown[s.idx[nd]] {
				return true
			}
			for _, ch := range nd.Children {
				if changedOut[s.idx[ch]] {
					return true
				}
			}
			return false
		})
		k, err := s.sweep(ctx, nodes, s.out, changedOut, s.computeOut)
		if err != nil {
			return err
		}
		nOut += k
	}

	s.opt.Trace.Instant(s.opt.Track, "cq.delta.nodes",
		telemetry.Arg{Key: "base", Val: int64(nBase)},
		telemetry.Arg{Key: "up", Val: int64(nUp)},
		telemetry.Arg{Key: "down", Val: int64(nDown)},
		telemetry.Arg{Key: "out", Val: int64(nOut)})

	empty := s.anyEmpty()
	if changedOut[s.idx[s.d.Root]] || empty != s.isEmpty {
		oldAns, oldEmpty := s.answers, s.isEmpty
		s.undo = append(s.undo, func() { s.answers, s.isEmpty = oldAns, oldEmpty })
		s.isEmpty = empty
		if err := s.refreshAnswers(); err != nil {
			return err
		}
	}
	return nil
}

// sweep recomputes one layer over a batch of independent nodes on the
// worker pool, committing (and journaling) only relations whose set of
// tuples actually changed. Returns the number of changed nodes.
func (s *StandingQuery) sweep(ctx context.Context, nodes []*decomp.Node, layer []*csp.Relation, changed []bool, fn func(n *decomp.Node) *csp.Relation) (int, error) {
	if len(nodes) == 0 {
		return 0, nil
	}
	rels := make([]*csp.Relation, len(nodes))
	diff := make([]bool, len(nodes))
	err := runTasks(ctx, s.opt, len(nodes), func(k int) error {
		rels[k] = fn(nodes[k])
		diff[k] = !csp.SameSet(layer[s.idx[nodes[k]]], rels[k])
		return nil
	})
	if err != nil {
		return 0, err
	}
	committed := 0
	for k, nd := range nodes {
		if !diff[k] {
			continue
		}
		committed++
		i := s.idx[nd]
		old := layer[i]
		s.undo = append(s.undo, func() { layer[i] = old })
		layer[i] = rels[k]
		changed[i] = true
	}
	return committed, nil
}

func filterNodes(nodes []*decomp.Node, keep func(*decomp.Node) bool) []*decomp.Node {
	var out []*decomp.Node
	for _, n := range nodes {
		if keep(n) {
			out = append(out, n)
		}
	}
	return out
}

// rollback replays the undo journal in reverse, restoring counts, per-atom
// relations, layer pointers, and the answer set.
func (s *StandingQuery) rollback() {
	for i := len(s.undo) - 1; i >= 0; i-- {
		s.undo[i]()
	}
	s.undo = nil
}
