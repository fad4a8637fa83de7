// Incremental query serving: a StandingQuery keeps a conjunctive query's
// answer set maintained under single-tuple inserts and deletes without
// re-running the full evaluation.
//
// The standing state is the engine's dataflow (flow) kept whole: the four
// relation layers base/up/down/out per node of the (completed)
// decomposition, each in its own slice, plus, per body atom, a
// multiplicity count of the database rows matching it, so set-semantics
// per-atom relations survive duplicate inserts and partial deletes.
//
// A delta first rewrites the per-atom relations it touches, then
// propagates: it sweeps each layer in the engine's level order, re-running
// the layer's step only on nodes whose inputs changed and cutting off
// with a set-equality test (csp.SameSet): every kernel consumes its
// inputs with set semantics, so an unchanged recomputed relation proves
// the delta cannot reach past that node. For a delta touching one atom
// this is exactly the root-leaf path through the owning node — up along
// its ancestors, down and out through the subtrees the path borders — and
// the cutoff usually stops far earlier. Opening a standing query is the
// same propagation with every node dirty against empty layers.
//
// Every recompute runs the engine's own step functions on the same
// level-synchronous runTasks pool, so Answers is bit-identical to a fresh
// EvaluateCtx over the mutated database at every Jobs value. A cancelled
// delta rolls back through an undo journal — relations are replaced,
// never mutated in place — leaving no partial answer state.
package cq

import (
	"context"
	"slices"
	"sync"
	"time"

	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/telemetry"
)

// StandingQuery is a continuously maintained conjunctive query: it
// captures the database contents at creation and re-answers after every
// Insert/Delete by delta propagation over the decomposition. Safe for
// concurrent use; deltas serialize on an internal mutex.
type StandingQuery struct {
	mu sync.Mutex
	q  *Query
	*flow

	atomNodes [][]int          // atom index → indices of nodes whose λ contains it
	counts    []map[string]int // atom index → projected-row key → multiplicity in the database
	isEmpty   bool             // some base/up relation is empty: no answers
	answers   [][]string

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
	f, err := newFlow(in, d, q.Head, opt)
	if err != nil {
		return nil, err
	}
	layer := func() []*csp.Relation { return make([]*csp.Relation, len(f.nodes)) }
	f.base, f.up, f.down, f.out = layer(), layer(), layer(), layer()
	s := &StandingQuery{q: q, flow: f}
	s.atomNodes = make([][]int, len(q.Body))
	for i, n := range s.nodes {
		for _, a := range n.Lambda {
			s.atomNodes[a] = append(s.atomNodes[a], i)
		}
	}

	s.counts = make([]map[string]int, len(q.Body))
	for ai, a := range q.Body {
		sh := &in.shapes[ai]
		s.counts[ai] = map[string]int{}
		for _, row := range db.Relation(a.Relation) {
			// Arity was validated by newInstance above.
			if sh.match(row) {
				s.counts[ai][sh.key(row)]++
			}
		}
	}
	// Opening is one full propagation: every node is dirty and every layer
	// empty, so each step runs once on every node.
	dirty := make([]bool, len(s.nodes))
	for i := range dirty {
		dirty[i] = true
	}
	if _, err := s.propagate(ctx, dirty); err != nil {
		return nil, err
	}
	s.undo = nil
	return s, nil
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
	rows, err := assembleAnswers(s.q, s.in, s.out[s.root])
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
// On cancellation it returns the context's error (DeadlineExceeded once
// the deadline has passed) and the standing state rolls back to before
// the call.
func (s *StandingQuery) Insert(ctx context.Context, relation string, tuple ...string) error {
	return s.apply(ctx, relation, tuple, true)
}

// Delete removes one occurrence of the tuple from the named relation and
// re-answers the query. Deleting an absent tuple is a no-op. On
// cancellation it returns the context's error and the standing state
// rolls back.
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
	for ai, a := range s.q.Body {
		if a.Relation != relation {
			continue
		}
		if !s.applyAtom(ai, tuple, insert) {
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
	n, err := s.propagate(ctx, dirty)
	if err == nil {
		tr.Instant(track, "cq.delta.nodes",
			telemetry.Arg{Key: "base", Val: int64(n[0])},
			telemetry.Arg{Key: "up", Val: int64(n[1])},
			telemetry.Arg{Key: "down", Val: int64(n[2])},
			telemetry.Arg{Key: "out", Val: int64(n[3])})
	}
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
func (s *StandingQuery) applyAtom(ai int, tuple []string, insert bool) bool {
	sh := &s.in.shapes[ai]
	if !sh.match(tuple) {
		return false
	}
	counts := s.counts[ai]
	key := sh.key(tuple)
	old := counts[key]
	if insert {
		counts[key] = old + 1
	} else {
		if old == 0 {
			return false
		}
		if old == 1 {
			delete(counts, key)
		} else {
			counts[key] = old - 1
		}
	}
	s.undo = append(s.undo, func() {
		if old == 0 {
			delete(counts, key)
		} else {
			counts[key] = old
		}
	})
	changed := (insert && old == 0) || (!insert && old == 1)
	if !changed {
		return false
	}
	oldRel := s.in.atomRel[ai]
	s.undo = append(s.undo, func() { s.in.atomRel[ai] = oldRel })
	if len(sh.scope) == 0 {
		// Ground atom: one tuple filling its dummy vertex while satisfied.
		var rows [][]int
		if insert {
			rows = [][]int{{s.in.terms.intern("_")}}
		}
		s.in.atomRel[ai] = csp.NewRelation(oldRel.Scope, rows)
		return true
	}
	row := make([]int, len(sh.cols))
	for si, c := range sh.cols {
		row[si] = s.in.terms.intern(tuple[c])
	}
	rows := make([][]int, 0, oldRel.Size()+1)
	for i := 0; i < oldRel.Size(); i++ {
		if t := oldRel.Row(i); insert || !slices.Equal(t, row) {
			rows = append(rows, t)
		}
	}
	if insert {
		rows = append(rows, row)
	}
	s.in.atomRel[ai] = csp.NewRelation(oldRel.Scope, rows)
	return true
}

// propagate sweeps the four layers in the engine's level order from the
// nodes whose base is dirty, re-running a layer's step only on nodes with
// a changed input — their own node's previous layer, or the same layer at
// the children (up, out) or the parent (down) — and stopping where
// csp.SameSet proves a recomputation a no-op. Every commit journals the
// old relation so a cancelled sweep rolls back cleanly. Returns the number
// of nodes changed per layer.
func (s *StandingQuery) propagate(ctx context.Context, baseDirty []bool) (changedNodes [4]int, err error) {
	var changed [4][]bool
	for l := range changed {
		changed[l] = make([]bool, len(s.nodes))
	}
	var dirty []int
	for i, d := range baseDirty {
		if d {
			dirty = append(dirty, i)
		}
	}
	changedNodes[0], err = s.sweep(ctx, dirty, s.base, changed[0], func(i int) (*csp.Relation, error) {
		return s.baseStep(ctx, i)
	})
	if err != nil {
		return changedNodes, err
	}
	for l, p := range []struct {
		layer    []*csp.Relation
		step     func(i int) *csp.Relation
		bottomUp bool // reads the children's relation of its own layer, not the parent's
	}{{s.up, s.upStep, true}, {s.down, s.downStep, false}, {s.out, s.outStep, true}} {
		in, self := changed[l], changed[l+1]
		reached := func(i int) bool {
			if in[i] {
				return true
			}
			n := s.nodes[i]
			if !p.bottomUp {
				return n.Parent != nil && self[s.idx[n.Parent]]
			}
			for _, ch := range n.Children {
				if self[s.idx[ch]] {
					return true
				}
			}
			return false
		}
		err = s.walk(ctx, p.bottomUp, reached, func(nodes []int) error {
			k, err := s.sweep(ctx, nodes, p.layer, self, func(i int) (*csp.Relation, error) {
				return p.step(i), nil
			})
			changedNodes[l+1] += k
			return err
		})
		if err != nil {
			return changedNodes, err
		}
	}

	empty := s.anyEmpty()
	if changed[3][s.root] || empty != s.isEmpty {
		oldAns, oldEmpty := s.answers, s.isEmpty
		s.undo = append(s.undo, func() { s.answers, s.isEmpty = oldAns, oldEmpty })
		s.isEmpty = empty
		err = s.refreshAnswers()
	}
	return changedNodes, err
}

// sweep runs step over a batch of independent nodes on the worker pool,
// committing (and journaling) only relations whose set of tuples differs
// from the layer's current one; a layer starts out empty (nil) before the
// opening propagation. Returns the number of changed nodes.
func (s *StandingQuery) sweep(ctx context.Context, nodes []int, layer []*csp.Relation, changed []bool, step func(i int) (*csp.Relation, error)) (int, error) {
	rels := make([]*csp.Relation, len(nodes))
	err := runTasks(ctx, s.opt, len(nodes), func(k int) error {
		r, err := step(nodes[k])
		if old := layer[nodes[k]]; err == nil && (old == nil || !csp.SameSet(old, r)) {
			rels[k] = r
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	committed := 0
	for k, i := range nodes {
		if rels[k] == nil {
			continue
		}
		committed++
		old := layer[i]
		s.undo = append(s.undo, func() { layer[i] = old })
		layer[i] = rels[k]
		changed[i] = true
	}
	return committed, nil
}

// rollback replays the undo journal in reverse, restoring counts, per-atom
// relations, layer pointers, and the answer set.
func (s *StandingQuery) rollback() {
	for i := len(s.undo) - 1; i >= 0; i-- {
		s.undo[i]()
	}
	s.undo = nil
}
