// Incremental query serving: a StandingQuery keeps a conjunctive query's
// answer set maintained under single-tuple inserts and deletes without
// re-running the full evaluation.
//
// The standing state is the engine's dataflow (flow) kept whole: the
// relation layers base/up/down per node of the (completed) decomposition,
// each in its own slice, the out layer filed into groups by key
// (outGroups), plus, per body atom, a multiplicity count of the database
// rows matching it, so set-semantics per-atom relations survive duplicate
// inserts and partial deletes.
//
// A delta first rewrites the per-atom relations it touches, then
// propagates: it sweeps the base, up and down layers in the engine's level
// order, re-running the layer's step only on nodes whose inputs changed
// and cutting off with a set-equality test (csp.SameSet): every kernel
// consumes its inputs with set semantics, so an unchanged recomputed
// relation proves the delta cannot reach past that node. The out layer
// then pays only for what changed: from each changed down relation's row
// diff (csp.Diff) it re-files, bottom-up, just the groups whose keys the
// change reaches, and the root's row diff is merged into the sorted
// answers. Opening a standing query is the same propagation with every
// node dirty against empty layers, and it fills the out layer in full.
//
// Every recompute runs the engine's own step functions on the same
// level-synchronous runTasks pool, so Answers is bit-identical to a fresh
// EvaluateCtx over the mutated database at every Jobs value. A cancelled
// delta rolls back through an undo journal — relations, out runs and
// answer slices are replaced, never mutated in place — leaving no partial
// answer state.
package cq

import (
	"context"
	"errors"
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
	outs      []*outGroups     // per node: the out layer by key; nil while isEmpty holds
	answers   [][]string
	spare     [][]string // the answer slice a delta retired, which the next merge reuses

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
	f.base, f.up, f.down = layer(), layer(), layer()
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
	// empty, so each step runs once on every node and the out layer is
	// filled in full.
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

// propagate sweeps the base, up and down layers in the engine's level
// order from the nodes whose base is dirty, re-running a layer's step only
// on nodes with a changed input — their own node's previous layer, or the
// same layer at the children (up) or the parent (down) — and stopping
// where csp.SameSet proves a recomputation a no-op. It then brings the out
// layer and the answers up to date (refreshOut). Every commit journals the
// old state so a cancelled sweep rolls back cleanly. Returns the number of
// nodes changed per layer.
func (s *StandingQuery) propagate(ctx context.Context, baseDirty []bool) (changedNodes [4]int, err error) {
	var changed [3][]bool
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
	oldDown := slices.Clone(s.down)
	for l, p := range []struct {
		layer    []*csp.Relation
		step     func(i int) *csp.Relation
		bottomUp bool // reads the children's relation of its own layer, not the parent's
	}{{s.up, s.upStep, true}, {s.down, s.downStep, false}} {
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
	changedNodes[3], err = s.refreshOut(ctx, oldDown, changed[2])
	return changedNodes, err
}

// refreshOut brings the out layer and the answers up to date with the
// down layer. While the emptiness short-circuit holds there are no answers
// and no out layer. When it ends, and at the open, the out layer is filled
// in full (fillOut); otherwise it follows the down layer's change against
// oldDown at the nodes downChanged marks (deltaOut). Returns the number of
// nodes whose out rows changed.
func (s *StandingQuery) refreshOut(ctx context.Context, oldDown []*csp.Relation, downChanged []bool) (int, error) {
	empty := s.anyEmpty()
	if !empty && s.outs != nil {
		return s.deltaOut(ctx, oldDown, downChanged)
	}
	if empty && s.isEmpty {
		return 0, nil
	}
	oldOuts, oldAns, oldEmpty := s.outs, s.answers, s.isEmpty
	s.undo = append(s.undo, func() { s.outs, s.answers, s.isEmpty = oldOuts, oldAns, oldEmpty })
	s.outs, s.answers, s.isEmpty = nil, nil, empty
	if empty {
		return 0, nil
	}
	return len(s.nodes), s.fillOut(ctx)
}

// fillOut runs outStep on every node over whole relations, as the one-shot
// engine does, renders the answers from the root's relation, and then
// files each node's relation by key.
func (s *StandingQuery) fillOut(ctx context.Context) error {
	out := make([]*csp.Relation, len(s.nodes))
	err := s.walk(ctx, true, nil, func(nodes []int) error {
		return s.each(ctx, nodes, func(i int) { out[i] = s.outStep(i, s.down[i], s.kids(out, i)) })
	})
	if err != nil {
		return err
	}
	answers, err := assembleAnswers(s.q, s.in, out[s.root])
	if err != nil {
		return err
	}
	outs := make([]*outGroups, len(s.nodes))
	err = runTasks(ctx, s.opt, len(s.nodes), func(i int) error {
		outs[i] = s.newOutGroups(i, out[i])
		return nil
	})
	if err != nil {
		return err
	}
	for i, l := range outs {
		for _, c := range s.nodes[i].Children {
			kl := outs[s.idx[c]]
			pos := make([]int, len(kl.keyPos))
			for k, p := range kl.keyPos {
				pos[k] = slices.Index(s.down[i].Scope, kl.scope[p])
			}
			l.kidKey = append(l.kidKey, pos)
		}
	}
	s.outs, s.answers = outs, answers
	return nil
}

// outGroups is one node's out relation filed by key: its rows split into
// groups by their values on the out variables that the parent's χ holds —
// the node's connector — or, at the root, that χ(root) holds. The key
// variables all lie in χ of the node, so each down row holds one key, and
// each child's key lies in the node's down scope. The groups' rows sit in
// one flat, pointer-free store, each group a run of it. The open fills the
// store in one counting pass. A delta appends the rows of each group it
// changes and moves the group's run onto them, so a run, once written,
// never changes, and rollback only restores runs. Once the store holds
// more dead rows than live ones it is copied down to its live runs
// (compact), which keeps it within twice the relation. A key whose group
// empties keeps its number, with an empty run.
type outGroups struct {
	scope   []int     // the out relation's scope
	keyPos  []int     // the key's positions in scope
	downKey []int     // the key's positions in the node's down scope
	kidKey  [][]int   // per child: the child's key's positions in the node's down scope
	keys    *csp.Keys // key → number
	store   []int     // the rows, len(scope) values each
	n, live int       // rows in store; rows in runs
	groups  []group   // by key number
	local   []int32   // file's scratch by key number, −1 between calls
}

// group is the out rows of one key: the store's rows lo … hi−1.
type group struct{ lo, hi int32 }

// newOutGroups files node i's out relation r by key.
func (s *StandingQuery) newOutGroups(i int, r *csp.Relation) *outGroups {
	n := s.nodes[i]
	chi := n.Chi
	if n.Parent != nil {
		chi = n.Parent.Chi
	}
	l := &outGroups{scope: r.Scope, store: make([]int, 0, r.Size()*r.Arity())}
	for p, v := range r.Scope {
		if chi.Contains(v) {
			l.keyPos = append(l.keyPos, p)
			l.downKey = append(l.downKey, slices.Index(s.down[i].Scope, v))
		}
	}
	l.keys = csp.NewKeys(len(l.keyPos))
	ids, order, end := l.file(r, nil)
	l.put(r, ids, order, end)
	return l
}

// row returns row j of the store.
func (l *outGroups) row(j int32) []int {
	w := len(l.scope)
	return l.store[int(j)*w : int(j)*w+w : int(j)*w+w]
}

// id returns the number of the key that t holds at pos, numbering it, with
// an empty run, when it is new.
func (l *outGroups) id(t, pos []int) int {
	g := l.keys.ID(t, pos)
	if g == len(l.groups) {
		l.groups = append(l.groups, group{})
		l.local = append(l.local, -1)
	}
	return g
}

// file sorts the rows of r, a relation over the layer's scope, by key in
// one counting pass. It returns the keys of pre and then the other keys
// r's rows hold, in the order first met, and r's row indices grouped in
// that order: key k's rows are order[end[k−1]:end[k]], and a key of pre
// that no row holds has none.
func (l *outGroups) file(r *csp.Relation, pre []int) (ids []int, order, end []int32) {
	ids = append(ids, pre...)
	for k, g := range ids {
		l.local[g] = int32(k)
	}
	slot := make([]int32, r.Size())
	for j := range slot {
		g := l.id(r.Row(j), l.keyPos)
		if l.local[g] < 0 {
			l.local[g] = int32(len(ids))
			ids = append(ids, g)
		}
		slot[j] = l.local[g]
	}
	// end[k] is where key k's rows begin in order until the placing loop
	// moves it to where they end.
	end = make([]int32, len(ids)+1)
	for _, k := range slot {
		end[k+1]++
	}
	for k := 1; k < len(end); k++ {
		end[k] += end[k-1]
	}
	order = make([]int32, len(slot))
	for j, k := range slot {
		order[end[k]] = int32(j)
		end[k]++
	}
	for _, g := range ids {
		l.local[g] = -1
	}
	return ids, order, end[:len(ids)]
}

// put appends the rows of r that file grouped under ids to the store and
// moves those keys' runs onto them. It returns the runs they had.
func (l *outGroups) put(r *csp.Relation, ids []int, order, end []int32) []group {
	olds := make([]group, len(ids))
	lo := int32(0)
	for k, g := range ids {
		run := group{int32(l.n), int32(l.n) + end[k] - lo}
		for _, j := range order[lo:end[k]] {
			l.store = append(l.store, r.Row(int(j))...)
		}
		olds[k], l.groups[g] = l.groups[g], run
		l.n += int(run.hi - run.lo)
		l.live += int(run.hi-run.lo) - int(olds[k].hi-olds[k].lo)
		lo = end[k]
	}
	return olds
}

// compact copies the live runs into a new store, in key order, and gives
// the layer a new run slice, so that a journal entry holding the old ones
// can restore them.
func (l *outGroups) compact() {
	store := make([]int, 0, l.live*len(l.scope))
	groups := make([]group, len(l.groups))
	n := int32(0)
	for g, run := range l.groups {
		for j := run.lo; j < run.hi; j++ {
			store = append(store, l.row(j)...)
		}
		groups[g] = group{n, n + run.hi - run.lo}
		n = groups[g].hi
	}
	l.store, l.groups, l.n = store, groups, int(n)
}

// gather returns a new relation over the layer's scope holding the rows of
// the given groups.
func (l *outGroups) gather(ids []int) *csp.Relation {
	r := csp.NewRelation(l.scope, nil)
	for _, g := range ids {
		for j := l.groups[g].lo; j < l.groups[g].hi; j++ {
			r.AppendRow(l.row(j))
		}
	}
	return r
}

// outDiff is how a delta changes one node's out rows: the rows added and
// removed, and the reached groups' new rows, filed by key (see file).
type outDiff struct {
	added, removed *csp.Relation
	rows           *csp.Relation
	ids            []int
	order, end     []int32
}

// deltaOut updates the out layer from the down layer's change, bottom-up.
// At each node it recomputes only the groups the change reaches (refile);
// their row diff is the node's out diff, which reaches the parent in turn,
// and the root's is merged into the answers. A level's refiles run on the
// worker pool and commit, journaled, once the level is done.
func (s *StandingQuery) deltaOut(ctx context.Context, oldDown []*csp.Relation, downChanged []bool) (int, error) {
	diffs := make([]*outDiff, len(s.nodes))
	reached := func(i int) bool {
		if downChanged[i] {
			return true
		}
		for _, c := range s.nodes[i].Children {
			if diffs[s.idx[c]] != nil {
				return true
			}
		}
		return false
	}
	changed := 0
	tr, track := s.opt.Trace, s.opt.Track
	tr.Begin(track, "cq.delta.out")
	err := s.walk(ctx, true, reached, func(nodes []int) error {
		level := make([]*outDiff, len(nodes))
		err := runTasks(ctx, s.opt, len(nodes), func(k int) error {
			var prev *csp.Relation
			if i := nodes[k]; downChanged[i] {
				prev = oldDown[i]
			}
			level[k] = s.refile(nodes[k], prev, diffs)
			return nil
		})
		if err != nil {
			return err
		}
		for k, i := range nodes {
			d := level[k]
			if d == nil {
				continue
			}
			changed++
			diffs[i] = d
			s.commit(s.outs[i], d)
		}
		return nil
	})
	tr.End(track, "cq.delta.out")
	if err != nil {
		return changed, err
	}
	if d := diffs[s.root]; d != nil {
		err = s.mergeAnswers(d.added, d.removed)
	}
	return changed, err
}

// refile recomputes the groups of node i that a delta reaches and returns
// how its out rows change, or nil when they do not. A key is reached when
// a row of the down diff (down[i] against prev, nil when down[i] did not
// change) holds it, or when a row of down[i] that holds it joins a row of
// a child's out diff on the child's key. The reached groups' new rows are
// outStep over the down rows that hold their keys and the children's
// groups those rows join, so the work is that of the reached groups, not
// of the layer.
func (s *StandingQuery) refile(i int, prev *csp.Relation, diffs []*outDiff) *outDiff {
	l, down := s.outs[i], s.down[i]
	keyVars := make([]int, len(l.keyPos))
	for k, p := range l.keyPos {
		keyVars[k] = l.scope[p]
	}
	var joined int64
	reached, _ := csp.DistinctRows(keyVars, func(add func(row []int)) error {
		if prev != nil {
			key := make([]int, len(keyVars))
			added, removed := csp.Diff(prev, down)
			for _, r := range []*csp.Relation{added, removed} {
				for j := 0; j < r.Size(); j++ {
					t := r.Row(j)
					for k, p := range l.downKey {
						key[k] = t[p]
					}
					add(key)
				}
			}
		}
		for _, c := range s.nodes[i].Children {
			d := diffs[s.idx[c]]
			if d == nil {
				continue
			}
			for _, r := range []*csp.Relation{d.added, d.removed} {
				if r.Size() == 0 {
					continue
				}
				hit := csp.JoinProject(down, r, keyVars)
				joined += int64(hit.Size())
				for j := 0; j < hit.Size(); j++ {
					add(hit.Row(j))
				}
			}
		}
		return nil
	})
	if reached.Size() == 0 {
		s.opt.Stats.Add(telemetry.CQJoinTuples, joined)
		return nil
	}
	all := make([]int, len(keyVars))
	for k := range all {
		all[k] = k
	}
	pre := make([]int, reached.Size())
	for k := range pre {
		pre[k] = l.id(reached.Row(k), all)
	}
	rows := csp.JoinProject(down, reached, down.Scope)
	joined += int64(rows.Size())
	s.opt.Stats.Add(telemetry.CQJoinTuples, joined)
	kids := make([]*csp.Relation, len(s.nodes[i].Children))
	for k, c := range s.nodes[i].Children {
		kl := s.outs[s.idx[c]]
		var ids []int
		for j := 0; j < rows.Size(); j++ {
			if g := kl.keys.Find(rows.Row(j), l.kidKey[k]); g >= 0 {
				ids = append(ids, g)
			}
		}
		slices.Sort(ids)
		kids[k] = kl.gather(slices.Compact(ids))
	}
	out := s.outStep(i, rows, kids)
	added, removed := csp.Diff(l.gather(pre), out)
	if added.Size() == 0 && removed.Size() == 0 {
		return nil
	}
	ids, order, end := l.file(out, pre)
	return &outDiff{added: added, removed: removed, rows: out, ids: ids, order: order, end: end}
}

// commit puts a refile's rows into node layer l, compacting the store when
// it holds more dead rows than live ones, and journals the layer's state.
func (s *StandingQuery) commit(l *outGroups, d *outDiff) {
	groups, store, n, live := l.groups, l.store, l.n, l.live
	olds := l.put(d.rows, d.ids, d.order, d.end)
	if l.n-l.live > l.live {
		l.compact()
	}
	s.undo = append(s.undo, func() {
		l.groups, l.store, l.n, l.live = groups, store, n, live
		for k, g := range d.ids {
			l.groups[g] = olds[k]
		}
	})
}

// errAnswerLost reports the internal invariant violation of a removed
// answer row missing from the answer set.
var errAnswerLost = errors.New("cq: internal error: a removed answer is not in the answer set")

// mergeAnswers applies the root's out diff to the sorted answers: it
// renders and sorts only the added and removed rows and merges them into
// another slice than the answers', the one the previous merge retired, so
// a rollback keeps the old one. Answers hands out copies, so no caller
// holds a retired slice. The emptiness
// transitions go through fillOut and assembleAnswers instead, and so do
// the answers of a query with an empty head, whose root out relation
// changes only with emptiness.
func (s *StandingQuery) mergeAnswers(added, removed *csp.Relation) error {
	cols, err := headCols(s.q, s.in, added.Scope)
	if err != nil {
		return err
	}
	add, del := s.answerRows(added, cols), s.answerRows(removed, cols)
	old := s.answers
	merged := s.spare[:0]
	if n := len(old) + len(add) - len(del); cap(merged) < n {
		merged = make([][]string, 0, n+n/8)
	}
	next := 0 // the first old answer not yet copied or dropped
	for len(add) > 0 || len(del) > 0 {
		if len(del) > 0 && (len(add) == 0 || slices.Compare(del[0], add[0]) < 0) {
			j, ok := slices.BinarySearchFunc(old[next:], del[0], slices.Compare[[]string])
			if !ok {
				return errAnswerLost
			}
			merged = append(merged, old[next:next+j]...)
			next += j + 1
			del = del[1:]
			continue
		}
		j, _ := slices.BinarySearchFunc(old[next:], add[0], slices.Compare[[]string])
		merged = append(merged, old[next:next+j]...)
		merged = append(merged, add[0])
		next += j
		add = add[1:]
	}
	merged = append(merged, old[next:]...)
	s.undo = append(s.undo, func() { s.answers, s.spare = old, merged })
	s.answers, s.spare = merged, old
	return nil
}

// answerRows renders the rows of r, a relation over the root's out scope,
// as sorted answer rows, reading each head variable from its column in
// cols. Each row has an allocation of its own: an added row stays in the
// answers for as long as it is an answer, and keeps no other row's
// strings alive.
func (s *StandingQuery) answerRows(r *csp.Relation, cols []int) [][]string {
	rows := make([][]string, r.Size())
	for k := range rows {
		t, row := r.Row(k), make([]string, len(cols))
		for j, c := range cols {
			row[j] = s.in.value(t[c])
		}
		rows[k] = row
	}
	slices.SortFunc(rows, slices.Compare[[]string])
	return rows
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
// relations, layer pointers, out runs and stores, and the answer set.
func (s *StandingQuery) rollback() {
	for i := len(s.undo) - 1; i >= 0; i-- {
		s.undo[i]()
	}
	s.undo = nil
}
