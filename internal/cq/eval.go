package cq

import (
	"context"
	"fmt"
	"sort"

	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
)

// Evaluate answers the query over the database by building a generalized
// hypertree decomposition of the query hypergraph (min-fill ordering,
// exact covers) and running Yannakakis's algorithm over it: full reducer
// (bottom-up + top-down semijoins) followed by a bottom-up join pass that
// keeps only head and connector variables, giving output-polynomial
// evaluation for queries of bounded ghw. Results use set semantics and are
// sorted for determinism. Evaluate is EvaluateCtx without cancellation.
func Evaluate(q *Query, db *Database) ([][]string, error) {
	return EvaluateCtx(context.Background(), q, db, EvalOptions{})
}

// Boolean answers a Boolean query: does any assignment satisfy the body?
// It stops after the bottom-up full reducer (see BooleanCtx) instead of
// materializing answers.
func Boolean(q *Query, db *Database) (bool, error) {
	return BooleanCtx(context.Background(), q, db, EvalOptions{})
}

// EvaluateWith answers the query using a caller-supplied decomposition of
// q.Hypergraph() (e.g. a width-optimal one from the exact searches).
func EvaluateWith(q *Query, db *Database, d *decomp.Decomposition) ([][]string, error) {
	return EvaluateWithCtx(context.Background(), q, db, d, EvalOptions{})
}

// errHeadLost reports the internal invariant violation of a head variable
// missing from the root output relation.
func errHeadLost(hv string) error {
	return fmt.Errorf("cq: internal error: head variable %s lost during evaluation", hv)
}

// errArity reports a database row whose width disagrees with an atom over
// its relation — shared between the per-query and batch interners so both
// paths fail identically.
func errArity(relation string, rowLen, atomLen int) error {
	return fmt.Errorf("cq: relation %s has arity %d, atom uses %d", relation, rowLen, atomLen)
}

// errBatchPlans reports a batch call with a mismatched plan slice.
func errBatchPlans(queries, plans int) error {
	return fmt.Errorf("cq: batch has %d queries but %d decompositions", queries, plans)
}

// interner maps constant strings to dense integer codes. One interner may
// be shared by every query of a batch (and by a sharedBase store), so equal
// constants carry equal codes across queries and hashed base relations can
// be reused as-is.
type interner struct {
	dict    []string
	dictIdx map[string]int
}

func newInterner() *interner {
	return &interner{dictIdx: map[string]int{}}
}

func (it *interner) intern(s string) int {
	if i, ok := it.dictIdx[s]; ok {
		return i
	}
	i := len(it.dict)
	it.dict = append(it.dict, s)
	it.dictIdx[s] = i
	return i
}

func (it *interner) value(i int) string { return it.dict[i] }

// instance interns the database against the query structure.
type instance struct {
	h        *hypergraph.Hypergraph // one vertex per variable, one edge per atom
	varIndex map[string]int         // query variable → hypergraph vertex index
	terms    *interner              // constant dictionary (shared across a batch)
	atomRel  []*csp.Relation        // per body atom, scope = its vertex indices
	empty    bool                   // a ground atom failed: no answers
}

// newInstance interns db against q with a private dictionary; sb, when
// non-nil, supplies the batch-shared dictionary and the canonical hashed
// base relations (see sharedBase), from which plain atoms — all-distinct
// variables, no constants — are served without re-interning.
func newInstance(q *Query, db *Database, sb *sharedBase) (*instance, error) {
	h := q.Hypergraph()
	in := &instance{
		h:        h,
		varIndex: map[string]int{},
		terms:    newInterner(),
	}
	if sb != nil {
		in.terms = sb.terms
	}
	for _, v := range q.Vars() {
		idx := h.VertexIndex(v)
		if idx < 0 {
			return nil, fmt.Errorf("cq: internal error: variable %s missing from hypergraph", v)
		}
		in.varIndex[v] = idx
	}

	for i, a := range q.Body {
		rows := db.Relation(a.Relation)
		// Distinct variables of the atom, in hypergraph order.
		var scope []int
		seenV := map[string]bool{}
		for _, t := range a.Terms {
			if t.IsVar && !seenV[t.Value] {
				seenV[t.Value] = true
				scope = append(scope, in.varIndex[t.Value])
			}
		}
		if sb != nil && isPlainAtom(a) && len(scope) > 0 {
			// Plain atom: its relation is exactly the canonical deduped row
			// set of (relation, arity) — share the batch's interned copy.
			tuples, err := sb.canonical(a.Relation, len(a.Terms))
			if err != nil {
				return nil, err
			}
			in.atomRel = append(in.atomRel, &csp.Relation{Scope: scope, Tuples: tuples})
			continue
		}
		groundOK := false
		rel := &csp.Relation{Scope: scope}
		dedupe := map[string]bool{}
		for _, row := range rows {
			if len(row) != len(a.Terms) {
				return nil, errArity(a.Relation, len(row), len(a.Terms))
			}
			binding, ok := bindAtomRow(a, row)
			if !ok {
				continue
			}
			groundOK = true
			if len(scope) == 0 {
				continue
			}
			// Fill the tuple in hypergraph-scope order.
			tuple := make([]int, len(scope))
			key := ""
			for si, v := range scope {
				name := varName(q, a, v, in)
				tuple[si] = in.terms.intern(binding[name])
				key += binding[name] + "\x00"
			}
			if !dedupe[key] {
				dedupe[key] = true
				rel.Tuples = append(rel.Tuples, tuple)
			}
		}
		if len(scope) == 0 {
			// Ground atom: represent via its dummy vertex with a single
			// tuple when satisfied.
			dummyIdx := -1
			es := h.EdgeSet(i)
			es.ForEach(func(v int) bool { dummyIdx = v; return false })
			rel = &csp.Relation{Scope: []int{dummyIdx}}
			if groundOK {
				rel.Tuples = [][]int{{in.terms.intern("_")}}
			} else {
				in.empty = true
			}
		}
		in.atomRel = append(in.atomRel, rel)
	}
	return in, nil
}

// bindAtomRow matches one database row against an atom's constants and
// repeated variables, returning the variable binding (nil, false when the
// row is rejected). The row must already have the atom's arity.
func bindAtomRow(a Atom, row []string) (map[string]string, bool) {
	binding := map[string]string{}
	for j, t := range a.Terms {
		if !t.IsVar {
			if row[j] != t.Value {
				return nil, false
			}
			continue
		}
		if prev, bound := binding[t.Value]; bound {
			if prev != row[j] {
				return nil, false
			}
			continue
		}
		binding[t.Value] = row[j]
	}
	return binding, true
}

// varName finds the variable name whose hypergraph index is v among the
// atom's terms.
func varName(q *Query, a Atom, v int, in *instance) string {
	for _, t := range a.Terms {
		if t.IsVar && in.varIndex[t.Value] == v {
			return t.Value
		}
	}
	return ""
}

func (in *instance) value(i int) string { return in.terms.value(i) }

// isPlainAtom reports whether every term of a is a variable and no
// variable repeats — the shape whose per-atom relation equals the raw
// deduped relation rows in column order.
func isPlainAtom(a Atom) bool {
	seen := map[string]bool{}
	for _, t := range a.Terms {
		if !t.IsVar || seen[t.Value] {
			return false
		}
		seen[t.Value] = true
	}
	return true
}

func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
}

// NaiveEvaluate answers the query by a nested-loop join over all atoms —
// the reference implementation the decomposition-based evaluator is tested
// against. Exponential in the number of atoms.
func NaiveEvaluate(q *Query, db *Database) ([][]string, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var rows [][]string
	dedupe := map[string]bool{}
	var rec func(i int, binding map[string]string)
	rec = func(i int, binding map[string]string) {
		if i == len(q.Body) {
			row := make([]string, len(q.Head))
			key := ""
			for k, hv := range q.Head {
				row[k] = binding[hv]
				key += row[k] + "\x00"
			}
			if !dedupe[key] {
				dedupe[key] = true
				rows = append(rows, row)
			}
			return
		}
		a := q.Body[i]
		for _, tuple := range db.Relation(a.Relation) {
			if len(tuple) != len(a.Terms) {
				continue
			}
			local := map[string]string{}
			ok := true
			for j, t := range a.Terms {
				if !t.IsVar {
					ok = tuple[j] == t.Value
				} else if prev, bound := binding[t.Value]; bound {
					ok = prev == tuple[j]
				} else if prev, bound := local[t.Value]; bound {
					ok = prev == tuple[j]
				} else {
					local[t.Value] = tuple[j]
				}
				if !ok {
					break
				}
			}
			if !ok {
				continue
			}
			for k, v := range local {
				binding[k] = v
			}
			rec(i+1, binding)
			for k := range local {
				delete(binding, k)
			}
		}
	}
	rec(0, map[string]string{})
	sortRows(rows)
	return rows, nil
}
