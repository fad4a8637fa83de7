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
	shapes   []atomShape            // per body atom
	atomRel  []*csp.Relation        // per body atom, scope = its vertex indices
	empty    bool                   // a ground atom failed: no answers
}

// atomShape is one body atom read against the hypergraph: its scope (the
// vertices of its distinct variables, in term order), the database column
// that supplies each scope variable, and the equalities a database row
// must meet to match the atom.
type atomShape struct {
	relation string
	terms    []Term // read for constants only
	first    []int  // per term: the column of its variable's first term; −1 for a constant
	scope    []int
	cols     []int // per scope position: the column of its variable's first term
}

// newAtomShape reads atom a against the vertex of each variable.
func newAtomShape(a Atom, varIndex map[string]int) atomShape {
	sh := atomShape{relation: a.Relation, terms: a.Terms, first: make([]int, len(a.Terms))}
	col := map[string]int{}
	for j, t := range a.Terms {
		sh.first[j] = -1
		if !t.IsVar {
			continue
		}
		c, seen := col[t.Value]
		if !seen {
			c = j
			col[t.Value] = j
			sh.scope = append(sh.scope, varIndex[t.Value])
			sh.cols = append(sh.cols, j)
		}
		sh.first[j] = c
	}
	return sh
}

// plain reports whether every term of the atom is a variable and no
// variable repeats: the shape whose per-atom relation equals the raw
// deduped relation rows in column order.
func (sh *atomShape) plain() bool { return len(sh.cols) == len(sh.first) }

// match reports whether a database row of the atom's arity meets its
// constants and repeated variables.
func (sh *atomShape) match(row []string) bool {
	for j, c := range sh.first {
		if c < 0 {
			if row[j] != sh.terms[j].Value {
				return false
			}
		} else if row[j] != row[c] {
			return false
		}
	}
	return true
}

// key renders the scope values of a matching row as a string key.
func (sh *atomShape) key(row []string) string {
	key := ""
	for _, c := range sh.cols {
		key += row[c] + "\x00"
	}
	return key
}

// intern passes add the interned scope values of each row that matches
// the atom, in row order. A row of another arity is an error.
func (sh *atomShape) intern(rows [][]string, terms *interner, add func(row []int)) error {
	tuple := make([]int, len(sh.cols))
	for _, row := range rows {
		if len(row) != len(sh.first) {
			return errArity(sh.relation, len(row), len(sh.first))
		}
		if !sh.match(row) {
			continue
		}
		for si, c := range sh.cols {
			tuple[si] = terms.intern(row[c])
		}
		add(tuple)
	}
	return nil
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
		sh := newAtomShape(a, in.varIndex)
		in.shapes = append(in.shapes, sh)
		rows := db.Relation(a.Relation)
		var rel *csp.Relation
		var err error
		switch {
		case len(sh.scope) == 0:
			// Ground atom: represent via its dummy vertex with a single
			// tuple when satisfied.
			groundOK := false
			if err = sh.intern(rows, in.terms, func([]int) { groundOK = true }); err != nil {
				return nil, err
			}
			dummyIdx := -1
			h.EdgeSet(i).ForEach(func(v int) bool { dummyIdx = v; return false })
			rel = csp.NewRelation([]int{dummyIdx}, nil)
			if groundOK {
				rel.AppendRow([]int{in.terms.intern("_")})
			} else {
				in.empty = true
			}
		case sb != nil && sh.plain():
			// Plain atom: its relation is exactly the canonical deduped row
			// set of (relation, arity) — share the batch's interned copy.
			if rel, err = sb.canonical(a.Relation, len(a.Terms)); err != nil {
				return nil, err
			}
			rel = rel.WithScope(sh.scope)
		default:
			rel, err = csp.DistinctRows(sh.scope, func(add func([]int)) error {
				return sh.intern(rows, in.terms, add)
			})
			if err != nil {
				return nil, err
			}
		}
		in.atomRel = append(in.atomRel, rel)
	}
	return in, nil
}

func (in *instance) value(i int) string { return in.terms.value(i) }

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
