package csp

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// australia builds Example 1: map 3-colouring of Australia (TAS free).
func australia() *CSP {
	names := []string{"WA", "NT", "Q", "SA", "NSW", "V", "TAS"}
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	doms := make([][]int, len(names))
	for i := range doms {
		doms[i] = []int{0, 1, 2} // r, g, b
	}
	neq := [][]int{
		{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1},
	}
	pairs := [][2]string{
		{"NT", "WA"}, {"SA", "WA"}, {"NT", "Q"}, {"NT", "SA"},
		{"Q", "SA"}, {"NSW", "Q"}, {"NSW", "V"}, {"NSW", "SA"}, {"SA", "V"},
	}
	c := &CSP{VarNames: names, Domains: doms}
	for i, p := range pairs {
		tuples := make([][]int, len(neq))
		for k, t := range neq {
			tuples[k] = append([]int(nil), t...)
		}
		c.Constraints = append(c.Constraints, &Constraint{
			Name: "C" + string(rune('1'+i)),
			Rel:  NewRelation([]int{idx[p[0]], idx[p[1]]}, tuples),
		})
	}
	return c
}

// sat3 builds Example 2: φ = (¬x1∨x2∨x3) ∧ (x1∨¬x4) ∧ (¬x3∨¬x5).
func sat3() *CSP {
	c := &CSP{
		VarNames: []string{"x1", "x2", "x3", "x4", "x5"},
		Domains:  [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}},
	}
	clause := func(name string, scope []int, satisfied func([]int) bool) {
		var tuples [][]int
		n := len(scope)
		for mask := 0; mask < 1<<n; mask++ {
			t := make([]int, n)
			for i := range t {
				t[i] = (mask >> i) & 1
			}
			if satisfied(t) {
				tuples = append(tuples, t)
			}
		}
		c.Constraints = append(c.Constraints, &Constraint{Name: name, Rel: NewRelation(scope, tuples)})
	}
	clause("C1", []int{0, 1, 2}, func(t []int) bool { return t[0] == 0 || t[1] == 1 || t[2] == 1 })
	clause("C2", []int{0, 3}, func(t []int) bool { return t[0] == 1 || t[1] == 0 })
	clause("C3", []int{2, 4}, func(t []int) bool { return t[0] == 0 || t[1] == 0 })
	return c
}

func TestValidate(t *testing.T) {
	c := australia()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &CSP{VarNames: []string{"a"}, Domains: [][]int{{}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty domain must fail validation")
	}
	bad2 := &CSP{
		VarNames:    []string{"a"},
		Domains:     [][]int{{0}},
		Constraints: []*Constraint{{Name: "c", Rel: NewRelation([]int{5}, nil)}},
	}
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range scope must fail validation")
	}
	bad3 := &CSP{
		VarNames:    []string{"a"},
		Domains:     [][]int{{0}},
		Constraints: []*Constraint{{Name: "c", Rel: NewRelation([]int{0}, [][]int{{7}})}},
	}
	if err := bad3.Validate(); err == nil {
		t.Fatal("out-of-domain tuple must fail validation")
	}
	bad4 := &CSP{
		VarNames:    []string{"a"},
		Domains:     [][]int{{0}},
		Constraints: []*Constraint{{Name: "c", Rel: NewRelation([]int{0}, [][]int{{0, 0}})}},
	}
	if err := bad4.Validate(); err == nil {
		t.Fatal("tuple of the wrong arity must fail validation")
	}
}

// TestRelationStore pins the flat store's contract: NewRelation and
// AppendRow copy their rows, a row of the wrong length is recorded rather
// than stored, a zero-arity relation holds empty rows, and two relations
// that share a store through WithScope append independently.
func TestRelationStore(t *testing.T) {
	rows := [][]int{{1, 2}, {3, 4}}
	r := NewRelation([]int{0, 1}, rows)
	rows[0][0] = 9
	r.AppendRow([]int{5})
	r.AppendRow([]int{5, 6})
	if got := rowsOf(r); !reflect.DeepEqual(got, [][]int{{1, 2}, {3, 4}, {5, 6}}) || r.refused != 1 || r.refusedLen != 1 {
		t.Fatalf("rows %v, refused %d of length %d", got, r.refused, r.refusedLen)
	}
	unit := NewRelation(nil, [][]int{{}})
	if unit.Size() != 1 || len(unit.Row(0)) != 0 {
		t.Fatalf("zero-arity relation: %d rows", unit.Size())
	}
	v := r.WithScope([]int{7, 8})
	v.AppendRow([]int{10, 11})
	r.AppendRow([]int{12, 13})
	if got := rowsOf(v); !reflect.DeepEqual(got[3], []int{10, 11}) || v.Size() != 4 {
		t.Fatalf("WithScope relation %v", got)
	}
	if got := rowsOf(r); !reflect.DeepEqual(got[3], []int{12, 13}) || r.Size() != 4 {
		t.Fatalf("original relation %v", got)
	}
}

// TestDistinctRows checks the deduplicating builder: each distinct row
// once, in first-occurrence order, from a reused buffer, past several
// doublings of its table; an error from fill comes back alone.
func TestDistinctRows(t *testing.T) {
	var want [][]int
	r, err := DistinctRows([]int{4, 2}, func(add func([]int)) error {
		row := make([]int, 2)
		for i := 0; i < 200; i++ {
			row[0], row[1] = i%50, i%5
			if i < 50 {
				want = append(want, append([]int(nil), row...))
			}
			add(row)
		}
		return nil
	})
	if err != nil || !reflect.DeepEqual(r.Scope, []int{4, 2}) || !reflect.DeepEqual(rowsOf(r), want) {
		t.Fatalf("DistinctRows = %v, %v; want %v", rowsOf(r), err, want)
	}
	if r, err := DistinctRows(nil, func(func([]int)) error { return errors.New("stop") }); r != nil || err == nil {
		t.Fatalf("DistinctRows = %v, %v; want the fill error", r, err)
	}
}

func TestAustraliaBacktracking(t *testing.T) {
	c := australia()
	sol, ok := c.SolveBacktracking()
	if !ok {
		t.Fatal("Australia 3-colouring must be satisfiable")
	}
	if !c.Check(sol) {
		t.Fatalf("returned solution %v violates constraints", sol)
	}
	// The thesis's concrete solution must verify too: WA=r NT=g SA=b Q=r NSW=g V=r TAS=g.
	paper := []int{0, 1, 0, 2, 1, 0, 1}
	if !c.Check(paper) {
		t.Fatal("the thesis's Example 1 solution does not verify")
	}
	// 3-colourings of this map: 6 for the mainland × 3 for TAS = 18.
	if got := c.CountSolutions(); got != 18 {
		t.Fatalf("CountSolutions = %d, want 18", got)
	}
}

func TestSATBacktracking(t *testing.T) {
	c := sat3()
	sol, ok := c.SolveBacktracking()
	if !ok || !c.Check(sol) {
		t.Fatal("Example 2 must be satisfiable")
	}
	// The thesis's solution x1=t x2=t x3=f x4=t x5=f.
	if !c.Check([]int{1, 1, 0, 1, 0}) {
		t.Fatal("the thesis's Example 2 solution does not verify")
	}
}

func TestUnsatisfiable(t *testing.T) {
	// x ≠ y over single-value domains.
	c := &CSP{
		VarNames: []string{"x", "y"},
		Domains:  [][]int{{0}, {0}},
		Constraints: []*Constraint{
			{Name: "neq", Rel: NewRelation([]int{0, 1}, [][]int{{0, 1}, {1, 0}})},
		},
	}
	if _, ok := c.SolveBacktracking(); ok {
		t.Fatal("unsatisfiable CSP solved")
	}
	if got := c.CountSolutions(); got != 0 {
		t.Fatalf("CountSolutions = %d, want 0", got)
	}
}

func TestHypergraphExtraction(t *testing.T) {
	c := australia()
	h := c.Hypergraph()
	if h.NumVertices() != 7 || h.NumEdges() != 9 {
		t.Fatalf("hypergraph shape %d/%d, want 7/9", h.NumVertices(), h.NumEdges())
	}
	if h.VertexIndex("TAS") < 0 {
		t.Fatal("TAS missing from hypergraph")
	}
}

func TestJoin(t *testing.T) {
	// R(a,b) ⋈ S(b,c).
	r := NewRelation([]int{0, 1}, [][]int{{1, 2}, {3, 4}})
	s := NewRelation([]int{1, 2}, [][]int{{2, 5}, {2, 6}, {9, 9}})
	j := Join(r, s)
	want := [][]int{{1, 2, 5}, {1, 2, 6}}
	if !reflect.DeepEqual(j.Sorted(), want) {
		t.Fatalf("join = %v, want %v", j.Sorted(), want)
	}
	if !reflect.DeepEqual(j.Scope, []int{0, 1, 2}) {
		t.Fatalf("join scope = %v", j.Scope)
	}
}

func TestJoinDisjointScopesIsCrossProduct(t *testing.T) {
	r := NewRelation([]int{0}, [][]int{{1}, {2}})
	s := NewRelation([]int{1}, [][]int{{7}})
	j := Join(r, s)
	if j.Size() != 2 {
		t.Fatalf("cross product size %d, want 2", j.Size())
	}
}

func TestSemijoin(t *testing.T) {
	r := NewRelation([]int{0, 1}, [][]int{{1, 2}, {3, 4}})
	s := NewRelation([]int{1, 2}, [][]int{{2, 5}})
	sj := Semijoin(r, s)
	if !reflect.DeepEqual(sj.Sorted(), [][]int{{1, 2}}) {
		t.Fatalf("semijoin = %v", sj.Sorted())
	}
	// Disjoint scopes: keep everything iff right side non-empty.
	empty := NewRelation([]int{5}, nil)
	if got := Semijoin(r, empty); got.Size() != 0 {
		t.Fatalf("semijoin with empty disjoint relation = %v", got.Sorted())
	}
	full := NewRelation([]int{5}, [][]int{{1}})
	if got := Semijoin(r, full); got.Size() != 2 {
		t.Fatalf("semijoin with non-empty disjoint relation lost tuples")
	}
}

func TestProject(t *testing.T) {
	r := NewRelation([]int{0, 1, 2}, [][]int{{1, 2, 3}, {1, 2, 4}, {5, 6, 7}})
	p := Project(r, []int{0, 1})
	if !reflect.DeepEqual(p.Sorted(), [][]int{{1, 2}, {5, 6}}) {
		t.Fatalf("project = %v", p.Sorted())
	}
	// Ignoring absent variables.
	p2 := Project(r, []int{0, 99})
	if !reflect.DeepEqual(p2.Scope, []int{0}) {
		t.Fatalf("project scope = %v", p2.Scope)
	}
}

// Property: Join agrees with a nested-loop reference implementation.
func TestJoinAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		// Random scopes over 5 variables.
		sc1 := randomScope(rng, 5)
		sc2 := randomScope(rng, 5)
		r := randomRelation(rng, sc1, 3)
		s := randomRelation(rng, sc2, 3)
		j := Join(r, s)

		// Reference: enumerate all assignments over union scope.
		union := map[int]bool{}
		for _, v := range r.Scope {
			union[v] = true
		}
		for _, v := range s.Scope {
			union[v] = true
		}
		var uvars []int
		for v := 0; v < 5; v++ {
			if union[v] {
				uvars = append(uvars, v)
			}
		}
		count := 0
		var rec func(i int, a map[int]int)
		rec = func(i int, a map[int]int) {
			if i == len(uvars) {
				if relAllowsMap(r, a) && relAllowsMap(s, a) {
					count++
				}
				return
			}
			for val := 0; val < 3; val++ {
				a[uvars[i]] = val
				rec(i+1, a)
			}
			delete(a, uvars[i])
		}
		rec(0, map[int]int{})
		if j.Size() != count {
			t.Fatalf("trial %d: join size %d, reference %d", trial, j.Size(), count)
		}
	}
}

func randomScope(rng *rand.Rand, n int) []int {
	k := 1 + rng.Intn(3)
	return rng.Perm(n)[:k]
}

func randomRelation(rng *rand.Rand, scope []int, domainSize int) *Relation {
	seen := map[string]bool{}
	var tuples [][]int
	for i := 0; i < 1+rng.Intn(8); i++ {
		t := make([]int, len(scope))
		for j := range t {
			t[j] = rng.Intn(domainSize)
		}
		k := refKey(&Relation{Scope: scope}, t, scope)
		if !seen[k] {
			seen[k] = true
			tuples = append(tuples, t)
		}
	}
	return NewRelation(scope, tuples)
}

func relAllowsMap(r *Relation, a map[int]int) bool {
	for _, t := range rowsOf(r) {
		ok := true
		for i, v := range r.Scope {
			if t[i] != a[v] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
