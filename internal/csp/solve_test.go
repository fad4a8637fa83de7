package csp_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"hypertree/internal/cq"
	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/order"
)

// The solving tests run from this external package on the query engine's
// flow (cq.SolveCSP, cq.CountCSP): package csp itself runs no semijoin
// sweep.

var opt = cq.EvalOptions{Jobs: 2}

func solve(c *csp.CSP, d *decomp.Decomposition) ([]int, bool, error) {
	return cq.SolveCSP(context.Background(), c, d, opt)
}

func count(c *csp.CSP, d *decomp.Decomposition) (int, error) {
	return cq.CountCSP(context.Background(), c, d, opt)
}

// example5CSP is thesis Example 5 with its concrete relations.
func example5CSP() *csp.CSP {
	// Domains: x1 ∈ {a,b}=0,1 ; x2..x6 ∈ {b,c}=1,2.
	c := &csp.CSP{
		VarNames: []string{"x1", "x2", "x3", "x4", "x5", "x6"},
		Domains:  [][]int{{0, 1}, {1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}},
	}
	// a=0, b=1, c=2.
	c.Constraints = []*csp.Constraint{
		{Name: "C1", Rel: csp.NewRelation([]int{0, 1, 2}, [][]int{{0, 1, 2}, {0, 2, 1}, {1, 1, 2}})},
		{Name: "C2", Rel: csp.NewRelation([]int{0, 4, 5}, [][]int{{0, 1, 2}, {0, 2, 1}})},
		{Name: "C3", Rel: csp.NewRelation([]int{2, 3, 4}, [][]int{{2, 1, 2}, {2, 2, 1}})},
	}
	return c
}

func randomCSP(rng *rand.Rand, nVars, nCons, domainSize, maxArity int) *csp.CSP {
	c := &csp.CSP{VarNames: make([]string, nVars), Domains: make([][]int, nVars)}
	for v := 0; v < nVars; v++ {
		c.VarNames[v] = "v" + string(rune('0'+v))
		dom := make([]int, domainSize)
		for i := range dom {
			dom[i] = i
		}
		c.Domains[v] = dom
	}
	for k := 0; k < nCons; k++ {
		arity := 1 + rng.Intn(maxArity)
		scope := rng.Perm(nVars)[:arity]
		// Random relation keeping each tuple with probability ~0.6.
		var tuples [][]int
		total := 1
		for i := 0; i < arity; i++ {
			total *= domainSize
		}
		for mask := 0; mask < total; mask++ {
			if rng.Float64() < 0.6 {
				t := make([]int, arity)
				m := mask
				for i := range t {
					t[i] = m % domainSize
					m /= domainSize
				}
				tuples = append(tuples, t)
			}
		}
		c.Constraints = append(c.Constraints, &csp.Constraint{
			Name: "c" + string(rune('a'+k)),
			Rel:  csp.NewRelation(scope, tuples),
		})
	}
	return c
}

func TestBuildJoinTreeAcyclic(t *testing.T) {
	// Acyclic: scopes {0,1,2}, {2,3}, {3,4} chain.
	c := &csp.CSP{
		VarNames: []string{"a", "b", "c", "d", "e"},
		Domains:  [][]int{{0}, {0}, {0}, {0}, {0}},
		Constraints: []*csp.Constraint{
			{Name: "r1", Rel: csp.NewRelation([]int{0, 1, 2}, [][]int{{0, 0, 0}})},
			{Name: "r2", Rel: csp.NewRelation([]int{2, 3}, [][]int{{0, 0}})},
			{Name: "r3", Rel: csp.NewRelation([]int{3, 4}, [][]int{{0, 0}})},
		},
	}
	jt, ok := csp.BuildJoinTree(c)
	if !ok {
		t.Fatal("chain CSP must be acyclic")
	}
	if jt.NumNodes() != 3 {
		t.Fatalf("join tree nodes = %d", jt.NumNodes())
	}
	if !csp.IsAcyclic(c) {
		t.Fatal("IsAcyclic disagrees")
	}
}

func TestBuildJoinTreeCyclic(t *testing.T) {
	// Triangle of binary constraints is the canonical cyclic CSP.
	c := &csp.CSP{
		VarNames: []string{"a", "b", "c"},
		Domains:  [][]int{{0, 1}, {0, 1}, {0, 1}},
		Constraints: []*csp.Constraint{
			{Name: "ab", Rel: csp.NewRelation([]int{0, 1}, [][]int{{0, 1}})},
			{Name: "bc", Rel: csp.NewRelation([]int{1, 2}, [][]int{{1, 0}})},
			{Name: "ca", Rel: csp.NewRelation([]int{2, 0}, [][]int{{0, 0}})},
		},
	}
	if csp.IsAcyclic(c) {
		t.Fatal("triangle CSP must be cyclic")
	}
}

// BuildJoinTree is the maximum-weight spanning tree test for acyclicity;
// GYO reduction is another. They must agree on every CSP with a
// constraint, and every tree BuildJoinTree returns must be a width-1 GHD
// with one node per constraint. Without constraints they differ, as they
// always have: there is no join tree, while GYO calls the edgeless
// hypergraph acyclic.
func TestBuildJoinTreeMatchesGYO(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	acyclic := 0
	for trial := 0; trial < 400; trial++ {
		c := randomCSP(rng, 3+rng.Intn(5), 1+rng.Intn(8), 2, 2+rng.Intn(2))
		gyo := c.Hypergraph().IsAcyclic()
		jt, ok := csp.BuildJoinTree(c)
		if ok != gyo {
			t.Fatalf("trial %d: BuildJoinTree ok=%v, GYO acyclic=%v", trial, ok, gyo)
		}
		if !ok {
			continue
		}
		acyclic++
		if err := jt.ValidateGHD(); err != nil || jt.GHWidth() != 1 || jt.NumNodes() != len(c.Constraints) {
			t.Fatalf("trial %d: join tree of width %d with %d nodes (%v)", trial, jt.GHWidth(), jt.NumNodes(), err)
		}
	}
	if acyclic < 40 || acyclic > 360 {
		t.Fatalf("%d of 400 random CSPs acyclic: too one-sided to compare", acyclic)
	}
	empty := randomCSP(rng, 4, 0, 2, 3)
	if jt, ok := csp.BuildJoinTree(empty); ok || jt != nil || !empty.Hypergraph().IsAcyclic() {
		t.Fatalf("zero constraints: BuildJoinTree = %v, %v; GYO = %v", jt, ok, empty.Hypergraph().IsAcyclic())
	}
}

func TestSolveAcyclicMatchesBacktracking(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	acyclicSeen := 0
	for trial := 0; trial < 200 && acyclicSeen < 40; trial++ {
		c := randomCSP(rng, 5, 4, 2, 3)
		jt, ok := csp.BuildJoinTree(c)
		if !ok {
			continue
		}
		acyclicSeen++
		sol, sat, err := solve(c, jt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, wantSat := c.SolveBacktracking()
		if sat != wantSat {
			t.Fatalf("trial %d: acyclic solving sat=%v, backtracking sat=%v", trial, sat, wantSat)
		}
		if sat && !c.Check(sol) {
			t.Fatalf("trial %d: acyclic solution %v invalid", trial, sol)
		}
	}
	if acyclicSeen < 10 {
		t.Fatalf("too few acyclic instances generated: %d", acyclicSeen)
	}
}

// Invariant 7 for tree decompositions: Join Tree Clustering over a TD from
// any elimination ordering agrees with backtracking.
func TestSolveFromTDMatchesBacktracking(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 40; trial++ {
		c := randomCSP(rng, 6, 5, 2, 3)
		h := c.Hypergraph()
		o := order.Random(h.NumVertices(), rng)
		d := order.VertexElimination(h, o)
		sol, sat, err := solve(c, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, wantSat := c.SolveBacktracking()
		if sat != wantSat {
			t.Fatalf("trial %d: TD solving sat=%v, backtracking sat=%v", trial, sat, wantSat)
		}
		if sat && !c.Check(sol) {
			t.Fatalf("trial %d: TD solution %v invalid", trial, sol)
		}
	}
}

// Invariant 7 for GHDs: solving from a complete GHD agrees with
// backtracking.
func TestSolveFromGHDMatchesBacktracking(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 40; trial++ {
		c := randomCSP(rng, 6, 5, 2, 3)
		h := c.Hypergraph()
		o := order.Random(h.NumVertices(), rng)
		d := order.GHD(h, o, rng, true, nil)
		sol, sat, err := solve(c, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, wantSat := c.SolveBacktracking()
		if sat != wantSat {
			t.Fatalf("trial %d: GHD solving sat=%v, backtracking sat=%v", trial, sat, wantSat)
		}
		if sat && !c.Check(sol) {
			t.Fatalf("trial %d: GHD solution %v invalid", trial, sol)
		}
	}
}

// The thesis's Example 5 walkthrough (Fig. 2.8 / 2.9): the CSP is
// satisfiable and both decomposition solvers find a valid solution.
func TestExample5Walkthrough(t *testing.T) {
	c := example5CSP()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	want, ok := c.SolveBacktracking()
	if !ok {
		t.Fatal("Example 5 must be satisfiable")
	}
	if !c.Check(want) {
		t.Fatal("backtracking produced invalid solution")
	}

	h := c.Hypergraph()
	o := order.Random(h.NumVertices(), rand.New(rand.NewSource(1)))

	d := order.VertexElimination(h, o)
	sol, sat, err := solve(c, d)
	if err != nil || !sat || !c.Check(sol) {
		t.Fatalf("TD solving failed: sol=%v sat=%v err=%v", sol, sat, err)
	}

	g := order.GHD(h, o, nil, true, nil)
	sol2, sat2, err2 := solve(c, g)
	if err2 != nil || !sat2 || !c.Check(sol2) {
		t.Fatalf("GHD solving failed: sol=%v sat=%v err=%v", sol2, sat2, err2)
	}
}

func TestAustraliaViaDecomposition(t *testing.T) {
	c := csp.Australia()
	h := c.Hypergraph()
	o := order.Random(h.NumVertices(), rand.New(rand.NewSource(3)))
	d := order.VertexElimination(h, o)
	sol, sat, err := solve(c, d)
	if err != nil || !sat {
		t.Fatalf("map colouring via TD failed: %v %v", sat, err)
	}
	if !c.Check(sol) {
		t.Fatalf("TD colouring %v invalid", sol)
	}
}

func TestSolveFromTDShapeMismatch(t *testing.T) {
	c := csp.Australia()
	other := example5CSP()
	d := order.VertexElimination(other.Hypergraph(), order.Identity(6))
	if _, _, err := solve(c, d); err == nil {
		t.Fatal("mismatched decomposition accepted")
	}
}

func TestUnsatisfiableViaDecompositions(t *testing.T) {
	// x≠y, y≠z, x≠z over 2 values: unsatisfiable triangle.
	neq := [][]int{{0, 1}, {1, 0}}
	c := &csp.CSP{
		VarNames: []string{"x", "y", "z"},
		Domains:  [][]int{{0, 1}, {0, 1}, {0, 1}},
		Constraints: []*csp.Constraint{
			{Name: "xy", Rel: csp.NewRelation([]int{0, 1}, clone2(neq))},
			{Name: "yz", Rel: csp.NewRelation([]int{1, 2}, clone2(neq))},
			{Name: "xz", Rel: csp.NewRelation([]int{0, 2}, clone2(neq))},
		},
	}
	h := c.Hypergraph()
	d := order.VertexElimination(h, order.Identity(3))
	if _, sat, err := solve(c, d); err != nil || sat {
		t.Fatalf("unsat CSP solved via TD: sat=%v err=%v", sat, err)
	}
	g := order.GHD(h, order.Identity(3), nil, true, nil)
	if _, sat, err := solve(c, g); err != nil || sat {
		t.Fatalf("unsat CSP solved via GHD: sat=%v err=%v", sat, err)
	}
}

// Property: solving from decompositions agrees with backtracking on
// satisfiability (quick-checked variant of invariant 7).
func TestQuickDecompositionSolvingAgreesWithBacktracking(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCSP(rng, 5, 4, 2, 3)
		_, want := c.SolveBacktracking()
		h := c.Hypergraph()
		o := make([]int, h.NumVertices())
		for i := range o {
			o[i] = i
		}
		rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
		sol, got, err := solve(c, order.VertexElimination(h, o))
		if err != nil || got != want {
			return false
		}
		if got && !c.Check(sol) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(123))}); err != nil {
		t.Fatal(err)
	}
}

func clone2(t [][]int) [][]int {
	out := make([][]int, len(t))
	for i, r := range t {
		out[i] = append([]int(nil), r...)
	}
	return out
}
