package cq_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/cq"
	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/elim"
	"hypertree/internal/heur"
	"hypertree/internal/order"
	"hypertree/internal/telemetry"
)

const cspGolden = "testdata/csp.golden"

// goldenCSP is one named input of the CSP golden.
type goldenCSP struct {
	name string
	c    *csp.CSP
}

// neqRel is the 3-colouring edge relation over the given scope.
func neqRel(colors int, scope ...int) *csp.Relation {
	var tuples [][]int
	for a := 0; a < colors; a++ {
		for b := 0; b < colors; b++ {
			if a != b {
				tuples = append(tuples, []int{a, b})
			}
		}
	}
	return csp.NewRelation(scope, tuples)
}

// uniformDomains returns n variables named x0.. over {0..size-1}.
func uniformDomains(n, size int) *csp.CSP {
	c := &csp.CSP{VarNames: make([]string, n), Domains: make([][]int, n)}
	for v := range c.Domains {
		c.VarNames[v] = fmt.Sprintf("x%d", v)
		for x := 0; x < size; x++ {
			c.Domains[v] = append(c.Domains[v], x)
		}
	}
	return c
}

// example5 is thesis Example 5 with its concrete relations (a=0, b=1, c=2).
func example5() *csp.CSP {
	return &csp.CSP{
		VarNames: []string{"x1", "x2", "x3", "x4", "x5", "x6"},
		Domains:  [][]int{{0, 1}, {1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 2}},
		Constraints: []*csp.Constraint{
			{Name: "C1", Rel: csp.NewRelation([]int{0, 1, 2}, [][]int{{0, 1, 2}, {0, 2, 1}, {1, 1, 2}})},
			{Name: "C2", Rel: csp.NewRelation([]int{0, 4, 5}, [][]int{{0, 1, 2}, {0, 2, 1}})},
			{Name: "C3", Rel: csp.NewRelation([]int{2, 3, 4}, [][]int{{2, 1, 2}, {2, 2, 1}})},
		},
	}
}

// australia is the map-colouring CSP of thesis Example 1, built as
// examples/mapcoloring builds it.
func australia() *csp.CSP {
	regions := []string{"WA", "NT", "Q", "SA", "NSW", "V", "TAS"}
	idx := map[string]int{}
	for i, r := range regions {
		idx[r] = i
	}
	c := uniformDomains(len(regions), 3)
	c.VarNames = regions
	for i, b := range [][2]string{
		{"NT", "WA"}, {"SA", "WA"}, {"NT", "Q"}, {"NT", "SA"},
		{"Q", "SA"}, {"NSW", "Q"}, {"NSW", "V"}, {"NSW", "SA"}, {"SA", "V"},
	} {
		c.Constraints = append(c.Constraints, &csp.Constraint{
			Name: fmt.Sprintf("C%d", i+1), Rel: neqRel(3, idx[b[0]], idx[b[1]]),
		})
	}
	return c
}

// cnf builds one constraint per clause whose relation lists the clause's
// satisfying assignments, as examples/satsolver builds it. A literal k
// means variable k, −k its negation; variables are 1-based.
func cnf(numVars int, clauses ...[]int) *csp.CSP {
	c := uniformDomains(numVars, 2)
	for ci, cl := range clauses {
		scope := make([]int, len(cl))
		for i, lit := range cl {
			scope[i] = max(lit, -lit) - 1
		}
		var tuples [][]int
		for mask := 0; mask < 1<<len(cl); mask++ {
			t := make([]int, len(cl))
			sat := false
			for i, lit := range cl {
				t[i] = (mask >> i) & 1
				sat = sat || (lit > 0) == (t[i] == 1)
			}
			if sat {
				tuples = append(tuples, t)
			}
		}
		c.Constraints = append(c.Constraints, &csp.Constraint{
			Name: fmt.Sprintf("clause%d", ci+1), Rel: csp.NewRelation(scope, tuples),
		})
	}
	return c
}

// randomGoldenCSP draws a small CSP: 2–7 variables, 0–5 constraints of
// arity 1–3 over domains of 1–3 values, each relation keeping every
// possible tuple with probability 0.6.
func randomGoldenCSP(rng *rand.Rand) *csp.CSP {
	n := 2 + rng.Intn(6)
	size := 1 + rng.Intn(3)
	maxArity := 1 + rng.Intn(min(3, n))
	c := uniformDomains(n, size)
	for k := rng.Intn(6); k > 0; k-- {
		scope := rng.Perm(n)[:1+rng.Intn(maxArity)]
		total := 1
		for range scope {
			total *= size
		}
		var tuples [][]int
		for mask := 0; mask < total; mask++ {
			if rng.Float64() < 0.6 {
				t := make([]int, len(scope))
				for i, m := 0, mask; i < len(t); i, m = i+1, m/size {
					t[i] = m % size
				}
				tuples = append(tuples, t)
			}
		}
		c.Constraints = append(c.Constraints, &csp.Constraint{
			Name: fmt.Sprintf("c%d", len(c.Constraints)), Rel: csp.NewRelation(scope, tuples),
		})
	}
	return c
}

// goldenInputs lists the golden's CSPs: thesis Example 5, the map of
// Australia (also the mapcoloring example's problem), the facade tests'
// triangle and path, the satsolver example's formula and its
// unsatisfiable core, and 240 seeded random CSPs.
func goldenInputs() []goldenCSP {
	triangle := uniformDomains(3, 3)
	for _, p := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		triangle.Constraints = append(triangle.Constraints, &csp.Constraint{Name: "neq", Rel: neqRel(3, p[0], p[1])})
	}
	path := uniformDomains(3, 2)
	path.Constraints = []*csp.Constraint{
		{Name: "xy", Rel: neqRel(2, 0, 1)},
		{Name: "yz", Rel: neqRel(2, 1, 2)},
	}
	in := []goldenCSP{
		{"example5", example5()},
		{"australia", australia()},
		{"facade_triangle", triangle},
		{"facade_path", path},
		{"satsolver", cnf(8, []int{-1, 2, 3}, []int{1, -4}, []int{-3, -5},
			[]int{4, 5, -6}, []int{6, -7}, []int{7, -2, 8}, []int{-8, 1})},
		{"satsolver_unsat", cnf(1, []int{1}, []int{-1})},
	}
	for seed := int64(1); seed <= 240; seed++ {
		in = append(in, goldenCSP{fmt.Sprintf("random%d", seed), randomGoldenCSP(rand.New(rand.NewSource(seed)))})
	}
	return in
}

// goldenPlans returns fresh builders of the min-fill GHD and the
// vertex-elimination TD of c's constraint hypergraph, both from the
// min-fill ordering at seed 1. Solving completes a GHD in place, so every
// call gets a new decomposition.
func goldenPlans(c *csp.CSP) (ghd, td func() *decomp.Decomposition) {
	h := c.Hypergraph()
	o, _ := heur.MinFill(elim.New(h.PrimalGraph()), rand.New(rand.NewSource(1)))
	return func() *decomp.Decomposition { return order.GHD(h, o, nil, true, nil) },
		func() *decomp.Decomposition { return order.VertexElimination(h, o) }
}

func solvedLine(name, shape string, sol []int, sat bool, count int, err error) string {
	if err != nil {
		return fmt.Sprintf("%s %s err=%v", name, shape, err)
	}
	return fmt.Sprintf("%s %s sat=%v sol=%v count=%d", name, shape, sat, sol, count)
}

// TestCSPGolden pins satisfiability, the solution and the solution count
// of every golden CSP over its min-fill GHD, its vertex-elimination TD
// and, when it is acyclic, its join tree, against testdata/csp.golden.
// Jobs 1 and 3 must both reproduce it. The golden was written by the
// solvers the flow replaced (Fig. 2.9 over GHDs, join-tree clustering over
// TDs, Acyclic Solving over join trees). Regenerate with
// `go test ./internal/cq -run TestCSPGolden -update`.
func TestCSPGolden(t *testing.T) {
	ctx := context.Background()
	var got []string
	for _, jobs := range []int{1, 3} {
		opt := cq.EvalOptions{Jobs: jobs}
		var lines []string
		for _, g := range goldenInputs() {
			c := g.c
			ghd, td := goldenPlans(c)
			for _, p := range []struct {
				shape string
				plan  func() *decomp.Decomposition
			}{{"ghd", ghd}, {"td", td}} {
				sol, sat, err := cq.SolveCSP(ctx, c, p.plan(), opt)
				n, cerr := cq.CountCSP(ctx, c, p.plan(), opt)
				if err == nil {
					err = cerr
				}
				lines = append(lines, solvedLine(g.name, p.shape, sol, sat, n, err))
			}
			jt, ok := csp.BuildJoinTree(c)
			if !ok {
				lines = append(lines, g.name+" jointree cyclic")
				continue
			}
			sol, sat, err := cq.SolveCSP(ctx, c, jt, opt)
			if err != nil {
				t.Fatalf("%s jointree: %v", g.name, err)
			}
			lines = append(lines, fmt.Sprintf("%s jointree sat=%v sol=%v", g.name, sat, sol))
		}
		if got == nil {
			got = lines
		} else if !slices.Equal(got, lines) {
			t.Fatal("jobs=3 differs from jobs=1")
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(cspGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cspGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(cspGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != text {
		wantLines := strings.Split(string(want), "\n")
		for i, line := range got {
			if i >= len(wantLines) || line != wantLines[i] {
				t.Fatalf("line %d drifted:\n got %s\nwant %s", i+1, line, wantLines[min(i, len(wantLines)-1)])
			}
		}
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines)-1, len(got))
	}
}

// A valid GHD is solved by joining its λ constraints even when its first
// node has no λ: d is read as a tree decomposition only when it is no GHD.
// Here the bag {x0, x1, x2} costs no join on the GHD, while reading the
// same tree as a TD enumerates it through its domain atoms. Both readings
// find the same solution.
func TestSolveCSPDispatchesOnGHDValidity(t *testing.T) {
	c := uniformDomains(4, 3)
	c.Constraints = []*csp.Constraint{
		{Name: "c", Rel: csp.NewRelation([]int{0, 1, 2}, [][]int{{0, 1, 2}, {2, 1, 0}})},
	}
	plan := func(lambda []int) *decomp.Decomposition {
		d := decomp.New(c.Hypergraph())
		root := d.AddNode(bitset.FromSlice([]int{3}), nil) // x3 is in no constraint
		d.AddNode(bitset.FromSlice([]int{0, 1, 2}), root).Lambda = lambda
		return d
	}
	ghd := plan([]int{0})
	if ghd.Nodes()[0].Lambda != nil || ghd.ValidateGHD() != nil {
		t.Fatal("fixture must be a valid GHD whose first node has no λ")
	}
	var sols [][]int
	var joins []int64
	for _, d := range []*decomp.Decomposition{ghd, plan(nil)} {
		st := new(telemetry.Stats)
		sol, ok, err := cq.SolveCSP(context.Background(), c, d, cq.EvalOptions{Jobs: 1, Stats: st})
		if err != nil || !ok || !c.Check(sol) {
			t.Fatalf("SolveCSP = %v, %v, %v", sol, ok, err)
		}
		sols = append(sols, sol)
		joins = append(joins, st.Snapshot().CQJoinTuples)
	}
	if joins[0] != 0 || joins[1] == 0 {
		t.Fatalf("join tuples: GHD %d (want 0), TD %d (want > 0)", joins[0], joins[1])
	}
	if !slices.Equal(sols[0], sols[1]) {
		t.Fatalf("GHD solution %v, TD solution %v", sols[0], sols[1])
	}
}

// The CSP entry points end in an error and no result on a decomposition
// of another CSP, on a count past math.MaxInt — whether the overflow
// happens in the counting pass or in the unconstrained variables' factor —
// and on a cancelled context.
func TestCSPErrors(t *testing.T) {
	ctx := context.Background()
	opt := cq.EvalOptions{Jobs: 2}
	foreign := order.VertexElimination(example5().Hypergraph(), order.Identity(6))
	if sol, ok, err := cq.SolveCSP(ctx, australia(), foreign, opt); err == nil || ok || sol != nil {
		t.Fatalf("SolveCSP over another CSP's TD = %v, %v, %v", sol, ok, err)
	}
	if n, err := cq.CountCSP(ctx, australia(), foreign, opt); err == nil || n != 0 {
		t.Fatalf("CountCSP over another CSP's TD = %d, %v", n, err)
	}

	// 64 binary variables have 2^64 assignments: along a chain of
	// constraints that allow every pair, and with one unary constraint.
	chain, free := uniformDomains(64, 2), uniformDomains(64, 2)
	for v := 0; v+1 < 64; v++ {
		chain.Constraints = append(chain.Constraints, &csp.Constraint{
			Name: fmt.Sprintf("any%d", v),
			Rel:  csp.NewRelation([]int{v, v + 1}, [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}),
		})
	}
	free.Constraints = []*csp.Constraint{{Name: "u", Rel: csp.NewRelation([]int{0}, [][]int{{0}, {1}})}}
	for name, c := range map[string]*csp.CSP{"chain": chain, "free": free} {
		ghd, td := goldenPlans(c)
		for _, d := range []*decomp.Decomposition{ghd(), td()} {
			if n, err := cq.CountCSP(ctx, c, d, opt); err == nil || n != 0 {
				t.Fatalf("%s: CountCSP = %d, %v; want an overflow error", name, n, err)
			}
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	ghd, _ := goldenPlans(australia())
	if sol, ok, err := cq.SolveCSP(cancelled, australia(), ghd(), opt); err != context.Canceled || ok || sol != nil {
		t.Fatalf("cancelled SolveCSP = %v, %v, %v", sol, ok, err)
	}
	if n, err := cq.CountCSP(cancelled, australia(), ghd(), opt); err != context.Canceled || n != 0 {
		t.Fatalf("cancelled CountCSP = %d, %v", n, err)
	}
}
