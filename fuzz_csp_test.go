// FuzzCSPSolve is the differential fuzzer of CSP solving on the query
// engine's flow: a seed drives a deterministic random CSP generator, and
// SolveCSP, CountCSP and SolveCSPFromDecomposition over the CSP's tree
// decomposition, its GHD and, when it is acyclic, its join tree must agree
// with backtracking on satisfiability and with enumeration on the count.
//
//	go test -fuzz=FuzzCSPSolve -fuzztime 30s
//
// Seed corpora live under testdata/fuzz/FuzzCSPSolve/.
package htd

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"hypertree/internal/cq"
	"hypertree/internal/order"
)

// fuzzCSP draws a small CSP from seed: 1–6 variables with domains of 1–3
// values, and 0–6 constraints of arity 1–3 whose relations keep each
// possible tuple with a probability drawn per constraint.
func fuzzCSP(seed int64) *CSP {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(6)
	c := &CSP{VarNames: make([]string, n), Domains: make([][]int, n)}
	for v := range c.Domains {
		c.VarNames[v] = "x" + strconv.Itoa(v)
		for x := rng.Intn(3); x >= 0; x-- {
			c.Domains[v] = append(c.Domains[v], x)
		}
	}
	for k := rng.Intn(7); k > 0; k-- {
		scope := rng.Perm(n)[:1+rng.Intn(min(3, n))]
		keep := 0.3 + 0.6*rng.Float64()
		var tuples [][]int
		var fill func(t []int)
		fill = func(t []int) {
			if len(t) == len(scope) {
				if rng.Float64() < keep {
					tuples = append(tuples, append([]int(nil), t...))
				}
				return
			}
			for _, x := range c.Domains[scope[len(t)]] {
				fill(append(t, x))
			}
		}
		fill(nil)
		c.Constraints = append(c.Constraints, &Constraint{
			Name: "c" + strconv.Itoa(len(c.Constraints)), Rel: NewRelation(scope, tuples),
		})
	}
	return c
}

func FuzzCSPSolve(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := fuzzCSP(seed)
		_, sat := c.SolveBacktracking()
		count := c.CountSolutions()
		check := func(how string, sol []int, ok bool, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, how, err)
			}
			if ok != sat || ok && !c.Check(sol) {
				t.Fatalf("seed %d: %s = %v, %v; backtracking sat=%v", seed, how, sol, ok, sat)
			}
		}
		checkCount := func(how string, n int, err error) {
			t.Helper()
			if err != nil || n != count {
				t.Fatalf("seed %d: %s = %d, %v; enumeration counts %d", seed, how, n, err, count)
			}
		}
		opt := Options{Method: MethodMinFill, Seed: seed}
		sol, ok, err := SolveCSP(c, opt)
		check("SolveCSP", sol, ok, err)
		n, err := CountCSP(c, opt)
		checkCount("CountCSP", n, err)

		h := c.Hypergraph()
		o := Ordering(rand.New(rand.NewSource(seed)).Perm(h.NumVertices()))
		ghd, err := DecomposeOrdering(h, o)
		if err != nil {
			t.Fatal(err)
		}
		type plan struct {
			name string
			d    *Decomposition
		}
		plans := []plan{{"TD", order.VertexElimination(h, o)}, {"GHD", ghd}}
		if jt, ok := BuildJoinTree(c); ok {
			plans = append(plans, plan{"join tree", jt})
		}
		for _, p := range plans {
			sol, ok, err := SolveCSPFromDecomposition(c, p.d)
			check("SolveCSPFromDecomposition over its "+p.name, sol, ok, err)
			n, err := cq.CountCSP(context.Background(), c, p.d, cq.EvalOptions{Jobs: 2})
			checkCount("counting over its "+p.name, n, err)
		}
	})
}
