package htd_test

import (
	"context"
	"fmt"
	"strings"
	"time"

	htd "hypertree"
)

// ExampleDecomposeCtx bounds a decomposition by a wall-clock deadline: the
// best incumbent found within the budget is returned, already validated.
// MethodPortfolio races min-fill, branch & bound and A* concurrently, and
// starts the genetic algorithm and balsep only if those have not proven
// the optimum within a short grace; the proving worker cancels the rest.
func ExampleDecomposeCtx() {
	h, _ := htd.ParseHypergraph(strings.NewReader("a(x,y), b(y,z), c(z,x)."))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	d, err := htd.DecomposeCtx(ctx, h, htd.Options{Method: htd.MethodPortfolio})
	if err != nil {
		fmt.Println("no incumbent before the deadline:", err)
		return
	}
	fmt.Println("ghw:", d.GHWidth(), "valid:", d.ValidateGHD() == nil)
	// Output: ghw: 2 valid: true
}

// ExampleDecompose builds a small cyclic hypergraph and computes a
// width-optimal generalized hypertree decomposition.
func ExampleDecompose() {
	h, _ := htd.ParseHypergraph(strings.NewReader("a(x,y), b(y,z), c(z,x)."))
	d, _ := htd.Decompose(h, htd.Options{Method: htd.MethodBB})
	fmt.Println("ghw:", d.GHWidth())
	// Output: ghw: 2
}

// ExampleObserver attaches telemetry to a search: an Observer streams
// phase transitions and anytime incumbent improvements as they happen,
// and a Stats sink accumulates counters plus the incumbent trace.
// Attaching either never changes the computed result for a fixed Seed.
func ExampleObserver() {
	h, _ := htd.ParseHypergraph(strings.NewReader("a(x,y), b(y,z), c(z,x), d(z,w)."))
	st := new(htd.Stats)
	obs := &htd.Observer{
		OnPhase:     func(p htd.Phase) { fmt.Printf("phase: %s %s\n", p.Method, p.Name) },
		OnIncumbent: func(inc htd.Incumbent) { fmt.Printf("incumbent: width %d by %s\n", inc.Width, inc.Method) },
	}
	res, _ := htd.GHW(h, htd.Options{Method: htd.MethodBB, Seed: 1, Stats: st, Observer: obs})
	fmt.Printf("width %d, exact %v, trace points %d\n", res.Width, res.Exact, len(st.Trace()))
	// Output:
	// phase: bb start
	// incumbent: width 2 by bb
	// phase: bb done
	// width 2, exact true, trace points 1
}

// ExampleGHW shows exact width computation with a proof of optimality.
func ExampleGHW() {
	h, _ := htd.ParseHypergraph(strings.NewReader("a(x,y), b(y,z), c(z,x)."))
	res, _ := htd.GHW(h, htd.Options{Method: htd.MethodAStar})
	fmt.Println(res.Width, res.Exact)
	// Output: 2 true
}

// ExampleHypertreeWidthCtx computes exact hypertree width with
// det-k-decomp.
func ExampleHypertreeWidthCtx() {
	h, _ := htd.ParseHypergraph(strings.NewReader(
		"e1(a,b), e2(b,c), e3(c,d), e4(d,a)."))
	w, _, _ := htd.HypertreeWidthCtx(context.Background(), h, 0, nil, nil)
	fmt.Println("hw of a 4-cycle:", w)
	// Output: hw of a 4-cycle: 2
}

// ExampleIsAcyclicHypergraph demonstrates GYO-based α-acyclicity testing.
func ExampleIsAcyclicHypergraph() {
	cyclic, _ := htd.ParseHypergraph(strings.NewReader("a(x,y), b(y,z), c(z,x)."))
	acyclic, _ := htd.ParseHypergraph(strings.NewReader("a(x,y,z), b(z,w)."))
	fmt.Println(htd.IsAcyclicHypergraph(cyclic), htd.IsAcyclicHypergraph(acyclic))
	// Output: false true
}

// ExampleAnswerQuery answers a conjunctive query through a decomposition.
func ExampleAnswerQuery() {
	db := htd.NewDatabase()
	db.Add("parent", "ann", "bob")
	db.Add("parent", "bob", "cat")
	q, _ := htd.ParseQuery("ans(X, Z) :- parent(X, Y), parent(Y, Z).")
	rows, _ := htd.AnswerQuery(q, db)
	fmt.Println(rows)
	// Output: [[ann cat]]
}

// ExampleFractionalCover shows the fractional relaxation beating the
// integral cover: a triangle needs 2 whole edges but only weight 1.5
// fractionally.
func ExampleFractionalCover() {
	h, _ := htd.ParseHypergraph(strings.NewReader("a(x,y), b(y,z), c(z,x)."))
	w, _, _ := htd.FractionalCover(h, []int{0, 1, 2})
	fmt.Printf("%.1f\n", w)
	// Output: 1.5
}

// ExampleTreewidth computes the exact treewidth of a graph.
func ExampleTreewidth() {
	g := htd.NewGraph(4) // C4
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	res, _ := htd.Treewidth(g, htd.Options{Method: htd.MethodBB})
	fmt.Println(res.Width, res.Exact)
	// Output: 2 true
}
