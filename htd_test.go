package htd

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"hypertree/internal/gen"
)

func parseExample(t *testing.T) *Hypergraph {
	t.Helper()
	h, err := ParseHypergraph(strings.NewReader("C1(x1,x2,x3), C2(x1,x5,x6), C3(x3,x4,x5)."))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestDecomposeAllMethods(t *testing.T) {
	h := parseExample(t)
	for _, m := range []Method{MethodMinFill, MethodGA, MethodSAIGA, MethodBB, MethodAStar} {
		opt := Options{Method: m, Seed: 3}
		if m == MethodGA {
			opt.GA = &GAConfig{PopulationSize: 20, CrossoverRate: 1, MutationRate: 0.3,
				TournamentSize: 2, Generations: 20}
		}
		if m == MethodSAIGA {
			opt.SAIGA = &SAIGAConfig{Islands: 2, IslandPop: 10, Epochs: 3, EpochLength: 3,
				TournamentSize: 2, MigrationSize: 1}
		}
		d, err := Decompose(h, opt)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := d.ValidateGHD(); err != nil {
			t.Fatalf("%v: invalid GHD: %v", m, err)
		}
		if w := d.GHWidth(); w < 2 || w > 3 {
			t.Fatalf("%v: ghw bound %d outside [2,3]", m, w)
		}
	}
}

func TestGHWExactMethodsAgree(t *testing.T) {
	h := parseExample(t)
	bbRes, err := GHW(h, Options{Method: MethodBB})
	if err != nil {
		t.Fatal(err)
	}
	asRes, err := GHW(h, Options{Method: MethodAStar})
	if err != nil {
		t.Fatal(err)
	}
	if !bbRes.Exact || !asRes.Exact || bbRes.Width != asRes.Width {
		t.Fatalf("BB %+v vs A* %+v", bbRes, asRes)
	}
}

func TestTreewidthFacade(t *testing.T) {
	g := gen.Grid2D(4, 4)
	res, err := Treewidth(g, Options{Method: MethodBB})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Width != 4 {
		t.Fatalf("tw(grid4) = %+v", res)
	}
	lb, ub := TreewidthBounds(g, 1)
	if lb > 4 || ub < 4 {
		t.Fatalf("bounds %d..%d exclude 4", lb, ub)
	}
}

// TestTreewidthCollidingNames runs the treewidth methods on a path whose
// vertex 0 is named "v1" beside the unnamed vertex 1, whose display name
// is also "v1": orderings are over the graph's own vertices, whatever
// their names.
func TestTreewidthCollidingNames(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.SetName(0, "v1")
	for _, m := range []Method{MethodGA, MethodSAIGA, MethodPortfolio} {
		res, err := Treewidth(g, oracleOpts(m, 1))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := Ordering(res.Ordering).Validate(3); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Width != 1 {
			t.Errorf("%v: width %d, want 1", m, res.Width)
		}
	}
}

// TestGHWOnlyMethodsUnderTreewidth: fhw and balsep fail under treewidth
// with one message, whether run alone or as a portfolio seat.
func TestGHWOnlyMethodsUnderTreewidth(t *testing.T) {
	g := gen.Grid2D(3, 3)
	for _, m := range []Method{MethodFHW, MethodBalSep} {
		want := fmt.Sprintf("htd: %v is not a treewidth method", m)
		_, alone := Treewidth(g, Options{Method: m})
		_, seat := Treewidth(g, Options{Method: MethodPortfolio, Portfolio: []Method{MethodMinFill, m}})
		for _, err := range []error{alone, seat} {
			if err == nil || err.Error() != want {
				t.Errorf("%v: error %v, want %q", m, err, want)
			}
		}
	}
}

// TestBalSepEdgeless: on vertices without edges no χ-set needs an edge, so
// balsep reports width 0 with the bound at the width, like every other
// method.
func TestBalSepEdgeless(t *testing.T) {
	h := FromEdges(3, nil)
	for _, m := range []Method{MethodMinFill, MethodBB, MethodBalSep} {
		res, err := GHW(h, Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Width != 0 || res.LowerBound > res.Width || (res.Exact && res.LowerBound != res.Width) {
			t.Errorf("%v: width %d, lower bound %d, exact %v", m, res.Width, res.LowerBound, res.Exact)
		}
	}
}

func TestGHWLowerBoundFacade(t *testing.T) {
	h := gen.CliqueHypergraph(8)
	if lb := GHWLowerBound(h, 1); lb < 2 || lb > 4 {
		t.Fatalf("ghw lb of K8 = %d, want in [2,4]", lb)
	}
}

func TestDecomposeOrderingFacade(t *testing.T) {
	h := parseExample(t)
	o := Ordering{0, 1, 2, 3, 4, 5}
	d, err := DecomposeOrdering(h, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecomposeOrdering(h, Ordering{0, 0, 1, 2, 3, 4}); err == nil {
		t.Fatal("invalid ordering accepted")
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for i, d := range methods {
		m := Method(i)
		got, err := ParseMethod(d.name)
		if err != nil || got != m || m.String() != d.name {
			t.Fatalf("round trip %q: %v %v", d.name, got, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Fatal("bogus method accepted")
	}
}

func TestSolveCSPFacade(t *testing.T) {
	// Small colouring CSP: triangle with 3 colours.
	c := &CSP{
		VarNames: []string{"a", "b", "c"},
		Domains:  [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}},
	}
	var neq [][]int
	for x := 0; x < 3; x++ {
		for y := 0; y < 3; y++ {
			if x != y {
				neq = append(neq, []int{x, y})
			}
		}
	}
	for _, p := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		tuples := make([][]int, len(neq))
		for i, t := range neq {
			tuples[i] = append([]int(nil), t...)
		}
		c.Constraints = append(c.Constraints, &Constraint{
			Name: "neq",
			Rel:  NewRelation([]int{p[0], p[1]}, tuples),
		})
	}
	sol, ok, err := SolveCSP(c, Options{Method: MethodBB})
	if err != nil || !ok {
		t.Fatalf("triangle colouring failed: %v %v", ok, err)
	}
	if !c.Check(sol) {
		t.Fatalf("solution %v invalid", sol)
	}
}

func TestHypertreeWidthFacade(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		h    *Hypergraph
		hw   int
	}{
		{"K6", gen.CliqueHypergraph(6), 3},
		// An edgeless hypergraph has hw 0, as GHW says, with one node.
		{"edgeless_0", FromEdges(0, nil), 0},
		{"edgeless_3", FromEdges(3, nil), 0},
	} {
		w, d, err := HypertreeWidthCtx(ctx, c.h, 0, nil, nil)
		if err != nil || w != c.hw || d == nil {
			t.Fatalf("%s: hw %d, witness %v, err %v; want %d with a witness", c.name, w, d != nil, err, c.hw)
		}
		if err := d.ValidateGHD(); err != nil {
			t.Fatal(err)
		}
		if d.GHWidth() != c.hw {
			t.Fatalf("%s: witness width %d", c.name, d.GHWidth())
		}
	}
	// maxK = 2 decides hw ≤ 2.
	if w, d, err := HypertreeWidthCtx(ctx, gen.CliqueHypergraph(6), 2, nil, nil); err != nil || w != -1 || d != nil {
		t.Fatal("hw ≤ 2 claimed for K6")
	}
}

func TestFractionalFacade(t *testing.T) {
	h := gen.CliqueHypergraph(5)
	w, weights, err := FractionalCover(h, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if w < 2.49 || w > 2.51 {
		t.Fatalf("ρ*(K5) = %v, want 2.5", w)
	}
	if len(weights) == 0 {
		t.Fatal("no cover weights returned")
	}
	ub, o := FHWUpperBound(h, 1)
	if ub < 2.49 || ub > 3.01 {
		t.Fatalf("fhw ub = %v", ub)
	}
	if got := FractionalWidth(h, o); got > ub+1e-9 {
		t.Fatalf("ordering width %v > reported %v", got, ub)
	}
}

func TestAcyclicityFacade(t *testing.T) {
	if !IsAcyclicHypergraph(gen.Chain(4, 3, 1)) {
		t.Fatal("chain must be acyclic")
	}
	if IsAcyclicHypergraph(parseExample(t)) {
		t.Fatal("example 5 must be cyclic")
	}
}

func TestWeightedFacade(t *testing.T) {
	h := FromEdges(3, [][]int{{0, 1}, {1, 2}})
	w := WeightedWidth(h, []int{2, 2, 2}, Ordering{0, 1, 2})
	if w < 3.3 || w > 3.4 { // log2(10) ≈ 3.3219
		t.Fatalf("weighted width = %v, want ≈3.32", w)
	}
	res := WeightedTriangulation(h, []int{2, 2, 2}, GAConfig{
		PopulationSize: 10, CrossoverRate: 1, MutationRate: 0.3,
		TournamentSize: 2, Generations: 10,
	})
	if res.Weight > w+1e-9 {
		t.Fatalf("GA weight %v worse than a fixed ordering %v", res.Weight, w)
	}
}

func TestBalancedFacade(t *testing.T) {
	h := gen.Adder(10)
	res, err := GHW(h, Options{Method: MethodBalSep})
	if err != nil || !res.Exact || res.Width != 2 {
		t.Fatalf("balsep on adder_10: %+v (%v), want exact width 2", res, err)
	}
	d, err := Decompose(h, Options{Method: MethodBalSep})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
	if d.GHWidth() > 2 {
		t.Fatalf("width %d > 2", d.GHWidth())
	}
}

func TestQueryFacade(t *testing.T) {
	db := NewDatabase()
	db.Add("r", "1", "2")
	db.Add("r", "2", "3")
	q, err := ParseQuery("ans(X, Z) :- r(X, Y), r(Y, Z).")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AnswerQuery(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "1" || rows[0][1] != "3" {
		t.Fatalf("answers = %v", rows)
	}
	ok, err := BooleanQuery(q, db)
	if err != nil || !ok {
		t.Fatalf("boolean: %v %v", ok, err)
	}
}

func TestCountCSPFacade(t *testing.T) {
	// Path x≠y≠z over 2 values: 2 solutions for the path.
	neq := [][]int{{0, 1}, {1, 0}}
	cl := func() [][]int {
		out := make([][]int, len(neq))
		for i, t := range neq {
			out[i] = append([]int(nil), t...)
		}
		return out
	}
	c := &CSP{
		VarNames: []string{"x", "y", "z"},
		Domains:  [][]int{{0, 1}, {0, 1}, {0, 1}},
		Constraints: []*Constraint{
			{Name: "xy", Rel: NewRelation([]int{0, 1}, cl())},
			{Name: "yz", Rel: NewRelation([]int{1, 2}, cl())},
		},
	}
	got, err := CountCSP(c, Options{Method: MethodBB})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("CountCSP = %d, want 2", got)
	}
}

// Default-config paths: Options without GA/SAIGA overrides must work.
func TestDefaultMethodConfigs(t *testing.T) {
	h := parseExample(t)
	for _, m := range []Method{MethodGA, MethodSAIGA} {
		res, err := GHW(h, Options{Method: m, Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Width < 2 || res.Width > 3 {
			t.Fatalf("%v default config width = %d", m, res.Width)
		}
		tw, err := Treewidth(h.PrimalGraph(), Options{Method: m, Seed: 2})
		if err != nil {
			t.Fatalf("%v tw: %v", m, err)
		}
		if tw.Width < 2 {
			t.Fatalf("%v tw = %d below exact 2", m, tw.Width)
		}
	}
	// Min-fill treewidth path.
	res, err := Treewidth(h.PrimalGraph(), Options{Method: MethodMinFill})
	if err != nil || res.Width < 2 {
		t.Fatalf("minfill tw: %+v %v", res, err)
	}
}

func TestSolveCSPRejectsInvalid(t *testing.T) {
	bad := &CSP{VarNames: []string{"x"}, Domains: [][]int{{}}}
	if _, _, err := SolveCSP(bad, Options{}); err == nil {
		t.Fatal("invalid CSP accepted")
	}
	if _, err := CountCSP(bad, Options{}); err == nil {
		t.Fatal("invalid CSP accepted by CountCSP")
	}
}

func TestEmptyInputs(t *testing.T) {
	if res, err := Treewidth(NewGraph(0), Options{Method: MethodBB}); err != nil || !res.Exact {
		t.Fatalf("empty graph: %+v %v", res, err)
	}
	b := NewBuilder()
	b.AddEdge("e", "x")
	h := b.Build()
	if _, err := Decompose(h, Options{Method: MethodBB}); err != nil {
		t.Fatalf("single-vertex hypergraph: %v", err)
	}
}
