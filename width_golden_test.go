package htd

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertree/internal/exp"
	"hypertree/internal/gen"
)

var updateWidthGolden = flag.Bool("update", false, "rewrite testdata/width.golden from the current engines")

const widthGolden = "testdata/width.golden"

// goldenOpts is the test-sized configuration every golden run uses: a node
// cap for the exact searches and small GA/SAIGA budgets. fhw reads MaxNodes
// as its local-search round budget, so it gets a small one of its own.
func goldenOpts(m Method, seed int64) Options {
	opt := oracleOpts(m, seed)
	opt.MaxNodes = 3000
	opt.GA.PopulationSize, opt.GA.Generations = 12, 6
	opt.SAIGA.IslandPop, opt.SAIGA.Epochs = 8, 2
	if m == MethodFHW {
		opt.MaxNodes = 8
	}
	if m == MethodPortfolio {
		opt.Jobs = 1
	}
	return opt
}

// goldenLine renders one result. A Jobs=1 portfolio's node sum is left
// out: a worker queued behind an exact one may expand a few nodes before
// the cancellation reaches it.
func goldenLine(measure, name string, seed int64, m Method, res Result, witness int) string {
	nodes := fmt.Sprint(res.Nodes)
	if m == MethodPortfolio {
		nodes = "-"
	}
	return fmt.Sprintf("%s %s seed=%d %v width=%d lb=%d exact=%v nodes=%s winner=%s lbby=%s frac=%.4f witness=%d ord=%v",
		measure, name, seed, m, res.Width, res.LowerBound, res.Exact, nodes,
		res.Winner, res.LowerBoundBy, res.FracWidth, witness, res.Ordering)
}

// TestWidthGolden pins every method's result for both measures: width,
// lower bound, exactness, ordering, nodes, winner, bound provenance,
// fractional width and the witness width, over seeded random graphs and
// hypergraphs and the small benchmark catalog, at two seeds. Treewidth runs
// minfill, ga, saiga, bb, astar and the Jobs=1 portfolio; ghw adds fhw and
// balsep. The witness is the tree decomposition's width for treewidth and
// the materialised GHD's width for ghw. Regenerate with
// `go test -run TestWidthGolden -update`.
func TestWidthGolden(t *testing.T) {
	type graphInput struct {
		name string
		g    *Graph
	}
	type hgInput struct {
		name string
		h    *Hypergraph
	}
	var graphs []graphInput
	for i := int64(0); i < 40; i++ {
		n := 6 + int(i%11)
		p := []float64{0.25, 0.35, 0.5}[i%3]
		graphs = append(graphs, graphInput{fmt.Sprintf("er%d_%d", n, i), gen.ErdosRenyi(n, p, 100+i)})
	}
	// The catalog members whose runs fit the test's time budget.
	small := map[string]bool{
		"myciel3": true, "myciel4": true, "queen5_5": true, "miles60*": true, "DSJC30.2*": true,
		"adder_10": true, "bridge_10": true, "clique_10": true, "chain_15": true,
		"grid2d_6": true, "queenhg_4": true, "rand16*": true,
	}
	for _, gi := range exp.Graphs(false) {
		if small[gi.Name] {
			graphs = append(graphs, graphInput{gi.Name, gi.Build()})
		}
	}
	var hgs []hgInput
	for i := int64(0); i < 40; i++ {
		n := 6 + int(i%10)
		m := 4 + int(i%9)
		hgs = append(hgs, hgInput{fmt.Sprintf("rh%d_%d_%d", n, m, i), gen.RandomHypergraph(n, m, 2+int(i%3), 200+i)})
	}
	for _, hi := range exp.Hypergraphs(false) {
		if small[hi.Name] {
			hgs = append(hgs, hgInput{hi.Name, hi.Build()})
		}
	}

	twMethods := []Method{MethodMinFill, MethodGA, MethodSAIGA, MethodBB, MethodAStar, MethodPortfolio}
	ghwMethods := append(append([]Method(nil), twMethods...), MethodFHW, MethodBalSep)
	var got []string
	for _, seed := range []int64{1, 29} {
		for _, in := range graphs {
			for _, m := range twMethods {
				res, err := Treewidth(in.g, goldenOpts(m, seed))
				if err != nil {
					t.Fatalf("tw %s %v: %v", in.name, m, err)
				}
				d, err := DecomposeOrdering(FromGraph(in.g), res.Ordering)
				if err != nil {
					t.Fatalf("tw %s %v: witness: %v", in.name, m, err)
				}
				got = append(got, goldenLine("tw", in.name, seed, m, res, d.Width()))
			}
		}
		for _, in := range hgs {
			for _, m := range ghwMethods {
				d, res, err := ExplainCtx(context.Background(), in.h, goldenOpts(m, seed))
				if err != nil {
					t.Fatalf("ghw %s %v: %v", in.name, m, err)
				}
				got = append(got, goldenLine("ghw", in.name, seed, m, res, d.GHWidth()))
			}
		}
	}

	text := strings.Join(got, "\n") + "\n"
	if *updateWidthGolden {
		if err := os.MkdirAll(filepath.Dir(widthGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(widthGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(widthGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("width drift:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}
