package search_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertree/internal/astar"
	"hypertree/internal/bb"
	"hypertree/internal/cover"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/search"
	"hypertree/internal/telemetry"
)

var updateKernelGolden = flag.Bool("update", false, "rewrite testdata/kernel.golden from the current engines")

const kernelGolden = "testdata/kernel.golden"

// kernelNodeCap keeps every golden run small; capped runs pin the anytime
// bounds as well as the exact ones.
const kernelNodeCap = 1500

// kernelConfigs are the rule settings each input runs under: all rules on,
// then each rule off in turn. ghw adds the fractional bound.
var kernelConfigs = []struct {
	name string
	set  func(*search.Options)
}{
	{"all", func(*search.Options) {}},
	{"nopr2", func(o *search.Options) { o.DisablePR2 = true }},
	{"noreduction", func(o *search.Options) { o.DisableReduction = true }},
	{"nodominance", func(o *search.Options) { o.DisableDominance = true }},
	{"fracbound", func(o *search.Options) { o.FracBound = true }},
}

// kernelLine runs one engine on one measure and renders the result with
// every counter the node kernel feeds: the prune counters by rule, the
// fractional cascade's evaluations and wins, and the cover oracle's hits
// and misses.
func kernelLine(measure, name, engine, config string, m search.Measure, opt search.Options) string {
	st := new(telemetry.Stats)
	opt.Stats = st
	var orc *cover.Oracle
	if m.H != nil {
		orc = cover.New(m.H, cover.Options{})
		opt.Cover = orc
	}
	var res search.Result
	if engine == "bb" {
		res = bb.Search(context.Background(), m, opt)
	} else {
		res = astar.Search(context.Background(), m, opt)
	}
	s := st.Snapshot()
	var hits, misses int64
	if orc != nil {
		c := orc.Counters()
		hits, misses = c.Hits, c.Misses
	}
	return fmt.Sprintf("%s %s %s %s width=%d lb=%d exact=%v nodes=%d simp=%d pr2=%d cover=%d lbcut=%d dom=%d fraclp=%d fracwins=%d hits=%d misses=%d ord=%v",
		measure, name, engine, config, res.Width, res.LowerBound, res.Exact, res.Nodes,
		s.PruneSimplicial, s.PrunePR2, s.PruneCoverBound, s.PruneLBCutoff, s.PruneDominance,
		s.FracLPEvals, s.FracBoundWins, hits, misses, res.Ordering)
}

// TestKernelGolden pins what BB and A* produce, node for node and prune for
// prune, on treewidth and ghw: seeded random graphs and hypergraphs plus
// the catalog's myciel4, queenhg_4 and rand16*, each under every rule
// setting of kernelConfigs and a node cap. testdata/width.golden pins
// widths, nodes and orderings through the facade but no counter, so it
// cannot see a prune counted twice or not at all. Regenerate with
// `go test ./internal/search -run TestKernelGolden -update`.
func TestKernelGolden(t *testing.T) {
	type input struct {
		name string
		m    search.Measure
	}
	var tw, ghw []input
	for i := int64(0); i < 16; i++ {
		n := 14 + int(i%7)
		p := []float64{0.35, 0.5, 0.65}[i%3]
		tw = append(tw, input{fmt.Sprintf("er%d_%d", n, i), search.Treewidth(gen.ErdosRenyi(n, p, 300+i))})
	}
	for i := int64(0); i < 16; i++ {
		n := 12 + int(i%6)
		m := n + int(i%5)
		ghw = append(ghw, input{fmt.Sprintf("rh%d_%d_%d", n, m, i), search.GHW(gen.RandomHypergraph(n, m, 3+int(i%3), 400+i))})
	}
	myciel4 := gen.Mycielski(4)
	queenhg4 := hypergraph.FromGraph(gen.Queen(4))
	rand16 := gen.RandomHypergraph(16, 14, 4, 2)
	tw = append(tw,
		input{"myciel4", search.Treewidth(myciel4)},
		input{"queenhg_4", search.Treewidth(queenhg4.PrimalGraph())},
		input{"rand16*", search.Treewidth(rand16.PrimalGraph())})
	ghw = append(ghw,
		input{"myciel4", search.GHW(hypergraph.FromGraph(myciel4))},
		input{"queenhg_4", search.GHW(queenhg4)},
		input{"rand16*", search.GHW(rand16)})

	var got []string
	for _, seed := range []int64{1, 7} {
		for _, measure := range []struct {
			name   string
			inputs []input
		}{{"tw", tw}, {"ghw", ghw}} {
			for _, in := range measure.inputs {
				for _, engine := range []string{"bb", "astar"} {
					for _, cfg := range kernelConfigs {
						if cfg.name == "fracbound" && measure.name == "tw" {
							continue
						}
						opt := search.Options{MaxNodes: kernelNodeCap, Seed: seed}
						cfg.set(&opt)
						got = append(got, fmt.Sprintf("seed=%d ", seed)+
							kernelLine(measure.name, in.name, engine, cfg.name, in.m, opt))
					}
				}
			}
		}
	}

	text := strings.Join(got, "\n") + "\n"
	if *updateKernelGolden {
		if err := os.MkdirAll(filepath.Dir(kernelGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(kernelGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("kernel drift:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}
