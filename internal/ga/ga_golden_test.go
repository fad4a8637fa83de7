package ga_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertree/internal/exp"
	"hypertree/internal/ga"
	"hypertree/internal/gen"
	"hypertree/internal/search"
)

var updateGAGolden = flag.Bool("update", false, "rewrite testdata/ga.golden from the current engines")

const gaGolden = "testdata/ga.golden"

// goldenGAConfig is the thesis's tuned parameter set at a size that keeps
// every golden run small.
func goldenGAConfig(seed int64) ga.Config {
	c := ga.DefaultConfig()
	c.PopulationSize = 12
	c.Generations = 10
	c.Seed = seed
	return c
}

func goldenSAIGAConfig(seed int64) ga.SAIGAConfig {
	c := ga.DefaultSAIGAConfig()
	c.IslandPop = 10
	c.Epochs = 4
	c.EpochLength = 4
	c.Seed = seed
	return c
}

func gaGoldenLine(name string, m search.Measure, cfg ga.Config) string {
	r := ga.Search(context.Background(), m, cfg)
	return fmt.Sprintf("%s width=%d evals=%d hist=%v ord=%v", name, r.Width, r.Evaluations, r.History, r.Ordering)
}

func saigaGoldenLine(name string, m search.Measure, cfg ga.SAIGAConfig) string {
	r := ga.SAIGA(context.Background(), m, cfg)
	params := make([]string, len(r.FinalParams))
	for i, p := range r.FinalParams {
		params[i] = fmt.Sprintf("%v/%v/%v/%v", p.Pc, p.Pm, p.Crossover, p.Mutation)
	}
	return fmt.Sprintf("%s width=%d evals=%d hist=%v ord=%v params=%v", name, r.Width, r.Evaluations, r.History, r.Ordering, params)
}

// TestGAGolden pins what GA-tw/GA-ghw, SAIGA and the weighted GA produce
// for fixed seeds: each run's width or weight, evaluation count, history
// and ordering, and SAIGA's final parameter vectors. The GA runs cover
// every crossover×mutation pair and the edge values of the control
// parameters (heuristic seeds, crossover rates below 1, tournament and
// population sizes the engine must sanitise); the SAIGA runs cover one to
// four islands, no migration, migration above half an island and no
// epochs. The renders of the GA and SAIGA tables at the quick
// configuration pin the thesis experiments, which print widths only.
// Regenerate with `go test ./internal/ga -run TestGAGolden -update`.
func TestGAGolden(t *testing.T) {
	h := gen.RandomHypergraph(14, 12, 4, 5)
	measures := []struct {
		name string
		m    search.Measure
	}{{"tw", search.Treewidth(h.PrimalGraph())}, {"ghw", search.GHW(h)}}

	var got []string
	for _, seed := range []int64{1, 8} {
		for _, ms := range measures {
			pre := fmt.Sprintf("seed=%d ga %s ", seed, ms.name)
			for _, xo := range ga.AllCrossoverOps {
				for _, mu := range ga.AllMutationOps {
					c := goldenGAConfig(seed)
					c.Crossover, c.Mutation = xo, mu
					got = append(got, gaGoldenLine(fmt.Sprintf("%s%v/%v", pre, xo, mu), ms.m, c))
				}
			}
			for _, k := range []int{0, 1, 2} {
				c := goldenGAConfig(seed)
				c.HeuristicSeeds = k
				got = append(got, gaGoldenLine(fmt.Sprintf("%sseeds=%d", pre, k), ms.m, c))
			}
			for _, pc := range []float64{0, 0.25, 0.5} {
				c := goldenGAConfig(seed)
				c.CrossoverRate = pc
				got = append(got, gaGoldenLine(fmt.Sprintf("%spc=%v", pre, pc), ms.m, c))
			}
			for _, s := range []int{0, 1, 3} {
				c := goldenGAConfig(seed)
				c.TournamentSize = s
				got = append(got, gaGoldenLine(fmt.Sprintf("%stournament=%d", pre, s), ms.m, c))
			}
			for _, n := range []int{0, 1, 3} {
				c := goldenGAConfig(seed)
				c.PopulationSize = n
				got = append(got, gaGoldenLine(fmt.Sprintf("%spop=%d", pre, n), ms.m, c))
			}

			pre = fmt.Sprintf("seed=%d saiga %s ", seed, ms.name)
			for _, k := range []int{1, 2, 3, 4} {
				c := goldenSAIGAConfig(seed)
				c.Islands = k
				got = append(got, saigaGoldenLine(fmt.Sprintf("%sislands=%d", pre, k), ms.m, c))
			}
			for _, k := range []int{0, 2, 99} {
				c := goldenSAIGAConfig(seed)
				c.MigrationSize = k
				got = append(got, saigaGoldenLine(fmt.Sprintf("%smigration=%d", pre, k), ms.m, c))
			}
			for _, k := range []int{0, 1} {
				c := goldenSAIGAConfig(seed)
				c.Epochs = k
				got = append(got, saigaGoldenLine(fmt.Sprintf("%sepochs=%d", pre, k), ms.m, c))
			}
			c := goldenSAIGAConfig(seed)
			c.IslandPop, c.TournamentSize = 1, 0
			got = append(got, saigaGoldenLine(pre+"pop=1 tournament=0", ms.m, c))
		}

		states := make([]int, h.NumVertices())
		for v := range states {
			states[v] = 2 + (v*7+int(seed))%5
		}
		r := ga.WeightedTreewidth(h, states, goldenGAConfig(seed))
		got = append(got, fmt.Sprintf("seed=%d weighted weight=%v evals=%d hist=%v ord=%v",
			seed, r.Weight, r.Evaluations, r.History, r.Ordering))
	}

	for _, id := range []string{"6.1", "6.2", "6.3", "6.4", "6.5", "6.6", "7.1", "7.2"} {
		tbl, err := exp.Run(id, exp.Config{Seed: 1, Runs: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(tbl.Render(), "\n"), "\n") {
			got = append(got, "table "+id+" | "+line)
		}
	}

	text := strings.Join(got, "\n") + "\n"
	if *updateGAGolden {
		if err := os.MkdirAll(filepath.Dir(gaGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gaGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(gaGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("GA drift:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}
