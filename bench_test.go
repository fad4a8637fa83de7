// Benchmarks regenerating every evaluation table of the thesis (one
// Benchmark per table, T5.1–T9.2) plus the ablation benches DESIGN.md §5
// calls out. Run them all with
//
//	go test -bench=. -benchmem
//
// Each table benchmark executes the corresponding experiment runner at the
// laptop-scale configuration and reports the table's first data value as a
// metric so regressions in solution quality are visible alongside timing.
package htd

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"hypertree/internal/astar"
	"hypertree/internal/bb"
	"hypertree/internal/elim"
	"hypertree/internal/exp"
	"hypertree/internal/gen"
	"hypertree/internal/heur"
	"hypertree/internal/order"
	"hypertree/internal/search"
	"hypertree/internal/setcover"
)

// benchTable runs one experiment table per iteration.
func benchTable(b *testing.B, id string) {
	b.Helper()
	cfg := exp.Config{Seed: 1, Runs: 2}
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := exp.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTable5_1(b *testing.B) { benchTable(b, "5.1") }
func BenchmarkTable5_2(b *testing.B) { benchTable(b, "5.2") }
func BenchmarkTable6_1(b *testing.B) { benchTable(b, "6.1") }
func BenchmarkTable6_2(b *testing.B) { benchTable(b, "6.2") }
func BenchmarkTable6_3(b *testing.B) { benchTable(b, "6.3") }
func BenchmarkTable6_4(b *testing.B) { benchTable(b, "6.4") }
func BenchmarkTable6_5(b *testing.B) { benchTable(b, "6.5") }
func BenchmarkTable6_6(b *testing.B) { benchTable(b, "6.6") }
func BenchmarkTable7_1(b *testing.B) { benchTable(b, "7.1") }
func BenchmarkTable7_2(b *testing.B) { benchTable(b, "7.2") }
func BenchmarkTable8_1(b *testing.B) { benchTable(b, "8.1") }
func BenchmarkTable8_2(b *testing.B) { benchTable(b, "8.2") }
func BenchmarkTable9_1(b *testing.B) { benchTable(b, "9.1") }
func BenchmarkTable9_2(b *testing.B) { benchTable(b, "9.2") }
func BenchmarkTableS_1(b *testing.B) { benchTable(b, "S.1") }

// --- Ablation benches (DESIGN.md §5) ---

// ablation instances: one structured, one random.
func ablationGraph() *Graph { return gen.Queen(6) }

func benchTreewidthSearch(b *testing.B, opt search.Options) {
	g := ablationGraph()
	var nodes int64
	for i := 0; i < b.N; i++ {
		res := bb.Search(context.Background(), search.Treewidth(g), opt)
		if !res.Exact || res.Width != 25 {
			b.Fatalf("queen6_6 result wrong: %+v", res)
		}
		nodes = res.Nodes
	}
	b.ReportMetric(float64(nodes), "search-nodes")
}

// BenchmarkAblationPR2 measures Pruning Rule 2 on/off.
func BenchmarkAblationPR2(b *testing.B) {
	b.Run("on", func(b *testing.B) { benchTreewidthSearch(b, search.Options{}) })
	b.Run("off", func(b *testing.B) { benchTreewidthSearch(b, search.Options{DisablePR2: true}) })
}

// BenchmarkAblationReduce measures the simplicial/almost-simplicial
// branching restriction on/off.
func BenchmarkAblationReduce(b *testing.B) {
	b.Run("on", func(b *testing.B) { benchTreewidthSearch(b, search.Options{}) })
	b.Run("off", func(b *testing.B) { benchTreewidthSearch(b, search.Options{DisableReduction: true}) })
}

// BenchmarkAblationDominance measures eliminated-set dominance caching
// on/off.
func BenchmarkAblationDominance(b *testing.B) {
	b.Run("on", func(b *testing.B) { benchTreewidthSearch(b, search.Options{}) })
	b.Run("off", func(b *testing.B) { benchTreewidthSearch(b, search.Options{DisableDominance: true}) })
}

// BenchmarkAblationSetCover compares greedy vs exact set covering inside
// the ghw evaluation of orderings.
func BenchmarkAblationSetCover(b *testing.B) {
	h := gen.Adder(30)
	rng := rand.New(rand.NewSource(1))
	orderings := make([]order.Ordering, 16)
	for i := range orderings {
		orderings[i] = order.Random(h.NumVertices(), rng)
	}
	b.Run("greedy", func(b *testing.B) {
		ev := order.NewGHWEvaluator(h, rand.New(rand.NewSource(2)), false, nil)
		for i := 0; i < b.N; i++ {
			ev.Width(orderings[i%len(orderings)])
		}
	})
	b.Run("exact", func(b *testing.B) {
		ev := order.NewGHWEvaluator(h, nil, true, nil)
		for i := 0; i < b.N; i++ {
			ev.Width(orderings[i%len(orderings)])
		}
	})
}

// BenchmarkAblationLB compares the lower-bound heuristics.
func BenchmarkAblationLB(b *testing.B) {
	g := elim.New(gen.Queen(8))
	b.Run("minor-min-width", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			heur.MinorMinWidth(g, rng)
		}
	})
	b.Run("minor-gammaR", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			heur.MinorGammaR(g, rng)
		}
	})
	b.Run("degeneracy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heur.Degeneracy(g)
		}
	})
}

// BenchmarkAblationEval compares the fast ordering evaluator against
// building the full decomposition.
func BenchmarkAblationEval(b *testing.B) {
	h := gen.Grid2DHypergraph(8, 8)
	rng := rand.New(rand.NewSource(1))
	orderings := make([]order.Ordering, 16)
	for i := range orderings {
		orderings[i] = order.Random(h.NumVertices(), rng)
	}
	b.Run("evaluator", func(b *testing.B) {
		ev := order.NewTWEvaluator(h.PrimalGraph())
		for i := 0; i < b.N; i++ {
			ev.Width(orderings[i%len(orderings)])
		}
	})
	b.Run("full-decomposition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order.VertexElimination(h, orderings[i%len(orderings)]).Width()
		}
	})
}

// --- Core primitive benches ---

func BenchmarkEliminateRestore(b *testing.B) {
	g := elim.New(gen.Queen(8))
	vs := g.RemainingVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Eliminate(vs[i%len(vs)])
		g.Restore()
	}
}

func BenchmarkGreedyCover(b *testing.B) {
	h := gen.Adder(50)
	s := setcover.New(h, rand.New(rand.NewSource(1)))
	target := h.EdgeSet(0).Clone()
	for e := 1; e < 12; e++ {
		target.UnionWith(h.EdgeSet(e))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Greedy(target)
	}
}

func BenchmarkAStarTWQueen6(b *testing.B) {
	g := gen.Queen(6)
	for i := 0; i < b.N; i++ {
		res := astar.Search(context.Background(), search.Treewidth(g), search.Options{})
		if res.Width != 25 {
			b.Fatalf("queen6_6 tw = %d", res.Width)
		}
	}
}

func BenchmarkBBGHWAdder(b *testing.B) {
	for _, bits := range []int{5, 10, 20} {
		b.Run("adder_"+strconv.Itoa(bits), func(b *testing.B) {
			h := gen.Adder(bits)
			for i := 0; i < b.N; i++ {
				res := bb.Search(context.Background(), search.GHW(h), search.Options{})
				if !res.Exact || res.Width != 2 {
					b.Fatalf("ghw(adder_%d) = %+v", bits, res)
				}
			}
		})
	}
}

func BenchmarkDetKDecomp(b *testing.B) {
	for _, inst := range []struct {
		name string
		h    *Hypergraph
		want int
	}{
		{"adder_8", gen.Adder(8), 2},
		{"clique_8", gen.CliqueHypergraph(8), 4},
		{"cycle_12", FromGraph(gen.Cycle(12)), 2},
	} {
		b.Run(inst.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, _, err := HypertreeWidthCtx(context.Background(), inst.h, 0, nil, nil)
				if err != nil || w != inst.want {
					b.Fatalf("hw = %d, want %d", w, inst.want)
				}
			}
		})
	}
}

func BenchmarkFractionalCover(b *testing.B) {
	h := gen.CliqueHypergraph(12)
	target := make([]int, 12)
	for i := range target {
		target[i] = i
	}
	for i := 0; i < b.N; i++ {
		w, _, _ := FractionalCover(h, target)
		if w < 5.9 || w > 6.1 {
			b.Fatalf("ρ*(K12) = %v", w)
		}
	}
}

func BenchmarkCQTriangleJoin(b *testing.B) {
	db := NewDatabase()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		db.Add("e", strconv.Itoa(rng.Intn(40)), strconv.Itoa(rng.Intn(40)))
	}
	q, err := ParseQuery("ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("yannakakis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := AnswerQuery(q, db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCountCSP(b *testing.B) {
	// 3-colouring count of a C12: known 2^12 + 2 · (−1)^12 … chromatic
	// polynomial of a cycle: (k−1)^n + (−1)^n (k−1) = 2^12 + 2.
	c := &CSP{VarNames: make([]string, 12), Domains: make([][]int, 12)}
	var neq [][]int
	for x := 0; x < 3; x++ {
		for y := 0; y < 3; y++ {
			if x != y {
				neq = append(neq, []int{x, y})
			}
		}
	}
	for v := 0; v < 12; v++ {
		c.VarNames[v] = strconv.Itoa(v)
		c.Domains[v] = []int{0, 1, 2}
	}
	for v := 0; v < 12; v++ {
		tuples := make([][]int, len(neq))
		for i, t := range neq {
			tuples[i] = append([]int(nil), t...)
		}
		c.Constraints = append(c.Constraints, &Constraint{
			Name: "e" + strconv.Itoa(v),
			Rel:  NewRelation([]int{v, (v + 1) % 12}, tuples),
		})
	}
	want := 4098
	for i := 0; i < b.N; i++ {
		got, err := CountCSP(c, Options{Method: MethodMinFill})
		if err != nil || got != want {
			b.Fatalf("count = %d (%v), want %d", got, err, want)
		}
	}
}

// BenchmarkPortfolio measures the racing engine against its strongest
// single member under the same wall-clock budget.
func BenchmarkPortfolio(b *testing.B) {
	h := gen.Grid2DHypergraph(10, 10)
	for _, budget := range []time.Duration{50 * time.Millisecond, 200 * time.Millisecond} {
		for _, m := range []Method{MethodBB, MethodPortfolio} {
			b.Run(fmt.Sprintf("%s_%s", m, budget), func(b *testing.B) {
				var width int
				for i := 0; i < b.N; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), budget)
					res, err := GHWCtx(ctx, h, Options{Method: m, Seed: 1})
					cancel()
					if err != nil {
						b.Fatal(err)
					}
					width = res.Width
				}
				b.ReportMetric(float64(width), "width")
			})
		}
	}
}

// BenchmarkPortfolioJobs measures the jobs cap (worker scheduling overhead)
// at a fixed deadline.
func BenchmarkPortfolioJobs(b *testing.B) {
	h := gen.Grid2DHypergraph(8, 8)
	for _, jobs := range []int{1, 2, 0} {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				if _, err := GHWCtx(ctx, h, Options{Method: MethodPortfolio, Seed: 1, Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
				cancel()
			}
		})
	}
}

func BenchmarkGATreewidthScaling(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("grid%d", n), func(b *testing.B) {
			g := gen.Grid2D(n, n)
			cfg := GAConfig{
				PopulationSize: 30, CrossoverRate: 1, MutationRate: 0.3,
				TournamentSize: 3, Generations: 30, Seed: 1,
			}
			opts := Options{Method: MethodGA, GA: &cfg, Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, err := Treewidth(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
