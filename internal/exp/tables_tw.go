package exp

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"hypertree/internal/astar"
	"hypertree/internal/elim"
	"hypertree/internal/ga"
	"hypertree/internal/gen"
	"hypertree/internal/heur"
	"hypertree/internal/search"
)

// Table5_1 reproduces Table 5.1: A*-tw on the DIMACS colouring suite, with
// the initial lower and upper bounds, the value A*-tw returned, whether it
// is exact, and the paper's value for the instance.
func Table5_1(cfg Config) *Table {
	t := &Table{
		ID:     "5.1",
		Title:  "A*-tw on DIMACS graph colouring benchmarks",
		Header: []string{"Graph", "V", "E", "lb", "ub", "A*-tw", "exact", "nodes", "time", "paper"},
		Notes: []string{
			"'paper' is the treewidth Table 5.1 reports ('-' where the thesis also only had bounds)",
			"instances marked * are seeded substitutes (DESIGN.md §3)",
		},
	}
	for _, inst := range graphSuite(cfg.Full) {
		g := inst.Build()
		e := elim.New(g)
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		lb := heur.LowerBound(e, rng)
		_, ub := heur.MinFill(e, rng)
		start := time.Now()
		res := astar.Search(context.Background(), search.Treewidth(g), search.Options{MaxNodes: cfg.twNodes(), Seed: cfg.Seed})
		elapsed := time.Since(start)
		paper := "-"
		if inst.PaperTW >= 0 {
			paper = itoa(inst.PaperTW)
		}
		t.Rows = append(t.Rows, []string{
			inst.Name, itoa(g.NumVertices()), itoa(g.NumEdges()),
			itoa(lb), itoa(ub), itoa(res.Width), fmt.Sprintf("%v", res.Exact),
			itoa(int(res.Nodes)), elapsed.Round(time.Millisecond).String(), paper,
		})
	}
	return t
}

// Table5_2 reproduces Table 5.2: A*-tw on n×n grid graphs, whose treewidth
// is n.
func Table5_2(cfg Config) *Table {
	t := &Table{
		ID:     "5.2",
		Title:  "A*-tw on grid graphs (tw(n×n) = n)",
		Header: []string{"Graph", "V", "E", "lb", "ub", "A*-tw", "exact", "nodes", "paper"},
	}
	maxN := 6
	if cfg.Full {
		maxN = 8
	}
	for n := 2; n <= maxN; n++ {
		g := gen.Grid2D(n, n)
		e := elim.New(g)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		lb := heur.LowerBound(e, rng)
		_, ub := heur.MinFill(e, rng)
		res := astar.Search(context.Background(), search.Treewidth(g), search.Options{MaxNodes: cfg.twNodes(), Seed: cfg.Seed})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("grid%d", n), itoa(g.NumVertices()), itoa(g.NumEdges()),
			itoa(lb), itoa(ub), itoa(res.Width), fmt.Sprintf("%v", res.Exact),
			itoa(int(res.Nodes)), itoa(n),
		})
	}
	return t
}

// gaConfigForTuning returns the scaled GA parameters used by the tuning
// tables, at the thesis's tuned rates pc=1.0, pm=0.3; the thesis ran
// pop 50 × 1000 generations per configuration.
func gaConfigForTuning(cfg Config, seed int64) ga.Config {
	c := ga.Config{
		PopulationSize: 30,
		TournamentSize: 2,
		Generations:    60,
		CrossoverRate:  1.0,
		MutationRate:   0.3,
		Crossover:      ga.POS,
		Mutation:       ga.ISM,
		Seed:           seed,
	}
	if cfg.Full {
		c.PopulationSize = 50
		c.Generations = 1000
	}
	return c
}

// gaRuns executes fn Runs times, on seeds Seed, Seed+100, …, and returns
// the minimum, maximum and average of the widths.
func gaRuns(cfg Config, fn func(seed int64) int) (minV, maxV int, avg float64) {
	sum := 0
	for r := 0; r < cfg.runs(); r++ {
		w := fn(cfg.Seed + int64(100*r))
		if r == 0 || w < minV {
			minV = w
		}
		if r == 0 || w > maxV {
			maxV = w
		}
		sum += w
	}
	return minV, maxV, float64(sum) / float64(cfg.runs())
}

// gaSetting is one row of a GA tuning table: the cells naming it and how
// it changes the tuning config.
type gaSetting struct {
	cells []string
	apply func(*ga.Config)
}

// gaSweep fills t, a table of Tables 6.1–6.5, with GA-tw runs: one row of
// avg/min/max widths per instance of the tuning suite (its first n; 0 =
// all) and setting.
func gaSweep(cfg Config, t *Table, n int, settings []gaSetting) *Table {
	suite := gaTuningSuite(cfg.Full)
	if n > 0 {
		suite = suite[:n]
	}
	for _, inst := range suite {
		m := search.Treewidth(inst.Build())
		for _, s := range settings {
			mn, mx, avg := gaRuns(cfg, func(seed int64) int {
				c := gaConfigForTuning(cfg, seed)
				s.apply(&c)
				return ga.Search(context.Background(), m, c).Width
			})
			row := append([]string{inst.Name}, s.cells...)
			t.Rows = append(t.Rows, append(row, f1(avg), itoa(mn), itoa(mx)))
		}
	}
	return t
}

// Table6_1 reproduces Table 6.1: comparison of the six crossover operators
// (100% crossover, 0% mutation), reporting avg/min/max over the runs.
func Table6_1(cfg Config) *Table {
	var settings []gaSetting
	for _, op := range ga.AllCrossoverOps {
		settings = append(settings, gaSetting{[]string{op.String()}, func(c *ga.Config) { c.Crossover, c.MutationRate = op, 0 }})
	}
	return gaSweep(cfg, &Table{
		ID:     "6.1",
		Title:  "GA-tw crossover operator comparison (pc=1.0, pm=0)",
		Header: []string{"Instance", "Crossover", "avg", "min", "max"},
		Notes:  []string{"thesis finding to reproduce: POS achieves the best average width"},
	}, 0, settings)
}

// Table6_2 reproduces Table 6.2: comparison of the six mutation operators
// (0% crossover, 100% mutation).
func Table6_2(cfg Config) *Table {
	var settings []gaSetting
	for _, op := range ga.AllMutationOps {
		settings = append(settings, gaSetting{[]string{op.String()}, func(c *ga.Config) { c.Mutation, c.CrossoverRate, c.MutationRate = op, 0, 1.0 }})
	}
	return gaSweep(cfg, &Table{
		ID:     "6.2",
		Title:  "GA-tw mutation operator comparison (pc=0, pm=1.0)",
		Header: []string{"Instance", "Mutation", "avg", "min", "max"},
		Notes:  []string{"thesis finding to reproduce: ISM (with EM close) achieves the best average width"},
	}, 0, settings)
}

// Table6_3 reproduces Table 6.3: the crossover-rate × mutation-rate grid.
func Table6_3(cfg Config) *Table {
	var settings []gaSetting
	for _, pc := range []float64{0.8, 0.9, 1.0} {
		for _, pm := range []float64{0.01, 0.1, 0.3} {
			settings = append(settings, gaSetting{[]string{fmt.Sprintf("%.1f", pc), fmt.Sprintf("%.2f", pm)},
				func(c *ga.Config) { c.CrossoverRate, c.MutationRate = pc, pm }})
		}
	}
	return gaSweep(cfg, &Table{
		ID:     "6.3",
		Title:  "GA-tw crossover/mutation rate combinations (POS + ISM)",
		Header: []string{"Instance", "pc", "pm", "avg", "min", "max"},
		Notes:  []string{"thesis finding to reproduce: pc=1.0, pm=0.3 is competitive everywhere"},
	}, 2, settings)
}

// Table6_4 reproduces Table 6.4: population size comparison.
func Table6_4(cfg Config) *Table {
	sizes := []int{10, 20, 50, 100}
	if cfg.Full {
		sizes = []int{100, 200, 1000, 2000}
	}
	var settings []gaSetting
	for _, n := range sizes {
		settings = append(settings, gaSetting{[]string{itoa(n)}, func(c *ga.Config) { c.PopulationSize = n }})
	}
	return gaSweep(cfg, &Table{
		ID:     "6.4",
		Title:  "GA-tw population sizes (POS + ISM, pc=1.0, pm=0.3)",
		Header: []string{"Instance", "n", "avg", "min", "max"},
		Notes:  []string{"thesis finding to reproduce: larger populations win at fixed generations"},
	}, 2, settings)
}

// Table6_5 reproduces Table 6.5: tournament selection group sizes.
func Table6_5(cfg Config) *Table {
	var settings []gaSetting
	for _, s := range []int{2, 3, 4} {
		settings = append(settings, gaSetting{[]string{itoa(s)}, func(c *ga.Config) { c.TournamentSize = s }})
	}
	return gaSweep(cfg, &Table{
		ID:     "6.5",
		Title:  "GA-tw tournament selection group sizes",
		Header: []string{"Instance", "s", "avg", "min", "max"},
		Notes:  []string{"thesis finding to reproduce: s=3 or s=4 edge out s=2"},
	}, 2, settings)
}

// tunedGA runs GA under the parameters Tables 6.6 and 7.1 tuned: the
// tuning rates, s=3 and two min-fill seed orderings.
func tunedGA(cfg Config, m search.Measure, seed int64) int {
	c := gaConfigForTuning(cfg, seed)
	c.TournamentSize, c.HeuristicSeeds = 3, 2
	return ga.Search(context.Background(), m, c).Width
}

// Table6_6 reproduces Table 6.6: final GA-tw results on the DIMACS suite
// with the tuned parameters, against the best previously reported upper
// bound.
func Table6_6(cfg Config) *Table {
	t := &Table{
		ID:     "6.6",
		Title:  "GA-tw final results (tuned parameters) vs best-known upper bounds",
		Header: []string{"Graph", "V", "E", "paper-ub", "min", "max", "avg"},
		Notes: []string{
			"'paper-ub' is the best upper bound the thesis compares against (Table 6.6 'ub')",
			"shape to reproduce: GA-tw matches or improves the bound on most instances",
		},
	}
	for _, inst := range graphSuite(cfg.Full) {
		g := inst.Build()
		m := search.Treewidth(g)
		mn, mx, avg := gaRuns(cfg, func(seed int64) int { return tunedGA(cfg, m, seed) })
		paper := "-"
		if inst.PaperUB >= 0 {
			paper = itoa(inst.PaperUB)
		}
		t.Rows = append(t.Rows, []string{
			inst.Name, itoa(g.NumVertices()), itoa(g.NumEdges()),
			paper, itoa(mn), itoa(mx), f1(avg),
		})
	}
	return t
}
