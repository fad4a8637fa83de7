package exp

import (
	"context"
	"fmt"
	"time"

	"hypertree/internal/astar"
	"hypertree/internal/bb"
	"hypertree/internal/cover"
	"hypertree/internal/frac"
	"hypertree/internal/ga"
	"hypertree/internal/hypergraph"
	"hypertree/internal/search"
	"hypertree/internal/telemetry"
)

// Table7_1 reproduces Table 7.1: GA-ghw upper bounds on the CSP hypergraph
// library suite.
func Table7_1(cfg Config) *Table {
	return ghwRuns(cfg, &Table{
		ID:     "7.1",
		Title:  "GA-ghw on CSP hypergraph benchmarks",
		Header: []string{"Hypergraph", "V", "H", "known/paper", "min", "max", "avg", "fhw ub"},
		Notes: []string{
			"'known/paper' is the exactly known ghw of the construction, or the thesis's best upper bound",
			"shape to reproduce: GA-ghw lands on or within one of the known optimum (the thesis's GA also missed the adder optimum by one)",
			"the initial population is seeded with two min-fill orderings (§4.3) to offset the reduced evaluation budget",
			"'fhw ub' is the fractional relaxation's upper bound (min-fill + local search, exact LPs): fhw ≤ ghw always",
		},
	}, func(m search.Measure, seed int64) int { return tunedGA(cfg, m, seed) },
		func(h *hypergraph.Hypergraph) []string {
			fw, o := frac.MinFillUpperBound(h, cfg.Seed)
			if h.NumVertices() > 1 {
				if fw2, _ := frac.LocalSearch(h, o, 30, cfg.Seed+1); fw2 < fw {
					fw = fw2
				}
			}
			return []string{fmt.Sprintf("%.2f", fw)}
		})
}

// Table7_2 reproduces Table 7.2: the self-adaptive island GA on the same
// suite, without any externally supplied parameters.
func Table7_2(cfg Config) *Table {
	saigaCfg := ga.SAIGAConfig{
		Islands: 3, IslandPop: 20, Epochs: 8, EpochLength: 8,
		TournamentSize: 2, MigrationSize: 2,
	}
	if cfg.Full {
		saigaCfg = ga.DefaultSAIGAConfig()
	}
	return ghwRuns(cfg, &Table{
		ID:     "7.2",
		Title:  "SAIGA-ghw (self-adaptive island GA) on CSP hypergraph benchmarks",
		Header: []string{"Hypergraph", "V", "H", "known/paper", "min", "max", "avg"},
		Notes: []string{
			"no control parameters are supplied: each island adapts (pc, pm, operators) itself",
			"shape to reproduce: results comparable to the hand-tuned GA-ghw of Table 7.1",
		},
	}, func(m search.Measure, seed int64) int {
		c := saigaCfg
		c.Seed = seed
		return ga.SAIGA(context.Background(), m, c).Width
	}, nil)
}

// ghwRuns fills t with one row per instance of the hypergraph suite: its
// size, its known/paper cell, the min/max/avg width of Runs runs of run,
// and the cells extra (nil = none) returns for it.
func ghwRuns(cfg Config, t *Table, run func(m search.Measure, seed int64) int, extra func(*hypergraph.Hypergraph) []string) *Table {
	for _, inst := range hypergraphSuite(cfg.Full) {
		h := inst.Build()
		m := search.GHW(h)
		mn, mx, avg := gaRuns(cfg, func(seed int64) int { return run(m, seed) })
		row := []string{inst.Name, itoa(h.NumVertices()), itoa(h.NumEdges()), inst.ref(), itoa(mn), itoa(mx), f1(avg)}
		if extra != nil {
			row = append(row, extra(h)...)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// searchTable runs an exact ghw search (BB-ghw or A*-ghw) over the suite.
// Each run gets its own cover oracle and Stats so the table can report the
// oracle-probe latency quantiles next to the search outcome (the
// HyperBench-style distribution columns).
func searchTable(cfg Config, id, title string,
	run func(inst HGInstance, opt search.Options) search.Result) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"Hypergraph", "V", "H", "lb", "ub", "exact", "nodes", "time", "probe p50", "p95", "p99", "known/paper"},
		Notes: []string{
			"shape to reproduce: exact ghw on the structured families, bounds on the rest",
			"probe p50/p95/p99 are cover-oracle lookup latency quantiles (log2-bucket estimates)",
		},
	}
	for _, inst := range hypergraphSuite(cfg.Full) {
		h := inst.Build()
		orc := cover.New(h, cover.Options{Timed: true})
		st := new(telemetry.Stats)
		start := time.Now()
		res := run(inst, search.Options{
			MaxNodes: cfg.ghwNodes(), Seed: cfg.Seed, Cover: orc, Stats: st,
		})
		elapsed := time.Since(start)
		probe, _, _ := orc.LatencySnapshots()
		t.Rows = append(t.Rows, []string{
			inst.Name, itoa(h.NumVertices()), itoa(h.NumEdges()),
			itoa(res.LowerBound), itoa(res.Width), fmt.Sprintf("%v", res.Exact),
			itoa(int(res.Nodes)), elapsed.Round(time.Millisecond).String(),
			quantStr(probe, 0.50), quantStr(probe, 0.95), quantStr(probe, 0.99), inst.ref(),
		})
	}
	return t
}

// quantStr renders a latency quantile of a nanosecond histogram, or "-"
// when the run made no observations.
func quantStr(hs telemetry.HistSnapshot, q float64) string {
	if hs.Count == 0 {
		return "-"
	}
	d := time.Duration(hs.Quantile(q))
	switch {
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(100 * time.Nanosecond).String()
	default:
		return d.String()
	}
}

// Table8_1 reproduces Table 8.1: BB-ghw exact results and bounds.
func Table8_1(cfg Config) *Table {
	return searchTable(cfg, "8.1", "BB-ghw on CSP hypergraph benchmarks",
		func(inst HGInstance, opt search.Options) search.Result {
			return bb.Search(context.Background(), search.GHW(inst.Build()), opt)
		})
}

// Table8_2 reproduces Table 8.2: BB-ghw upper bounds against GA-ghw upper
// bounds under the same budget regime.
func Table8_2(cfg Config) *Table {
	t := &Table{
		ID:     "8.2",
		Title:  "BB-ghw vs GA-ghw upper bounds",
		Header: []string{"Hypergraph", "BB-ghw ub", "BB exact", "GA-ghw ub", "known/paper"},
		Notes: []string{
			"shape to reproduce: BB certifies optima on structured instances; the GA matches upper bounds cheaply",
		},
	}
	for _, inst := range hypergraphSuite(cfg.Full) {
		m := search.GHW(inst.Build())
		res := bb.Search(context.Background(), m, search.Options{MaxNodes: cfg.ghwNodes(), Seed: cfg.Seed})
		gaCfg := gaConfigForTuning(cfg, cfg.Seed)
		gaCfg.HeuristicSeeds = 2
		gaRes := ga.Search(context.Background(), m, gaCfg)
		t.Rows = append(t.Rows, []string{
			inst.Name, itoa(res.Width), fmt.Sprintf("%v", res.Exact), itoa(gaRes.Width), inst.ref(),
		})
	}
	return t
}

// Table9_1 reproduces Table 9.1: A*-ghw exact results and anytime lower
// bounds.
func Table9_1(cfg Config) *Table {
	return searchTable(cfg, "9.1", "A*-ghw on CSP hypergraph benchmarks",
		func(inst HGInstance, opt search.Options) search.Result {
			return astar.Search(context.Background(), search.GHW(inst.Build()), opt)
		})
}

// Table9_2 reproduces Table 9.2: A*-ghw against BB-ghw under equal budgets.
func Table9_2(cfg Config) *Table {
	t := &Table{
		ID:     "9.2",
		Title:  "A*-ghw vs BB-ghw under equal node budgets",
		Header: []string{"Hypergraph", "A* width", "A* lb", "A* exact", "BB width", "BB exact", "known/paper"},
		Notes: []string{
			"shape to reproduce: both certify the same optima; A* additionally reports anytime lower bounds",
		},
	}
	for _, inst := range hypergraphSuite(cfg.Full) {
		m := search.GHW(inst.Build())
		a := astar.Search(context.Background(), m, search.Options{MaxNodes: cfg.ghwNodes(), Seed: cfg.Seed})
		b := bb.Search(context.Background(), m, search.Options{MaxNodes: cfg.ghwNodes(), Seed: cfg.Seed})
		t.Rows = append(t.Rows, []string{
			inst.Name, itoa(a.Width), itoa(a.LowerBound), fmt.Sprintf("%v", a.Exact),
			itoa(b.Width), fmt.Sprintf("%v", b.Exact), inst.ref(),
		})
	}
	return t
}
