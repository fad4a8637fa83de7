// Command htdbench regenerates the evaluation tables of the thesis
// (Tables 5.1–9.2), runs the machine-readable benchmark harness with
// -json, and gates two harness reports against each other with -compare.
//
//	htdbench                 # all tables, scaled down
//	htdbench -table 5.1      # one table
//	htdbench -table 7.1 -full -runs 10 -seed 3
//	htdbench -json           # BENCH_portfolio.json: per-(instance, method)
//	                         # width, bounds, wall time, node counts, memory
//	                         # telemetry and the anytime incumbent curve
//	htdbench -json -methods bb,astar,portfolio -timeout 5s -o -   # to stdout
//	htdbench -json -instances '^(myciel3|adder_10)$'              # subset
//	htdbench -json -queries -methods minfill   # BENCH_query.json: the CQ
//	                         # workload catalog through the parallel
//	                         # Yannakakis engine (answer counts gated too)
//	htdbench -hw -timeout 10s  # BENCH_balsep.json: the hypertree-width
//	                         # shoot-out — det-k vs the balanced-separator
//	                         # engine, whose records run at Jobs 1 and 4
//	htdbench -compare BENCH_portfolio.json new.json               # perf gate
//	htdbench -compare -max-wall 2 -max-heap 1.5 base.json new.json
//
// -compare diffs every (instance, kind, method) record of the two reports:
// any width regression (larger width, lost exactness, weaker lower bound,
// or a new error) is always a violation; wall time, heap high-water, and
// the tail-latency quantiles (oracle-probe, level-wait and delta-apply
// p99, -max-p99)
// violate only beyond their -max-* factors over a clamped baseline floor.
// Exit status: 0 when the gate passes, 1 on violations, 2 on usage or I/O
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"time"

	"hypertree"
	"hypertree/internal/bench"
	"hypertree/internal/exp"
)

func main() {
	table := flag.String("table", "", "table id (5.1 … 9.2); empty = all")
	full := flag.Bool("full", false, "paper-scale instances and budgets (slow)")
	seed := flag.Int64("seed", 1, "random seed")
	runs := flag.Int("runs", 0, "repetitions for stochastic algorithms (0 = default)")
	jsonOut := flag.Bool("json", false, "run the JSON bench harness over the instance catalog instead of rendering tables")
	queries := flag.Bool("queries", false, "with -json: run the conjunctive-query workload catalog (BENCH_query.json) instead of the decomposition catalog")
	hw := flag.Bool("hw", false, "run the hypertree-width engine shoot-out (detk vs balsep, recorded as balsep-j1 and balsep-j4; balsep is sequential and ignores Jobs) over the hypergraph catalog (BENCH_balsep.json); implies -json")
	out := flag.String("o", "BENCH_portfolio.json", "output path for -json ('-' = stdout)")
	timeout := flag.Duration("timeout", 2*time.Second, "per-(instance, method) wall-clock budget for -json")
	methods := flag.String("methods", "portfolio", "comma-separated methods for -json: "+htd.MethodNames(false))
	noCoverCache := flag.Bool("nocovercache", false, "disable the shared cover-oracle cache in GHW runs (for measuring cache effectiveness)")
	fracBound := flag.Bool("fracbound", false, "enable the fractional (LP) residual lower bound in exact GHW runs; compare node counts against a baseline without it to measure the extra pruning")
	instances := flag.String("instances", "", "regexp filter on catalog instance names for -json (empty = all)")
	compare := flag.Bool("compare", false, "compare two -json reports: htdbench -compare baseline.json new.json")
	maxWall := flag.Float64("max-wall", 2.0, "-compare: fail when wall time exceeds this factor of the baseline (0 = off)")
	maxHeap := flag.Float64("max-heap", 1.5, "-compare: fail when heap high-water exceeds this factor of the baseline (0 = off)")
	maxNodes := flag.Float64("max-nodes", 0, "-compare: fail when node count exceeds this factor of the baseline (0 = off; portfolio node totals are scheduling-dependent)")
	minWallMs := flag.Float64("min-wall-ms", 250, "-compare: clamp wall baselines up to this floor before the factor applies")
	minHeapMB := flag.Int64("min-heap-mb", 64, "-compare: clamp heap baselines up to this floor (MiB) before the factor applies")
	maxP99 := flag.Float64("max-p99", 5.0, "-compare: fail when the oracle-probe, level-wait or delta-apply p99 exceeds this factor of the baseline (0 = off; skipped when the baseline has no observations)")
	minP99Ms := flag.Float64("min-p99-ms", 2, "-compare: clamp p99 baselines up to this floor (ms) before the factor applies")
	maxLPShare := flag.Float64("max-lp-share", 3.0, "-compare: fail when the LP phase clock's share of wall exceeds this factor of the baseline (0 = off; skipped when the baseline has no LP share)")
	minLPShare := flag.Float64("min-lp-share", 0.05, "-compare: clamp LP-share baselines up to this floor (fraction of wall) before the factor applies")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: htdbench -compare baseline.json new.json")
			os.Exit(2)
		}
		th := bench.Thresholds{
			MaxWallFactor:  *maxWall,
			MaxHeapFactor:  *maxHeap,
			MaxNodesFactor: *maxNodes,
			MinWallMs:      *minWallMs,
			MinHeapBytes:   *minHeapMB << 20,
			MaxP99Factor:   *maxP99,
			MinP99Ms:       *minP99Ms,

			MaxLPShareFactor: *maxLPShare,
			MinLPShare:       *minLPShare,
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), th))
	}

	if *jsonOut || *hw {
		if *queries && *out == "BENCH_portfolio.json" {
			*out = "BENCH_query.json"
		}
		if *hw && *out == "BENCH_portfolio.json" {
			*out = "BENCH_balsep.json"
		}
		if err := runJSON(*full, *seed, *timeout, *methods, *out, *noCoverCache, *fracBound, *instances, *queries, *hw); err != nil {
			fmt.Fprintln(os.Stderr, "htdbench:", err)
			os.Exit(2)
		}
		return
	}

	cfg := exp.Config{Full: *full, Seed: *seed, Runs: *runs}
	ids := exp.AllTableIDs
	if *table != "" {
		ids = []string{*table}
	}
	for _, id := range ids {
		start := time.Now()
		t, err := exp.Run(id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "htdbench:", err)
			os.Exit(2)
		}
		fmt.Print(t.Render())
		fmt.Printf("(generated in %s)\n\n", time.Since(start).Round(time.Millisecond))
	}
}

// runJSON executes the bench harness (decomposition catalog, or the
// query-workload catalog when queries is set) and writes the report.
func runJSON(full bool, seed int64, timeout time.Duration, methodList, out string, noCoverCache, fracBound bool, instances string, queries, hw bool) error {
	var ms []htd.Method
	for _, name := range strings.Split(methodList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, err := htd.ParseMethod(name)
		if err != nil {
			return err
		}
		ms = append(ms, m)
	}
	var filter *regexp.Regexp
	if instances != "" {
		var err error
		if filter, err = regexp.Compile(instances); err != nil {
			return fmt.Errorf("-instances: %w", err)
		}
	}
	cfg := bench.Config{
		Full:              full,
		Seed:              seed,
		Timeout:           timeout,
		Methods:           ms,
		DisableCoverCache: noCoverCache,
		FracBound:         fracBound,
		Instances:         filter,
		Log:               os.Stderr,
	}
	var rep bench.Report
	switch {
	case hw:
		rep = bench.RunHW(cfg)
	case queries:
		rep = bench.RunQueries(cfg)
	default:
		rep = bench.Run(cfg)
	}
	if out == "-" {
		return rep.Write(os.Stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := rep.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d records)\n", out, len(rep.Records))
	return nil
}

// runCompare loads two reports, diffs them under th, renders the summary
// and returns the process exit code (0 pass, 1 violations, 2 I/O error).
func runCompare(basePath, curPath string, th bench.Thresholds) int {
	base, err := loadReport(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "htdbench:", err)
		return 2
	}
	cur, err := loadReport(curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "htdbench:", err)
		return 2
	}
	res := bench.Compare(base, cur, th)
	res.Render(os.Stdout)
	if res.Violations > 0 {
		return 1
	}
	return 0
}

func loadReport(path string) (bench.Report, error) {
	var rep bench.Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
