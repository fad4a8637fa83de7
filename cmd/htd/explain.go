// The explain subcommand: run a decomposition with the full cost-
// attribution layer attached and render a diagnosis report — where the
// wall time went (exclusive phase clocks), which prune rules earned their
// decision time, how the cover cache performed, and (with -fracbound)
// whether the LP bound cascade beat the k-set-cover base. -json emits the
// structured document instead, for dashboards and CI schema checks.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"hypertree"
	"hypertree/internal/telemetry"
)

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	method := fs.String("method", "bb", "algorithm: "+htd.MethodNames(false))
	seed := fs.Int64("seed", 1, "random seed")
	maxNodes := fs.Int64("maxnodes", 0, "search node budget (0 = unbounded)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget (0 = none); on expiry the incumbent found so far is diagnosed")
	jobs := fs.Int("jobs", 0, "max concurrent portfolio workers (0 = one per method); -method balsep is sequential and ignores it")
	approx := fs.Int("approx", 0, "balsep width slack (see htd decompose -approx)")
	fracBound := fs.Bool("fracbound", false, "prune bb/astar with the fractional (LP) residual lower bound and report its effectiveness")
	jsonOut := fs.Bool("json", false, "emit the diagnosis as a JSON document instead of text")
	of := addObsFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("explain: need exactly one hypergraph file")
	}
	h, err := loadHypergraph(fs.Arg(0))
	if err != nil {
		return err
	}
	m, err := htd.ParseMethod(*method)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	s := of.start()
	// Diagnosis needs counters regardless of the observability flags: force
	// a Stats sink when start() created none.
	if s.stats == nil {
		s.stats = new(htd.Stats)
	}
	defer s.flight.HandlePanic()
	s.arm(ctx, "explain", fs.Arg(0), m.String())
	start := time.Now()
	d, res, err := htd.ExplainCtx(ctx, h, htd.Options{
		Method: m, Seed: *seed, MaxNodes: *maxNodes, Jobs: *jobs, FracBound: *fracBound,
		Approx: *approx, Stats: s.stats, Observer: s.obs, Trace: s.trace,
	})
	wall := time.Since(start)
	if err != nil {
		s.finish("explain", fs.Arg(0), m.String(), 0, res, err, wall)
		if isCtxErr(err) {
			return fmt.Errorf("no decomposition produced before the deadline (%w)", err)
		}
		return err
	}
	// finish folds the trace ring's drop counter into the stats, so the
	// snapshot below must be taken after it.
	if err := s.finish("explain", fs.Arg(0), m.String(), float64(d.GHWidth()), res, nil, wall); err != nil {
		return err
	}
	diag := telemetry.NewDiagnosis(s.stats.Snapshot(), s.stats.Trace(), wall)
	diag.Instance = fs.Arg(0)
	diag.Method = m.String()
	diag.Width = float64(d.GHWidth())
	diag.LowerBound = res.LowerBound
	diag.Exact = res.Exact
	diag.Winner = res.Winner
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(diag)
	}
	diag.Render(os.Stdout)
	return nil
}
