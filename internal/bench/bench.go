// Package bench is the JSON benchmark harness behind `htdbench -json`:
// it drives every (instance, method) pair of the exp catalog under a
// per-run wall-clock budget with full telemetry attached, and renders the
// outcome — width, bounds, wall time, node counts, per-rule prune
// counters, and the anytime incumbent curve — as one machine-readable
// report for regression tracking and plotting.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"time"

	"hypertree"
	"hypertree/internal/exp"
	"hypertree/internal/telemetry"
)

// CurvePoint is one improvement of the anytime incumbent: the run had a
// solution of the given width after Ms milliseconds, found by Method.
type CurvePoint struct {
	Ms     float64 `json:"ms"`
	Width  int     `json:"width"`
	Method string  `json:"method"`
}

// Record is one (instance, method) benchmark row.
type Record struct {
	Instance   string `json:"instance"`
	Family     string `json:"family"` // catalog family: "exact" | "substitute"
	Kind       string `json:"kind"`   // "tw" | "ghw"
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	Method     string `json:"method"`
	Seed       int64  `json:"seed"`
	Width      int    `json:"width"`
	LowerBound int    `json:"lower_bound"`
	Exact      bool   `json:"exact"`
	// FracWidth is the fractional width attached to the record: the fhw
	// objective on Kind "fhw" rows, and the winning fhw worker's objective
	// on ghw rows whose portfolio the fhw method won (zero elsewhere). The
	// compare gate treats it like Width — any increase is a violation.
	FracWidth float64 `json:"frac_width,omitempty"`
	WallMs    float64 `json:"wall_ms"`
	Nodes     int64   `json:"nodes"`
	// Answers is the evaluation answer count of a query-workload record
	// (Kind "cq"); the compare gate checks it exactly, since answers are
	// deterministic for a fixed seed.
	Answers      int64             `json:"answers,omitempty"`
	Winner       string            `json:"winner,omitempty"`
	LowerBoundBy string            `json:"lower_bound_by,omitempty"`
	Counters     htd.StatsSnapshot `json:"counters"`
	// CoverHitRate is hits / (hits + misses) over the run's cover-oracle
	// lookups (0 when the run made none, or the cache was disabled).
	CoverHitRate float64 `json:"cover_hit_rate"`
	// HeapHighWaterBytes is the peak sampled heap allocation during the
	// run; TotalAllocBytes and GCPauseTotalMs are cumulative over the run.
	// All three come from the background MemStats sampler the harness
	// attaches per record (zero in reports from before the sampler existed;
	// the compare gate skips heap checks for such baselines).
	HeapHighWaterBytes int64   `json:"heap_high_water_bytes"`
	TotalAllocBytes    int64   `json:"total_alloc_bytes"`
	GCPauseTotalMs     float64 `json:"gc_pause_total_ms"`
	// Latency quantiles (milliseconds) distilled from the run's histograms:
	// cover-oracle probe latency, the parallel engine's per-level barrier
	// wait, and a standing query's delta apply latency (Insert or Delete to
	// refreshed answers). Zero when the run recorded no such observations
	// (runs that never touch the oracle, the parallel engine or a standing
	// query, and baselines predating the histograms); the compare gate
	// skips p99 checks for such baselines. The full bucket vectors ride
	// along inside Counters.
	OracleProbeP50Ms float64 `json:"oracle_probe_p50_ms,omitempty"`
	OracleProbeP95Ms float64 `json:"oracle_probe_p95_ms,omitempty"`
	OracleProbeP99Ms float64 `json:"oracle_probe_p99_ms,omitempty"`
	LevelWaitP50Ms   float64 `json:"level_wait_p50_ms,omitempty"`
	LevelWaitP95Ms   float64 `json:"level_wait_p95_ms,omitempty"`
	LevelWaitP99Ms   float64 `json:"level_wait_p99_ms,omitempty"`
	DeltaApplyP50Ms  float64 `json:"delta_apply_p50_ms,omitempty"`
	DeltaApplyP99Ms  float64 `json:"delta_apply_p99_ms,omitempty"`
	// Phase-share and bound-quality distillates (zero in baselines from
	// before the cost-attribution layer; the compare gate skips them then).
	// PhaseCoverage is Σ exclusive phase time / wall; LPShare is the LP
	// clock's fraction of wall — the field the -max-lp-share gate watches.
	PhaseCoverage float64 `json:"phase_coverage,omitempty"`
	LPShare       float64 `json:"lp_share,omitempty"`
	// FracLPEvals / FracBoundWins / the margin quantiles summarize the
	// -fracbound cascade's effectiveness (width units; zero without it).
	FracLPEvals        int64        `json:"frac_lp_evals,omitempty"`
	FracBoundWins      int64        `json:"frac_bound_wins,omitempty"`
	FracBoundMarginP50 float64      `json:"frac_bound_margin_p50,omitempty"`
	FracBoundMarginP95 float64      `json:"frac_bound_margin_p95,omitempty"`
	Anytime            []CurvePoint `json:"anytime"`
	Error              string       `json:"error,omitempty"`
}

// Report is the top-level document of a BENCH_*.json file.
type Report struct {
	GeneratedBy string   `json:"generated_by"`
	Timeout     string   `json:"timeout"`
	Seed        int64    `json:"seed"`
	Full        bool     `json:"full"`
	Methods     []string `json:"methods"`
	Records     []Record `json:"records"`
}

// Config controls one harness run.
type Config struct {
	// Full selects the paper-scale catalog instead of the laptop-scale one.
	Full bool
	// Seed drives every randomised component.
	Seed int64
	// Timeout is the wall-clock budget per (instance, method) run.
	Timeout time.Duration
	// Methods lists the methods to run per instance.
	Methods []htd.Method
	// DisableCoverCache turns off the shared cover-oracle cache in every
	// GHW run, for measuring cache effectiveness (htdbench -nocovercache).
	DisableCoverCache bool
	// FracBound turns on the fractional residual lower bound in the exact
	// GHW searches (htdbench -fracbound). Widths are identical either way;
	// comparing node counts against a baseline run without it measures the
	// extra pruning the LP bound buys.
	FracBound bool
	// Instances, when non-nil, restricts the run to catalog instances
	// whose name matches (htdbench -instances) — how the CI perf gate
	// runs a fast pinned subset.
	Instances *regexp.Regexp
	// Log, when non-nil, receives one progress line per record.
	Log io.Writer
}

// keep reports whether the instance name passes the Instances filter.
func (c Config) keep(name string) bool {
	return c.Instances == nil || c.Instances.MatchString(name)
}

// Run executes the harness sequentially (one record at a time, so wall
// times are not distorted by sibling runs beyond the portfolio's own
// workers) and returns the report.
func Run(cfg Config) Report {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if len(cfg.Methods) == 0 {
		cfg.Methods = []htd.Method{htd.MethodPortfolio}
	}
	rep := Report{
		GeneratedBy: "htdbench -json",
		Timeout:     cfg.Timeout.String(),
		Seed:        cfg.Seed,
		Full:        cfg.Full,
	}
	for _, m := range cfg.Methods {
		rep.Methods = append(rep.Methods, m.String())
	}

	for _, inst := range exp.Graphs(cfg.Full) {
		if !cfg.keep(inst.Name) {
			continue
		}
		g := inst.Build()
		for _, m := range cfg.Methods {
			rep.measure(cfg, &Record{
				Instance: inst.Name, Family: inst.Family, Kind: "tw",
				Vertices: g.NumVertices(), Edges: g.NumEdges(),
				Method: m.String(), Seed: cfg.Seed,
			}, func(ctx context.Context, st *htd.Stats) (htd.Result, error) {
				return htd.TreewidthCtx(ctx, g, htd.Options{Method: m, Seed: cfg.Seed, Stats: st})
			})
		}
	}
	for _, inst := range exp.Hypergraphs(cfg.Full) {
		if !cfg.keep(inst.Name) {
			continue
		}
		h := inst.Build()
		for _, m := range cfg.Methods {
			rep.measure(cfg, &Record{
				Instance: inst.Name, Family: inst.Family, Kind: "ghw",
				Vertices: h.NumVertices(), Edges: h.NumEdges(),
				Method: m.String(), Seed: cfg.Seed,
			}, func(ctx context.Context, st *htd.Stats) (htd.Result, error) {
				return htd.GHWCtx(ctx, h, htd.Options{
					Method: m, Seed: cfg.Seed, Stats: st,
					DisableCoverCache: cfg.DisableCoverCache,
					FracBound:         cfg.FracBound,
				})
			})
		}
		// One fhw record per hypergraph instance rides along with whatever
		// method set was requested: the anytime fractional engine under the
		// same budget, gated on its fractional objective instead of Width.
		rep.measure(cfg, &Record{
			Instance: inst.Name, Family: inst.Family, Kind: "fhw",
			Vertices: h.NumVertices(), Edges: h.NumEdges(),
			Method: "fhw", Seed: cfg.Seed,
		}, func(ctx context.Context, st *htd.Stats) (htd.Result, error) {
			fres, err := htd.FHWCtx(ctx, h, htd.Options{
				Seed: cfg.Seed, Stats: st,
				DisableCoverCache: cfg.DisableCoverCache,
			})
			return htd.Result{FracWidth: fres.Width, Exact: false}, err
		})
	}
	return rep
}

// memSampleEvery is the per-record MemStats cadence: finer than the
// library default so even ~100ms records get a few samples (Stop always
// takes a final one, so every record sees at least its peak-at-exit).
const memSampleEvery = 5 * time.Millisecond

// measure runs one record's work the way every record is measured: with a
// fresh Stats and the MemStats sampler attached, under a context bounded by
// cfg.Timeout, and on the wall clock. It fills rec from what run returns,
// appends rec to the report and logs its progress line. run may set rec's
// own fields, such as a query's Answers.
func (rep *Report) measure(cfg Config, rec *Record, run func(ctx context.Context, st *htd.Stats) (htd.Result, error)) {
	st := new(htd.Stats)
	ms := telemetry.StartMemSampler(st, nil, memSampleEvery)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	start := time.Now()
	res, err := run(ctx, st)
	cancel()
	wall := time.Since(start)
	ms.Stop()
	fill(rec, res, err, wall, st)
	rep.add(cfg, *rec)
}

// add appends rec to the report and logs its progress line.
func (rep *Report) add(cfg Config, rec Record) {
	rep.Records = append(rep.Records, rec)
	progress(cfg.Log, rec)
}

// fill copies one run's outcome and telemetry into the record.
func fill(rec *Record, res htd.Result, err error, wall time.Duration, st *htd.Stats) {
	rec.WallMs = float64(wall.Microseconds()) / 1e3
	rec.Counters = st.Snapshot()
	rec.Nodes = rec.Counters.Nodes
	if total := rec.Counters.CoverHits + rec.Counters.CoverMisses; total > 0 {
		rec.CoverHitRate = float64(rec.Counters.CoverHits) / float64(total)
	}
	rec.HeapHighWaterBytes = rec.Counters.HeapHighWaterBytes
	rec.TotalAllocBytes = rec.Counters.TotalAllocBytes
	rec.GCPauseTotalMs = float64(rec.Counters.GCPauseTotalNs) / 1e6
	if hs := rec.Counters.CoverProbeNs; hs.Count > 0 {
		rec.OracleProbeP50Ms = hs.P50() / 1e6
		rec.OracleProbeP95Ms = hs.P95() / 1e6
		rec.OracleProbeP99Ms = hs.P99() / 1e6
	}
	if hs := rec.Counters.CQLevelWaitNs; hs.Count > 0 {
		rec.LevelWaitP50Ms = hs.P50() / 1e6
		rec.LevelWaitP95Ms = hs.P95() / 1e6
		rec.LevelWaitP99Ms = hs.P99() / 1e6
	}
	if hs := rec.Counters.CQDeltaApplyNs; hs.Count > 0 {
		rec.DeltaApplyP50Ms = hs.P50() / 1e6
		rec.DeltaApplyP99Ms = hs.P99() / 1e6
	}
	if wallNs := wall.Nanoseconds(); wallNs > 0 {
		rec.PhaseCoverage = float64(rec.Counters.Phases.Total()) / float64(wallNs)
		rec.LPShare = float64(rec.Counters.Phases.LPNs) / float64(wallNs)
	}
	rec.FracLPEvals = rec.Counters.FracLPEvals
	rec.FracBoundWins = rec.Counters.FracBoundWins
	if hs := rec.Counters.FracBoundMargin; hs.Count > 0 {
		rec.FracBoundMarginP50 = hs.P50()
		rec.FracBoundMarginP95 = hs.P95()
	}
	for _, inc := range st.Trace() {
		rec.Anytime = append(rec.Anytime, CurvePoint{
			Ms:     float64(inc.Elapsed.Microseconds()) / 1e3,
			Width:  inc.Width,
			Method: inc.Method,
		})
	}
	if err != nil {
		rec.Error = err.Error()
		return
	}
	rec.Width = res.Width
	rec.LowerBound = res.LowerBound
	rec.Exact = res.Exact
	rec.FracWidth = res.FracWidth
	rec.Winner = res.Winner
	rec.LowerBoundBy = res.LowerBoundBy
}

func progress(w io.Writer, rec Record) {
	if w == nil {
		return
	}
	if rec.Error != "" {
		fmt.Fprintf(w, "%-12s %-4s %-10s error: %s (%.0fms)\n",
			rec.Instance, rec.Kind, rec.Method, rec.Error, rec.WallMs)
		return
	}
	if rec.Kind == "fhw" {
		fmt.Fprintf(w, "%-12s %-4s %-10s frac_width=%.4f (%.0fms)\n",
			rec.Instance, rec.Kind, rec.Method, rec.FracWidth, rec.WallMs)
		return
	}
	fmt.Fprintf(w, "%-12s %-4s %-10s width=%d lb=%d exact=%v nodes=%d curve=%d (%.0fms)\n",
		rec.Instance, rec.Kind, rec.Method, rec.Width, rec.LowerBound, rec.Exact,
		rec.Nodes, len(rec.Anytime), rec.WallMs)
}

// Write renders the report as indented JSON.
func (r Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
