// Package telemetry is the zero-dependency instrumentation layer of the
// decomposition engines: per-run counters in the spirit of the
// Gottlob–Samer det-k-decomp evaluation (which reports subproblem and
// branch counts), declared once in the metric table of metrics.go, an
// anytime incumbent trace for width-over-time curves, and an Observer
// hook bundle for live progress reporting.
//
// Everything is designed so that a DISABLED instrumentation point costs a
// single nil check: Stats.Add, Stats.Observe, the phase clocks and all
// Observer emit helpers have nil-receiver fast paths, so engines call them
// unconditionally on whatever pointer their options carry. Enabled
// counters are atomic and the trace is mutex-protected, so one Stats may
// be shared by the concurrent workers of a portfolio run.
//
// Telemetry never feeds back into search decisions: attaching a Stats or
// an Observer must not change any engine's result for a fixed seed.
package telemetry

import (
	"expvar"
	"sync"
	"sync/atomic"
	"time"
)

// Stats accumulates the counters of one decomposition run. The zero value
// is ready to use; a nil *Stats discards every update at the cost of one
// nil check per instrumentation point. All methods are safe for concurrent
// use, so a single Stats can aggregate across portfolio workers. The live
// values are indexed by the IDs of the metric table (metrics.go).
type Stats struct {
	scalars [numScalars]atomic.Int64
	hists   [numHists]Histogram
	phaseNs [NumPhases]atomic.Int64 // exclusive wall per PhaseID (phases.go)
	ruleNs  [NumRules]atomic.Int64  // decision time per RuleID

	mu    sync.Mutex
	t0    time.Time
	trace []Incumbent
}

// Start pins the clock the incumbent trace measures elapsed times against.
// It is idempotent: only the first call (or the first RecordIncumbent,
// whichever comes earlier) sets the origin. Safe on a nil receiver.
func (s *Stats) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.t0.IsZero() {
		s.t0 = time.Now()
	}
	s.mu.Unlock()
}

// Elapsed returns the time since Start (zero before Start on a nil or
// unstarted Stats).
func (s *Stats) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	t0 := s.t0
	s.mu.Unlock()
	if t0.IsZero() {
		return 0
	}
	return time.Since(t0)
}

// ObserveMem folds one runtime.MemStats sample into s: heapAlloc raises
// the heap high-water mark, while the totals (deltas against the
// sampler's baseline) replace the previous observation — they are
// cumulative already. Safe on a nil receiver.
func (s *Stats) ObserveMem(heapAlloc, totalAlloc, gcPauseNs, gcCount int64) {
	if s == nil {
		return
	}
	storeMax(&s.scalars[HeapHighWaterBytes], heapAlloc)
	s.scalars[TotalAllocBytes].Store(totalAlloc)
	s.scalars[GCPauseTotalNs].Store(gcPauseNs)
	s.scalars[GCCount].Store(gcCount)
	s.scalars[MemSamples].Add(1)
}

// Snapshot is a plain-integer copy of the counters, suitable for JSON
// encoding and expvar export. Each leaf is one row of the metric table.
type Snapshot struct {
	Nodes           int64 `json:"nodes"`
	PruneSimplicial int64 `json:"prune_simplicial"`
	PrunePR2        int64 `json:"prune_pr2"`
	PruneCoverBound int64 `json:"prune_cover_bound"`
	PruneLBCutoff   int64 `json:"prune_lb_cutoff"`
	PruneDominance  int64 `json:"prune_dominance"`
	GAGenerations   int64 `json:"ga_generations"`
	GAEvaluations   int64 `json:"ga_evaluations"`
	Restarts        int64 `json:"restarts"`
	HeurSteps       int64 `json:"heur_steps"`
	CoverHits       int64 `json:"cover_hits"`
	CoverMisses     int64 `json:"cover_misses"`
	CoverEvictions  int64 `json:"cover_evictions"`

	// Query-engine counters (zero unless a cq evaluation ran).
	CQJoinTuples       int64 `json:"cq_join_tuples"`
	CQSemijoinTuples   int64 `json:"cq_semijoin_tuples"`
	CQOutputJoins      int64 `json:"cq_output_joins"`
	CQDeltaTuples      int64 `json:"cq_delta_tuples"`
	CQBatchSharedJoins int64 `json:"cq_batch_shared_joins"`

	// Memory telemetry (zero unless a MemSampler ran over the Stats).
	HeapHighWaterBytes int64 `json:"heap_high_water_bytes"`
	TotalAllocBytes    int64 `json:"total_alloc_bytes"`
	GCPauseTotalNs     int64 `json:"gc_pause_total_ns"`
	GCCount            int64 `json:"gc_count"`
	MemSamples         int64 `json:"mem_samples"`

	// Latency distributions in nanoseconds (empty unless the matching
	// instrumentation point fired). Embedded wherever Snapshot travels —
	// ledger lines, bench records, expvar — so quantiles ride along for
	// free.
	CoverProbeNs     HistSnapshot `json:"cover_probe_ns"`
	CoverSolveNs     HistSnapshot `json:"cover_solve_ns"`
	CoverFracNs      HistSnapshot `json:"cover_frac_ns"`
	CQLevelWaitNs    HistSnapshot `json:"cq_level_wait_ns"`
	CQBatchNs        HistSnapshot `json:"cq_batch_ns"`
	CQDeltaApplyNs   HistSnapshot `json:"cq_delta_apply_ns"`
	FirstIncumbentNs HistSnapshot `json:"first_incumbent_ns"`

	// Cost attribution (zero unless the phase clocks fired; see phases.go).
	// Phases partition attributed wall time exclusively; Rules record
	// overlapping per-prune-rule decision time. Both are additive, so old
	// JSON documents without them decode as all-zero and merge cleanly.
	Phases PhaseBreakdown `json:"phases"`
	Rules  RuleBreakdown  `json:"rule_ns"`

	// Bound-effectiveness record of the -fracbound cascade: evaluations,
	// wins over the k-set-cover base, and the margin distribution (width
	// units, one observation per completed cascade, 0 on non-wins).
	FracLPEvals     int64        `json:"frac_lp_evals,omitempty"`
	FracBoundWins   int64        `json:"frac_bound_wins,omitempty"`
	FracBoundMargin HistSnapshot `json:"frac_bound_margin"`

	// TraceDropped counts trace-ring events lost to wraparound (satellite
	// visibility for truncated traces).
	TraceDropped int64 `json:"trace_dropped,omitempty"`

	// PortfolioExactToReturnNs is the portfolio's own latency after a
	// proof: one sample per portfolio run in which a worker returned
	// Exact, from that worker's return to the portfolio's. Omitted while
	// empty, so documents written before it existed round-trip unchanged.
	PortfolioExactToReturnNs HistSnapshot `json:"portfolio_exact_to_return_ns,omitzero"`
}

// Incumbent is one point of the anytime trace: at Elapsed since the run
// started, Method improved the best known width to Width.
type Incumbent struct {
	Elapsed time.Duration `json:"elapsed"`
	Width   int           `json:"width"`
	Method  string        `json:"method"`
}

// RecordIncumbent appends a point to the anytime trace if width strictly
// improves on the last recorded point (the trace is monotone decreasing by
// construction, whatever order concurrent workers report in). It returns
// the recorded point and whether it was recorded. Safe on a nil receiver.
func (s *Stats) RecordIncumbent(width int, method string) (Incumbent, bool) {
	if s == nil {
		return Incumbent{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.t0.IsZero() {
		s.t0 = time.Now()
	}
	if n := len(s.trace); n > 0 && width >= s.trace[n-1].Width {
		return Incumbent{}, false
	}
	inc := Incumbent{Elapsed: time.Since(s.t0), Width: width, Method: method}
	s.trace = append(s.trace, inc)
	return inc, true
}

// Trace returns a copy of the anytime incumbent trace, oldest first. Safe
// on a nil receiver.
func (s *Stats) Trace() []Incumbent {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Incumbent, len(s.trace))
	copy(out, s.trace)
	return out
}

// Phase marks a coarse stage transition of a run: a method starting or
// finishing, at Elapsed since the run began.
type Phase struct {
	Method  string        `json:"method"`
	Name    string        `json:"name"` // "start" | "done"
	Elapsed time.Duration `json:"elapsed"`
}

// Outcome reports one finished portfolio worker: its slot, method, result
// summary, wall time and counters. Err is non-empty when the worker
// produced no result (e.g. cancelled before its first incumbent).
type Outcome struct {
	Slot       int    `json:"slot"`
	Method     string `json:"method"`
	Width      int    `json:"width"`
	LowerBound int    `json:"lower_bound"`
	Exact      bool   `json:"exact"`
	// FracWidth is the fractional width an fhw worker achieved (zero for
	// every integral method — fhw scores the integral race via Width and
	// carries its real objective here).
	FracWidth float64       `json:"frac_width,omitempty"`
	Elapsed   time.Duration `json:"elapsed"`
	Err       string        `json:"error,omitempty"`
	Stats     Snapshot      `json:"stats"`
}

// Observer bundles the progress hooks of a run. Any field may be nil; a
// nil *Observer disables everything at the cost of one nil check per
// event. Hooks may be invoked concurrently from portfolio worker
// goroutines, so they must be safe for concurrent use, and they must not
// block: the engines call them synchronously on their search paths.
type Observer struct {
	// OnIncumbent fires on each strict improvement of the best width,
	// including the initial heuristic incumbent.
	OnIncumbent func(Incumbent)
	// OnPhase fires when a method starts and finishes.
	OnPhase func(Phase)
	// OnPortfolioOutcome fires once per portfolio worker as it completes,
	// in completion order (which depends on scheduling).
	OnPortfolioOutcome func(Outcome)
}

// Incumbent emits an incumbent event; nil-safe on observer and hook.
func (o *Observer) Incumbent(e Incumbent) {
	if o != nil && o.OnIncumbent != nil {
		o.OnIncumbent(e)
	}
}

// Phase emits a phase event; nil-safe on observer and hook.
func (o *Observer) Phase(p Phase) {
	if o != nil && o.OnPhase != nil {
		o.OnPhase(p)
	}
}

// PortfolioOutcome emits a worker outcome event; nil-safe.
func (o *Observer) PortfolioOutcome(out Outcome) {
	if o != nil && o.OnPortfolioOutcome != nil {
		o.OnPortfolioOutcome(out)
	}
}

// expvarHolders maps published names to swappable Stats pointers. expvar
// itself panics on duplicate Publish calls and offers no unpublish, so
// each name is published exactly once with a Func reading through the
// holder — re-publishing under the same name swaps the holder and the
// exported JSON immediately reflects the newest run instead of pinning
// the first Stats forever.
var (
	expvarMu      sync.Mutex
	expvarHolders = map[string]*atomic.Pointer[Stats]{}
)

// PublishExpvar exports s under the given expvar name as a JSON object
// with the live counters and the anytime trace, for scraping via
// /debug/vars next to net/http/pprof. Calling it again with the same name
// re-points the export at the new Stats, so a long-lived process serves
// its latest run, not its first.
func PublishExpvar(name string, s *Stats) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	holder, ok := expvarHolders[name]
	if !ok {
		holder = new(atomic.Pointer[Stats])
		expvarHolders[name] = holder
	}
	holder.Store(s)
	if !ok {
		expvar.Publish(name, expvar.Func(func() any {
			cur := holder.Load() // nil-safe: Snapshot/Trace tolerate nil
			return struct {
				Counters Snapshot    `json:"counters"`
				Trace    []Incumbent `json:"trace"`
			}{cur.Snapshot(), cur.Trace()}
		}))
	}
}
