package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"hypertree"
)

// span is one interval recorded around a call the benchmark makes into a
// layer. Spans of one op share Op; an op's root span has Parent 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans in memory until the run ends. Spans are recorded
// on the loop's goroutine only, so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
	total map[string]time.Duration // summed duration per span name
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	t.total[s.Name] += time.Duration(s.End - s.Start)
}

// write stores the spans as JSON under .bench_build/spans.
func (t *tracer) write(workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}

// probe carries one traced op's telemetry sinks. It is nil outside the
// traced loop, and every method is nil-safe, so an op's code is the same
// in both loops.
type probe struct {
	agg   *layerAgg
	kind  string
	op    int
	root  int
	stats *htd.Stats
	pf    *portfolioProbe
}

// options attaches the probe's Stats (and, for portfolio ops, Observer).
func (p *probe) options(o htd.Options) htd.Options {
	if p == nil {
		return o
	}
	o.Stats = p.stats
	if p.pf != nil {
		o.Observer = p.pf.observer()
	}
	return o
}

// span opens a child span of the op; the returned func closes it.
func (p *probe) span(name string) func() {
	if p == nil {
		return func() {}
	}
	id := p.agg.tr.begin(name, p.root, p.op)
	return func() { p.agg.tr.end(id) }
}

// returned records a portfolio call's return and its result attribution.
func (p *probe) returned(res htd.Result) {
	if p == nil || p.pf == nil {
		return
	}
	pf := p.pf
	pf.mu.Lock()
	pf.ret = time.Since(pf.t0)
	pf.winner, pf.lbBy = res.Winner, res.LowerBoundBy
	pf.mu.Unlock()
}

// changed records whether a standing-query delta changed the answer set.
func (p *probe) changed(c bool) {
	if p != nil && c {
		p.agg.answersChanged++
	}
}

// portfolioProbe collects one portfolio call's Observer events. Hooks fire
// on worker goroutines, hence the lock.
type portfolioProbe struct {
	mu           sync.Mutex
	t0           time.Time
	firstExact   time.Duration // -1 until a worker reports Exact
	starts       []time.Duration
	outcomes     []htd.PortfolioOutcome
	ret          time.Duration
	winner, lbBy string
}

func (pf *portfolioProbe) observer() *htd.Observer {
	pf.t0 = time.Now()
	return &htd.Observer{
		OnPhase: func(ph htd.Phase) {
			if ph.Name != "start" || ph.Method == htd.MethodPortfolio.String() {
				return
			}
			pf.mu.Lock()
			pf.starts = append(pf.starts, time.Since(pf.t0))
			pf.mu.Unlock()
		},
		OnPortfolioOutcome: func(o htd.PortfolioOutcome) {
			pf.mu.Lock()
			if o.Exact && o.Err == "" && pf.firstExact < 0 {
				pf.firstExact = time.Since(pf.t0)
			}
			pf.outcomes = append(pf.outcomes, o)
			pf.mu.Unlock()
		},
	}
}

// layerAgg accumulates the traced loop's per-layer evidence.
type layerAgg struct {
	tr       *tracer
	ops      int
	snap     htd.StatsSnapshot
	kindOps  map[string]int
	kindSnap map[string]htd.StatsSnapshot
	// shared is the one Stats a stateful workload binds at set-up; its
	// counters, less those of the set-up and warm-up (sharedBase), are
	// folded in once, at the end.
	shared     *htd.Stats
	sharedBase htd.StatsSnapshot

	pfOps, workersStarted, startedAfterExact, useful int
	workerTime                                       time.Duration
	firstExactMs, exactToReturnMs                    []float64

	answersChanged int
	// overhead holds each cycle pair's traced ÷ untraced busy time, and
	// balsepRatio each balsep pair's Jobs=1 ÷ Jobs=2 wall time, in pair
	// order; balsepJ1Ms and balsepJ2Ms hold the pairs' wall times.
	overhead, balsepRatio, balsepJ1Ms, balsepJ2Ms []float64
}

func newLayerAgg() *layerAgg {
	return &layerAgg{
		tr:       &tracer{t0: time.Now(), total: map[string]time.Duration{}},
		kindOps:  map[string]int{},
		kindSnap: map[string]htd.StatsSnapshot{},
	}
}

// probe opens the root span of the next op (nil when untraced).
func (agg *layerAgg) probe(t template) *probe {
	if agg == nil {
		return nil
	}
	agg.ops++
	p := &probe{agg: agg, kind: t.kind, op: agg.ops, stats: agg.shared}
	if p.stats == nil {
		p.stats = new(htd.Stats)
	}
	if t.kind == kindPortfolio {
		p.pf = &portfolioProbe{firstExact: -1}
	}
	p.root = agg.tr.begin(t.name, 0, p.op)
	return p
}

// done closes the op's root span and folds its telemetry.
func (agg *layerAgg) done(p *probe) {
	if p == nil {
		return
	}
	agg.tr.end(p.root)
	agg.kindOps[p.kind]++
	if agg.shared == nil {
		s := p.stats.Snapshot()
		agg.snap = agg.snap.Add(s)
		agg.kindSnap[p.kind] = agg.kindSnap[p.kind].Add(s)
	}
	pf := p.pf
	if pf == nil {
		return
	}
	agg.pfOps++
	agg.workersStarted += len(pf.starts)
	for _, s := range pf.starts {
		if pf.firstExact >= 0 && s > pf.firstExact {
			agg.startedAfterExact++
		}
	}
	for _, o := range pf.outcomes {
		agg.workerTime += o.Elapsed
		if o.Err == "" && (o.Method == pf.winner || o.Method == pf.lbBy) {
			agg.useful++
		}
	}
	if pf.firstExact >= 0 {
		agg.firstExactMs = append(agg.firstExactMs, msOf(pf.firstExact))
		agg.exactToReturnMs = append(agg.exactToReturnMs, msOf(pf.ret-pf.firstExact))
	}
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct{ allocBytes, gcCycles, gcCPU, totalCPU float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{v(0), v(1), v(2), v(3)}
}

// heldSamples is read by heldMB, on the loop's goroutine only.
var heldSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

// heldMB is the memory the Go runtime holds from the operating system and
// has not released to it: the process's resident memory less its code and
// static data.
func heldMB() float64 {
	metrics.Read(heldSamples)
	return float64(heldSamples[0].Value.Uint64()-heldSamples[1].Value.Uint64()) / (1 << 20)
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// pairedRatio summarises ratios taken over pairs of runs whose order
// alternates from one pair to the next: the geometric mean of the medians
// of the two orders, so that whatever the second run of a pair gains from
// the first cancels out.
func pairedRatio(ratios []float64) float64 {
	var first, second []float64
	for i, r := range ratios {
		if i%2 == 0 {
			first = append(first, r)
		} else {
			second = append(second, r)
		}
	}
	if len(second) == 0 {
		return quantile(first, 0.5)
	}
	return math.Sqrt(quantile(first, 0.5) * quantile(second, 0.5))
}

// metrics fills m with every per-layer metric. plain holds the untraced
// halves of the cycle pairs (whose runtime counters rt covers), tl the
// traced halves, over the same ops.
func (agg *layerAgg) metrics(m map[string]metric, plain, tl loopResult, rt rtSample) {
	if agg.shared != nil {
		s, b := agg.shared.Snapshot(), agg.sharedBase
		s.CQJoinTuples -= b.CQJoinTuples
		s.CQSemijoinTuples -= b.CQSemijoinTuples
		s.CQDeltaTuples -= b.CQDeltaTuples
		agg.snap = agg.snap.Add(s)
		agg.kindSnap[kindDelta] = agg.kindSnap[kindDelta].Add(s)
	}
	div := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	s, ops := agg.snap, agg.ops
	ph := s.Phases
	nsPerOp := func(ns int64) float64 { return div(float64(ns)/1e6, ops) }
	spanMs := func(name string, n int) float64 { return div(msOf(agg.tr.total[name]), n) }

	set("trace.ops", "count", float64(ops))

	// Facade: the portfolio, seen through its Observer events.
	pfOps := agg.pfOps
	set("portfolio.ops", "count", float64(pfOps))
	set("portfolio.first_exact_ms.p50", "ms", quantile(agg.firstExactMs, 0.5))
	set("portfolio.first_exact_samples", "count", float64(len(agg.firstExactMs)))
	set("portfolio.exact_to_return_ms.p50", "ms", quantile(agg.exactToReturnMs, 0.5))
	set("portfolio.workers_started_per_op", "count", div(float64(agg.workersStarted), pfOps))
	set("portfolio.workers_started_after_exact_per_op", "count", div(float64(agg.startedAfterExact), pfOps))
	set("portfolio.worker_cpu_ms_per_op", "ms", div(msOf(agg.workerTime), pfOps))
	set("portfolio.useful_frac", "frac", div(float64(agg.useful), agg.workersStarted))

	set("hypergraph.parse_ms_per_op", "ms", spanMs("parse", ops))
	set("heur.seed_ms_per_op", "ms", nsPerOp(ph.HeurSeedNs))
	set("search.nodes_per_op", "count", div(float64(s.Nodes), ops))
	set("search.branch_ms_per_op", "ms", nsPerOp(ph.BranchNs))

	probes := s.CoverHits + s.CoverMisses
	set("cover.hit_ratio", "frac", div(float64(s.CoverHits), int(probes)))
	set("cover.hits_per_op", "count", div(float64(s.CoverHits), ops))
	set("cover.misses_per_op", "count", div(float64(s.CoverMisses), ops))
	set("cover.probe_ms_per_op", "ms", nsPerOp(ph.CoverProbeNs))
	set("setcover.solve_ms_per_op", "ms", nsPerOp(ph.CoverSolveNs))
	set("lp.ms_per_op", "ms", nsPerOp(ph.LPNs))
	set("frac.lp_evals_per_op", "count", div(float64(s.CoverFracNs.Count+s.FracLPEvals), ops))
	set("order.lambda_ms_per_op", "ms", nsPerOp(ph.LambdaNs))

	bops := agg.kindOps[kindBalSep]
	set("detk.balsep_ms_per_op", "ms", spanMs("balsep", bops))
	set("detk.balsep_nodes_per_op", "count", div(float64(agg.kindSnap[kindBalSep].Nodes), bops))
	set("detk.balsep_j1_ms", "ms", quantile(agg.balsepJ1Ms, 0.5))
	set("detk.balsep_j2_ms", "ms", quantile(agg.balsepJ2Ms, 0.5))
	set("detk.balsep_jobs_speedup", "ratio", pairedRatio(agg.balsepRatio))
	set("detk.balsep_speedup_samples", "count", float64(len(agg.balsepRatio)))

	qops := agg.kindOps[kindQuery]
	qs := agg.kindSnap[kindQuery]
	set("cq.plan_ms_per_query", "ms", spanMs("plan", qops))
	set("cq.eval_ms_per_query", "ms", spanMs("eval", qops))
	set("cq.level_wait_ms.p99", "ms", s.CQLevelWaitNs.P99()/1e6)
	set("cq.level_wait_samples", "count", float64(s.CQLevelWaitNs.Count))
	set("csp.join_tuples_per_query", "count", div(float64(qs.CQJoinTuples), qops))
	set("csp.semijoin_tuples_per_query", "count", div(float64(qs.CQSemijoinTuples), qops))

	dops := agg.kindOps[kindDelta]
	ds := agg.kindSnap[kindDelta]
	set("csp.join_tuples_per_delta", "count", div(float64(ds.CQJoinTuples), dops))
	set("csp.semijoin_tuples_per_delta", "count", div(float64(ds.CQSemijoinTuples), dops))
	set("standing.delta_tuples_per_delta", "count", div(float64(ds.CQDeltaTuples), dops))
	set("standing.answers_changed_frac", "frac", div(float64(agg.answersChanged), dops))

	// Runtime counters cover the untraced halves, the configuration the
	// end-to-end metrics measure.
	n := len(plain.samples)
	set("runtime.alloc_mb_per_op", "MB", div(rt.allocBytes/(1<<20), n))
	set("runtime.gc_cycles_per_op", "count", div(rt.gcCycles, n))
	gcFrac := 0.0
	if rt.totalCPU > 0 {
		gcFrac = rt.gcCPU / rt.totalCPU
	}
	set("runtime.gc_cpu_frac", "frac", gcFrac)

	set("telemetry.untraced_busy_s", "s", plain.busy.Seconds())
	set("telemetry.traced_busy_s", "s", tl.busy.Seconds())
	set("telemetry.overhead_frac", "frac", pairedRatio(agg.overhead)-1)
	set("telemetry.overhead_samples", "count", float64(len(agg.overhead)))
}
