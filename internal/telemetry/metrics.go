// The metric table: the one place a telemetry metric is declared.
//
// Every leaf of Snapshot — an int64 counter or gauge, a histogram, a phase
// clock or a prune-rule clock — is one row of table. A row gives the
// leaf's wire name (its JSON key, from which the Prometheus family
// derives), its help text, how two runs merge (sum, or max for a
// high-water mark), how it is exposed, and which Stats slot holds its live
// value. Snapshot, Snapshot.Add, Stats.AddSnapshot, WriteProm, the bundle
// report and the CLI summary are loops over the table, so adding a metric
// is one Snapshot field plus one row (with its ID); the table tests check
// that every leaf is bound to exactly one row.
package telemetry

import (
	"strings"
	"sync/atomic"
	"time"
)

// Scalar identifies one int64 counter or gauge of the table; engines
// count with Stats.Add.
type Scalar int

const (
	Nodes Scalar = iota
	PruneSimplicial
	PrunePR2
	PruneCoverBound
	PruneLBCutoff
	PruneDominance
	GAGenerations
	GAEvaluations
	Restarts
	HeurSteps
	CoverHits
	CoverMisses
	CoverEvictions
	CQJoinTuples
	CQSemijoinTuples
	CQOutputJoins
	CQDeltaTuples
	CQBatchSharedJoins
	GCCount
	MemSamples
	FracLPEvals
	FracBoundWins
	TraceDropped
	HeapHighWaterBytes
	TotalAllocBytes
	GCPauseTotalNs
	numScalars
)

// Hist identifies one histogram of the table; engines record latencies
// with Stats.Observe.
type Hist int

const (
	CoverProbeNs Hist = iota
	CoverSolveNs
	CoverFracNs
	CQLevelWaitNs
	CQBatchNs
	CQDeltaApplyNs
	FirstIncumbentNs
	FracBoundMargin
	PortfolioExactToReturnNs
	numHists
)

// kind says where a row's live value lives and how it is exposed.
type kind uint8

const (
	kindCounter kind = iota // Scalar, monotone: htd_<name>_total
	kindGauge               // Scalar, point in time: htd_<name>
	kindPhase               // PhaseID clock: htd_phase_seconds{phase=<stem>}
	kindRule                // RuleID clock: htd_prune_rule_seconds{rule=<stem>}
	kindLatency             // Hist of nanoseconds: htd_<stem>_seconds
	kindHist                // Hist of raw units: htd_<name>
)

// metric is one row of the table.
type metric struct {
	name   string // wire name: the JSON key of the Snapshot leaf
	help   string
	kind   kind
	id     int                           // the Scalar, Hist, PhaseID or RuleID holding the live value
	max    bool                          // merge by maximum (a high-water mark) instead of sum
	prunes Scalar                        // rule rows: the counter of what the rule pruned
	val    func(*Snapshot) *int64        // the leaf of an int64 row
	hist   func(*Snapshot) *HistSnapshot // the leaf of a histogram row
}

// table lists every metric in exposition order: counters, gauges, phase
// clocks, rule clocks, then histograms.
var table = [...]metric{
	counter(Nodes, "nodes", "Search-tree nodes expanded (BB, A*).", func(s *Snapshot) *int64 { return &s.Nodes }),
	counter(PruneSimplicial, "prune_simplicial", "Branchings forced by the simplicial reduction rule.", func(s *Snapshot) *int64 { return &s.PruneSimplicial }),
	counter(PrunePR2, "prune_pr2", "Candidates removed by Pruning Rule 2.", func(s *Snapshot) *int64 { return &s.PrunePR2 }),
	counter(PruneCoverBound, "prune_cover_bound", "Subtrees closed by the PR1 finish/cover bound.", func(s *Snapshot) *int64 { return &s.PruneCoverBound }),
	counter(PruneLBCutoff, "prune_lb_cutoff", "Branches cut by f/g reaching the incumbent.", func(s *Snapshot) *int64 { return &s.PruneLBCutoff }),
	counter(PruneDominance, "prune_dominance", "Revisits cut by the eliminated-set dominance cache.", func(s *Snapshot) *int64 { return &s.PruneDominance }),
	counter(GAGenerations, "ga_generations", "GA / island generations completed.", func(s *Snapshot) *int64 { return &s.GAGenerations }),
	counter(GAEvaluations, "ga_evaluations", "GA fitness evaluations.", func(s *Snapshot) *int64 { return &s.GAEvaluations }),
	counter(Restarts, "restarts", "SAIGA epoch boundaries (parameter re-orientation).", func(s *Snapshot) *int64 { return &s.Restarts }),
	counter(HeurSteps, "heur_steps", "Greedy-ordering elimination steps.", func(s *Snapshot) *int64 { return &s.HeurSteps }),
	counter(CoverHits, "cover_hits", "Cover-oracle transposition-table hits.", func(s *Snapshot) *int64 { return &s.CoverHits }),
	counter(CoverMisses, "cover_misses", "Cover-oracle misses (covers actually solved).", func(s *Snapshot) *int64 { return &s.CoverMisses }),
	counter(CoverEvictions, "cover_evictions", "Cover-oracle bags evicted by the memory bound.", func(s *Snapshot) *int64 { return &s.CoverEvictions }),
	counter(CQJoinTuples, "cq_join_tuples", "Tuples emitted by query-engine join kernels.", func(s *Snapshot) *int64 { return &s.CQJoinTuples }),
	counter(CQSemijoinTuples, "cq_semijoin_tuples", "Tuples surviving query-engine semijoin kernels.", func(s *Snapshot) *int64 { return &s.CQSemijoinTuples }),
	counter(CQOutputJoins, "cq_output_joins", "Output-pass join operations (0 for Boolean runs).", func(s *Snapshot) *int64 { return &s.CQOutputJoins }),
	counter(CQDeltaTuples, "cq_delta_tuples", "Standing-query deltas applied (inserts + deletes).", func(s *Snapshot) *int64 { return &s.CQDeltaTuples }),
	counter(CQBatchSharedJoins, "cq_batch_shared_joins", "Batch-mode base relations served from the shared intern store.", func(s *Snapshot) *int64 { return &s.CQBatchSharedJoins }),
	counter(GCCount, "gc_count", "GC cycles observed over the run.", func(s *Snapshot) *int64 { return &s.GCCount }),
	counter(MemSamples, "mem_samples", "MemStats samples taken by the background sampler.", func(s *Snapshot) *int64 { return &s.MemSamples }),
	counter(FracLPEvals, "frac_lp_evals", "LP evaluations performed by the -fracbound cascade.", func(s *Snapshot) *int64 { return &s.FracLPEvals }),
	counter(FracBoundWins, "frac_bound_wins", "Cascades where the fractional bound beat k-set-cover.", func(s *Snapshot) *int64 { return &s.FracBoundWins }),
	counter(TraceDropped, "trace_dropped", "Trace-ring events lost to wraparound.", func(s *Snapshot) *int64 { return &s.TraceDropped }),
	{name: "heap_high_water_bytes", help: "Maximum observed live-heap bytes.", kind: kindGauge, id: int(HeapHighWaterBytes), max: true, val: func(s *Snapshot) *int64 { return &s.HeapHighWaterBytes }},
	gauge(TotalAllocBytes, "total_alloc_bytes", "Cumulative allocated bytes over the run.", func(s *Snapshot) *int64 { return &s.TotalAllocBytes }),
	gauge(GCPauseTotalNs, "gc_pause_total_ns", "Total GC stop-the-world pause nanoseconds over the run.", func(s *Snapshot) *int64 { return &s.GCPauseTotalNs }),

	phase(PhaseHeurSeed, "heur_seed_ns", func(s *Snapshot) *int64 { return &s.Phases.HeurSeedNs }),
	phase(PhaseCoverProbe, "cover_probe_ns", func(s *Snapshot) *int64 { return &s.Phases.CoverProbeNs }),
	phase(PhaseCoverSolve, "cover_solve_ns", func(s *Snapshot) *int64 { return &s.Phases.CoverSolveNs }),
	phase(PhaseLP, "lp_ns", func(s *Snapshot) *int64 { return &s.Phases.LPNs }),
	phase(PhaseBranch, "branch_ns", func(s *Snapshot) *int64 { return &s.Phases.BranchNs }),
	phase(PhaseLambda, "lambda_ns", func(s *Snapshot) *int64 { return &s.Phases.LambdaNs }),
	phase(PhaseCQ, "cq_ns", func(s *Snapshot) *int64 { return &s.Phases.CQNs }),

	// A rule's prunes are the subtrees it closed. The fractional bound
	// closes none itself (it strengthens the bound lb_cutoff cuts with),
	// so its countable effect is its wins.
	rule(RuleSimplicial, "simplicial_ns", PruneSimplicial, func(s *Snapshot) *int64 { return &s.Rules.SimplicialNs }),
	rule(RulePR2, "pr2_ns", PrunePR2, func(s *Snapshot) *int64 { return &s.Rules.PR2Ns }),
	rule(RuleCoverBound, "cover_bound_ns", PruneCoverBound, func(s *Snapshot) *int64 { return &s.Rules.CoverBoundNs }),
	rule(RuleLBCutoff, "lb_cutoff_ns", PruneLBCutoff, func(s *Snapshot) *int64 { return &s.Rules.LBCutoffNs }),
	rule(RuleDominance, "dominance_ns", PruneDominance, func(s *Snapshot) *int64 { return &s.Rules.DominanceNs }),
	rule(RuleFracBound, "frac_bound_ns", FracBoundWins, func(s *Snapshot) *int64 { return &s.Rules.FracBoundNs }),

	latency(CoverProbeNs, "cover_probe_ns", "Cover-oracle probe latency (hit or miss).", func(s *Snapshot) *HistSnapshot { return &s.CoverProbeNs }),
	latency(CoverSolveNs, "cover_solve_ns", "Exact set-cover solve latency (oracle misses).", func(s *Snapshot) *HistSnapshot { return &s.CoverSolveNs }),
	latency(CoverFracNs, "cover_frac_ns", "Fractional-cover LP solve latency (frac-memo misses).", func(s *Snapshot) *HistSnapshot { return &s.CoverFracNs }),
	latency(CQLevelWaitNs, "cq_level_wait_ns", "Per-worker barrier wait at parallel-evaluator level boundaries.", func(s *Snapshot) *HistSnapshot { return &s.CQLevelWaitNs }),
	latency(CQBatchNs, "cq_batch_ns", "Join/semijoin task batch duration (cq + csp engines).", func(s *Snapshot) *HistSnapshot { return &s.CQBatchNs }),
	latency(CQDeltaApplyNs, "cq_delta_apply_ns", "Standing-query delta apply latency.", func(s *Snapshot) *HistSnapshot { return &s.CQDeltaApplyNs }),
	latency(FirstIncumbentNs, "first_incumbent_ns", "Time to first incumbent per portfolio worker.", func(s *Snapshot) *HistSnapshot { return &s.FirstIncumbentNs }),
	{name: "frac_bound_margin", help: "Fractional-bound margin over k-set-cover (width units, one sample per completed cascade).", kind: kindHist, id: int(FracBoundMargin), hist: func(s *Snapshot) *HistSnapshot { return &s.FracBoundMargin }},
	latency(PortfolioExactToReturnNs, "portfolio_exact_to_return_ns", "Time from the first proving portfolio worker's return to the portfolio's return (one sample per run with a proof).", func(s *Snapshot) *HistSnapshot { return &s.PortfolioExactToReturnNs }),
}

// Row constructors, one per kind. Clock rows share one labeled family per
// kind, and with it the family's help text.

func counter(id Scalar, name, help string, val func(*Snapshot) *int64) metric {
	return metric{name: name, help: help, kind: kindCounter, id: int(id), val: val}
}

func gauge(id Scalar, name, help string, val func(*Snapshot) *int64) metric {
	return metric{name: name, help: help, kind: kindGauge, id: int(id), val: val}
}

func phase(id PhaseID, name string, val func(*Snapshot) *int64) metric {
	return metric{name: name, help: "Wall-clock seconds attributed per run phase.", kind: kindPhase, id: int(id), val: val}
}

func rule(id RuleID, name string, prunes Scalar, val func(*Snapshot) *int64) metric {
	return metric{name: name, help: "Decision-time seconds spent per prune rule.", kind: kindRule, id: int(id), prunes: prunes, val: val}
}

func latency(id Hist, name, help string, hist func(*Snapshot) *HistSnapshot) metric {
	return metric{name: name, help: help, kind: kindLatency, id: int(id), hist: hist}
}

// stem is the wire name without its nanosecond suffix: the label of a
// clock row and the family stem of a latency histogram.
func (m *metric) stem() string { return strings.TrimSuffix(m.name, "_ns") }

// scalar reports whether the row is a Scalar (counter or gauge).
func (m *metric) scalar() bool { return m.kind == kindCounter || m.kind == kindGauge }

// family returns the row's Prometheus family name and TYPE.
func (m *metric) family() (name, typ string) {
	switch m.kind {
	case kindCounter:
		return "htd_" + m.name + "_total", "counter"
	case kindGauge:
		return "htd_" + m.name, "gauge"
	case kindPhase:
		return "htd_phase_seconds", "counter"
	case kindRule:
		return "htd_prune_rule_seconds", "counter"
	case kindLatency:
		return "htd_" + m.stem() + "_seconds", "histogram"
	}
	return "htd_" + m.name, "histogram"
}

// label returns the name of the clock row of kind k and id.
func label(k kind, id int) string {
	for i := range table {
		if m := &table[i]; m.kind == k && m.id == id {
			return m.stem()
		}
	}
	return "unknown"
}

// scalarRow returns the row of scalar id.
func scalarRow(id Scalar) *metric {
	for i := range table {
		if m := &table[i]; m.scalar() && m.id == int(id) {
			return m
		}
	}
	panic("telemetry: scalar without a table row")
}

// cell returns the live value of an int64 row.
func (s *Stats) cell(m *metric) *atomic.Int64 {
	switch m.kind {
	case kindPhase:
		return &s.phaseNs[m.id]
	case kindRule:
		return &s.ruleNs[m.id]
	}
	return &s.scalars[m.id]
}

// Add adds n to scalar id. A nil receiver costs one nil check.
func (s *Stats) Add(id Scalar, n int64) {
	if s != nil {
		s.scalars[id].Add(n)
	}
}

// Observe records one duration in histogram id. A nil receiver costs one
// nil check.
func (s *Stats) Observe(id Hist, d time.Duration) {
	if s != nil {
		s.hists[id].Observe(int64(d))
	}
}

// Snapshot reads every row atomically (individually, not as a group).
// Safe on a nil receiver, which yields the zero Snapshot.
func (s *Stats) Snapshot() Snapshot {
	var out Snapshot
	if s == nil {
		return out
	}
	for i := range table {
		m := &table[i]
		if m.hist != nil {
			*m.hist(&out) = s.hists[m.id].Snapshot()
		} else {
			*m.val(&out) = s.cell(m).Load()
		}
	}
	return out
}

// Add returns the row-wise merge of two snapshots: sums, except that a
// high-water mark takes the max (two runs in one process share a heap).
// Like HistSnapshot.Add it is associative and commutative, so portfolio
// workers merge in any order.
func (a Snapshot) Add(b Snapshot) Snapshot {
	for i := range table {
		m := &table[i]
		switch {
		case m.hist != nil:
			*m.hist(&a) = m.hist(&a).Add(*m.hist(&b))
		case m.max:
			*m.val(&a) = max(*m.val(&a), *m.val(&b))
		default:
			*m.val(&a) += *m.val(&b)
		}
	}
	return a
}

// AddSnapshot folds a snapshot (a finished portfolio worker's counters, or
// the totals of a shared resource such as the cover oracle) into s by the
// same merge rules as Snapshot.Add. Safe on a nil receiver.
func (s *Stats) AddSnapshot(b Snapshot) {
	if s == nil {
		return
	}
	for i := range table {
		m := &table[i]
		switch {
		case m.hist != nil:
			s.hists[m.id].AddSnapshot(*m.hist(&b))
		case m.max:
			storeMax(s.cell(m), *m.val(&b))
		default:
			if v := *m.val(&b); v != 0 {
				s.cell(m).Add(v)
			}
		}
	}
}

// storeMax raises c to v when v is larger.
func storeMax(c *atomic.Int64, v int64) {
	for {
		cur := c.Load()
		if v <= cur || c.CompareAndSwap(cur, v) {
			return
		}
	}
}

// EachScalar calls f with the wire name and value of every counter and
// gauge, in table order.
func (s Snapshot) EachScalar(f func(name string, v int64)) {
	for i := range table {
		if m := &table[i]; m.scalar() {
			f(m.name, *m.val(&s))
		}
	}
}
