// Cost-attribution phase clocks and bound-effectiveness telemetry.
//
// The counters in telemetry.go answer "how many" (nodes, prunes, cache
// hits); this file answers the question the paper's experimental sections
// are built on: WHERE DID THE WALL-CLOCK GO, and did each prune rule and
// lower bound pay for its cost? Two orthogonal breakdowns:
//
//   - PhaseBreakdown partitions a worker's wall time into EXCLUSIVE
//     phases (heuristic seed, cover probe, cover solve, LP, branch
//     expansion, λ-materialization, cq passes). Fine-grained phases
//     (cover probe/solve, LP) self-attribute per call at the oracle;
//     coarse windows attribute "window minus whatever finer phases
//     recorded inside it" via PhaseMark/AttributeSince, so for a
//     single-threaded worker the phases sum to ≤ its wall time. A
//     portfolio run folds per-worker breakdowns, so its phase total is
//     CPU time and may legitimately exceed wall.
//
//   - RuleBreakdown records the time SPENT DECIDING each prune rule
//     (simplicial reduction, PR2, the cover/finish bound, the residual
//     lower-bound cutoff, dominance, and the fractional-bound cascade).
//     Rule times overlap the branch phase by design — they answer
//     "nodes closed per millisecond of rule work", not "share of wall".
//
// Like every other telemetry primitive: a nil *Stats costs one nil check
// per instrumentation point, and attaching the clocks never feeds back
// into search decisions — results stay bit-identical for a fixed seed.
package telemetry

import "time"

// PhaseID names one exclusive wall-clock phase of a decomposition run.
type PhaseID int

const (
	// PhaseHeurSeed is greedy-ordering construction and its evaluation
	// (min-fill seeding, initial OrderCost, root lower bounds).
	PhaseHeurSeed PhaseID = iota
	// PhaseCoverProbe is cover-oracle query time excluding solves: bag
	// canonicalization, hashing, shard lookup, memo insertion.
	PhaseCoverProbe
	// PhaseCoverSolve is exact/greedy set-cover solving on oracle misses.
	PhaseCoverSolve
	// PhaseLP is fractional-cover LP time (simplex solves and the frac
	// memo path around them).
	PhaseLP
	// PhaseBranch is search-driver time: node expansion, successor
	// generation, queue/stack bookkeeping — everything in the branching
	// loop not attributed to a finer phase.
	PhaseBranch
	// PhaseLambda is λ-materialization: turning the winning ordering into
	// an explicit decomposition with bags and edge covers, and validating
	// it. fhw's scoring of its winner with exact covers counts here too.
	PhaseLambda
	// PhaseCQ is conjunctive-query evaluation (the Yannakakis passes).
	PhaseCQ

	// NumPhases is the number of PhaseID values.
	NumPhases = int(PhaseCQ) + 1
)

// String returns the snake_case phase name used in JSON and /metrics labels.
func (p PhaseID) String() string { return label(kindPhase, int(p)) }

// PhaseBreakdown is a plain, JSON-encodable partition of attributed wall
// time in nanoseconds. The zero value means "phase clocks never fired".
type PhaseBreakdown struct {
	HeurSeedNs   int64 `json:"heur_seed_ns,omitempty"`
	CoverProbeNs int64 `json:"cover_probe_ns,omitempty"`
	CoverSolveNs int64 `json:"cover_solve_ns,omitempty"`
	LPNs         int64 `json:"lp_ns,omitempty"`
	BranchNs     int64 `json:"branch_ns,omitempty"`
	LambdaNs     int64 `json:"lambda_ns,omitempty"`
	CQNs         int64 `json:"cq_ns,omitempty"`
}

// Total returns the sum over all phases.
func (b PhaseBreakdown) Total() int64 {
	snap := Snapshot{Phases: b}
	var t int64
	for i := range table {
		if m := &table[i]; m.kind == kindPhase {
			t += *m.val(&snap)
		}
	}
	return t
}

// RuleID names one prune rule whose decision time is tracked.
type RuleID int

const (
	// RuleSimplicial is the (strongly almost) simplicial reduction check.
	RuleSimplicial RuleID = iota
	// RulePR2 is Pruning Rule 2 (neighborhood-subset candidate removal).
	RulePR2
	// RuleCoverBound is the PR1 finish-now bound (greedy cover in ghw mode).
	RuleCoverBound
	// RuleLBCutoff is the residual lower-bound computation and cutoff test.
	RuleLBCutoff
	// RuleDominance is the eliminated-set dominance cache lookup.
	RuleDominance
	// RuleFracBound is the opt-in ⌈ρ*(χ)⌉ fractional-bound cascade (its
	// LP time is also in PhaseLP; this is the whole cascade window).
	RuleFracBound

	// NumRules is the number of RuleID values.
	NumRules = int(RuleFracBound) + 1
)

// String returns the snake_case rule name used in JSON and /metrics labels.
func (r RuleID) String() string { return label(kindRule, int(r)) }

// RuleBreakdown is the JSON-encodable per-rule decision-time record, in
// nanoseconds. Rule times overlap the phase partition (a rule evaluated
// inside the branching loop is also branch-phase time), so they are a
// separate dimension, never summed against wall.
type RuleBreakdown struct {
	SimplicialNs int64 `json:"simplicial_ns,omitempty"`
	PR2Ns        int64 `json:"pr2_ns,omitempty"`
	CoverBoundNs int64 `json:"cover_bound_ns,omitempty"`
	LBCutoffNs   int64 `json:"lb_cutoff_ns,omitempty"`
	DominanceNs  int64 `json:"dominance_ns,omitempty"`
	FracBoundNs  int64 `json:"frac_bound_ns,omitempty"`
}

// AddPhase attributes d to phase p. Negative durations are discarded.
// Safe on a nil receiver.
func (s *Stats) AddPhase(p PhaseID, d time.Duration) {
	if s != nil && d > 0 {
		s.phaseNs[p].Add(int64(d))
	}
}

// PhaseSince attributes the time elapsed since t0 to phase p, for
// instrumentation points whose whole window belongs to one phase (no
// finer phases can fire inside). Safe on nil.
func (s *Stats) PhaseSince(p PhaseID, t0 time.Time) {
	if s != nil {
		s.phaseNs[p].Add(int64(time.Since(t0)))
	}
}

// PhaseMark captures the state a coarse phase window subtracts against:
// the wall clock and every phase's attributed total at window start. The
// zero mark (from a nil Stats) disables the matching AttributeSince.
type PhaseMark struct {
	t0     time.Time
	phases [NumPhases]int64
}

// MarkPhase opens a coarse attribution window. Safe on nil (returns the
// zero mark, which AttributeSince ignores).
func (s *Stats) MarkPhase() PhaseMark {
	if s == nil {
		return PhaseMark{}
	}
	var m PhaseMark
	for i := range m.phases {
		m.phases[i] = s.phaseNs[i].Load()
	}
	m.t0 = time.Now() // after the loads: loads count as pre-window
	return m
}

// AttributeSince closes a coarse window opened by MarkPhase, attributing
// to phase p the window's wall time MINUS everything finer phases
// recorded inside it (clamped at zero). This is the exclusive-attribution
// discipline: a branch window containing oracle probes attributes only
// the driver's own time, so a single-threaded worker's phases sum to ≤
// its wall clock. Safe on nil and on the zero mark.
func (s *Stats) AttributeSince(p PhaseID, m PhaseMark) {
	if s == nil || m.t0.IsZero() {
		return
	}
	excl := int64(time.Since(m.t0))
	for i := range m.phases {
		excl -= s.phaseNs[i].Load() - m.phases[i]
	}
	if excl > 0 {
		s.phaseNs[p].Add(excl)
	}
}

// RuleSince attributes the time elapsed since t0 to prune rule r. Safe on
// nil.
func (s *Stats) RuleSince(r RuleID, t0 time.Time) {
	if s != nil {
		s.ruleNs[r].Add(int64(time.Since(t0)))
	}
}

// FracBoundOutcome records one completed fractional-bound cascade: margin
// is how much the ⌈ρ*⌉ bound exceeded the k-set-cover base (0 when the LP
// added nothing). Wins count margins > 0; every completed cascade feeds
// the margin distribution, so the win rate is wins/Count and the
// quantiles answer "by how much". Safe on nil.
func (s *Stats) FracBoundOutcome(margin int64) {
	if s == nil {
		return
	}
	if margin < 0 {
		margin = 0
	}
	if margin > 0 {
		s.scalars[FracBoundWins].Add(1)
	}
	s.hists[FracBoundMargin].Observe(margin)
}
