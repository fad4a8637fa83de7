// Tests for the cost-attribution phase clocks: the algebraic merge laws
// the portfolio fold relies on, the exclusive-window subtraction
// discipline of MarkPhase/AttributeSince, the fractional-bound outcome
// accounting, and the nil-receiver contract shared by every telemetry
// primitive.
package telemetry

import (
	"reflect"
	"testing"
	"time"
)

func samplePhases() []PhaseBreakdown {
	return []PhaseBreakdown{
		{},
		{HeurSeedNs: 7, BranchNs: 100, LambdaNs: 3},
		{CoverProbeNs: 11, CoverSolveNs: 13, LPNs: 17},
		{HeurSeedNs: 1, CoverProbeNs: 2, CoverSolveNs: 3, LPNs: 4, BranchNs: 5, LambdaNs: 6, CQNs: 7},
	}
}

func sampleRules() []RuleBreakdown {
	return []RuleBreakdown{
		{},
		{SimplicialNs: 5, PR2Ns: 50},
		{CoverBoundNs: 19, LBCutoffNs: 23, DominanceNs: 29, FracBoundNs: 31},
	}
}

// addPhases and addRules merge breakdowns the way the portfolio fold
// does: through Snapshot.Add.
func addPhases(a, b PhaseBreakdown) PhaseBreakdown {
	return Snapshot{Phases: a}.Add(Snapshot{Phases: b}).Phases
}

func addRules(a, b RuleBreakdown) RuleBreakdown {
	return Snapshot{Rules: a}.Add(Snapshot{Rules: b}).Rules
}

// TestPhaseBreakdownAddLaws asserts the merge algebra the portfolio and
// the bench harness depend on: Add is commutative, associative, and has
// the zero breakdown as identity — so per-worker breakdowns fold in any
// order to the same totals.
func TestPhaseBreakdownAddLaws(t *testing.T) {
	ps := samplePhases()
	for _, a := range ps {
		for _, b := range ps {
			if addPhases(a, b) != addPhases(b, a) {
				t.Fatalf("Add not commutative: %+v vs %+v", addPhases(a, b), addPhases(b, a))
			}
			for _, c := range ps {
				if addPhases(addPhases(a, b), c) != addPhases(a, addPhases(b, c)) {
					t.Fatalf("Add not associative for %+v %+v %+v", a, b, c)
				}
			}
		}
		if addPhases(a, PhaseBreakdown{}) != a {
			t.Fatalf("zero not identity for %+v", a)
		}
	}
	// Total must equal the sum over every field — i.e. no phase is missing
	// from the table.
	for _, a := range ps {
		var sum int64
		v := reflect.ValueOf(a)
		for i := 0; i < v.NumField(); i++ {
			sum += v.Field(i).Int()
		}
		if sum != a.Total() {
			t.Fatalf("Total()=%d but field sum=%d for %+v", a.Total(), sum, a)
		}
	}
}

func TestRuleBreakdownAddLaws(t *testing.T) {
	rs := sampleRules()
	for _, a := range rs {
		for _, b := range rs {
			if addRules(a, b) != addRules(b, a) {
				t.Fatalf("Add not commutative: %+v vs %+v", addRules(a, b), addRules(b, a))
			}
			for _, c := range rs {
				if addRules(addRules(a, b), c) != addRules(a, addRules(b, c)) {
					t.Fatalf("Add not associative for %+v %+v %+v", a, b, c)
				}
			}
		}
		if addRules(a, RuleBreakdown{}) != a {
			t.Fatalf("zero not identity for %+v", a)
		}
	}
}

// TestAttributeSinceSubtractsFinePhases checks the exclusive-attribution
// discipline: a coarse window attributes its wall time minus whatever
// finer phases recorded inside it, clamped at zero.
func TestAttributeSinceSubtractsFinePhases(t *testing.T) {
	st := new(Stats)
	// A window wholly consumed (and then some) by an inner fine phase
	// attributes nothing: the subtraction clamps at zero rather than
	// charging negative time.
	mark := st.MarkPhase()
	st.AddPhase(PhaseLP, time.Hour)
	st.AttributeSince(PhaseBranch, mark)
	if got := st.Snapshot().Phases.BranchNs; got != 0 {
		t.Fatalf("over-consumed window attributed %dns to branch, want 0", got)
	}

	// A window with no inner fine-phase activity attributes its own
	// elapsed time (bounded by the wall clock around it).
	st = new(Stats)
	before := time.Now()
	mark = st.MarkPhase()
	time.Sleep(2 * time.Millisecond)
	st.AttributeSince(PhaseBranch, mark)
	elapsed := time.Since(before)
	got := st.Snapshot().Phases.BranchNs
	if got <= 0 {
		t.Fatalf("empty window attributed nothing (got %dns)", got)
	}
	if got > int64(elapsed) {
		t.Fatalf("window attributed %dns > %v wall around it", got, elapsed)
	}

	// Pre-window phase time must not be subtracted: only deltas inside the
	// window count.
	st = new(Stats)
	st.AddPhase(PhaseLP, time.Hour) // before the mark
	mark = st.MarkPhase()
	time.Sleep(2 * time.Millisecond)
	st.AttributeSince(PhaseBranch, mark)
	if got := st.Snapshot().Phases.BranchNs; got <= 0 {
		t.Fatalf("pre-window LP time was wrongly subtracted (branch=%dns)", got)
	}
}

// TestFracBoundOutcome checks win counting and margin clamping: margins
// > 0 are wins, every completed cascade feeds the distribution, and
// negative margins (an LP weaker than the base bound, which the cascade
// treats as no-op) clamp to zero.
func TestFracBoundOutcome(t *testing.T) {
	st := new(Stats)
	st.Add(FracLPEvals, 1)
	st.Add(FracLPEvals, 1)
	st.FracBoundOutcome(2)
	st.FracBoundOutcome(0)
	st.FracBoundOutcome(-5)
	snap := st.Snapshot()
	if snap.FracLPEvals != 2 {
		t.Fatalf("FracLPEvals = %d, want 2", snap.FracLPEvals)
	}
	if snap.FracBoundWins != 1 {
		t.Fatalf("FracBoundWins = %d, want 1", snap.FracBoundWins)
	}
	if snap.FracBoundMargin.Count != 3 {
		t.Fatalf("margin Count = %d, want 3 (every cascade observes)", snap.FracBoundMargin.Count)
	}
	if snap.FracBoundMargin.Sum != 2 {
		t.Fatalf("margin Sum = %d, want 2 (negative clamped)", snap.FracBoundMargin.Sum)
	}
}

// TestPhaseClocksNilSafe pins the nil-receiver contract: every phase-clock
// entry point must be a no-op on a nil *Stats, because that is the
// telemetry-off fast path the engines take unconditionally.
func TestPhaseClocksNilSafe(t *testing.T) {
	var st *Stats
	st.AddPhase(PhaseBranch, time.Second)
	st.PhaseSince(PhaseLP, time.Now())
	mark := st.MarkPhase()
	st.AttributeSince(PhaseBranch, mark)
	st.RuleSince(RulePR2, time.Now())
	st.Add(FracLPEvals, 1)
	st.FracBoundOutcome(1)
	st.Add(TraceDropped, 10)
	// The zero mark from a nil Stats must also disable AttributeSince on a
	// live Stats (a worker passing marks across a nil boundary).
	live := new(Stats)
	live.AttributeSince(PhaseBranch, PhaseMark{})
	if got := live.Snapshot().Phases.Total(); got != 0 {
		t.Fatalf("zero mark attributed %dns", got)
	}
}

// TestSnapshotAddMergesPhaseClocks checks that Snapshot.Add — the
// portfolio fold — carries the phase clocks, rule clocks and the
// fractional-bound counters across.
func TestSnapshotAddMergesPhaseClocks(t *testing.T) {
	a := new(Stats)
	a.AddPhase(PhaseBranch, 100*time.Nanosecond)
	a.RuleSince(RulePR2, time.Now()) // tiny but nonzero
	a.Add(FracLPEvals, 1)
	a.FracBoundOutcome(1)
	a.Add(TraceDropped, 3)
	b := new(Stats)
	b.AddPhase(PhaseBranch, 50*time.Nanosecond)
	b.AddPhase(PhaseLP, 25*time.Nanosecond)

	merged := a.Snapshot().Add(b.Snapshot())
	if merged.Phases.BranchNs != 150 {
		t.Fatalf("merged branch = %dns, want 150", merged.Phases.BranchNs)
	}
	if merged.Phases.LPNs != 25 {
		t.Fatalf("merged lp = %dns, want 25", merged.Phases.LPNs)
	}
	if merged.Rules.PR2Ns <= 0 {
		t.Fatalf("merged pr2 rule time lost (%dns)", merged.Rules.PR2Ns)
	}
	if merged.FracLPEvals != 1 || merged.FracBoundWins != 1 {
		t.Fatalf("frac counters lost: evals=%d wins=%d", merged.FracLPEvals, merged.FracBoundWins)
	}
	if merged.FracBoundMargin.Count != 1 {
		t.Fatalf("margin histogram lost: count=%d", merged.FracBoundMargin.Count)
	}
	if merged.TraceDropped != 3 {
		t.Fatalf("trace_dropped lost: %d", merged.TraceDropped)
	}
}

// TestDiagnosisFromSnapshot exercises NewDiagnosis on a synthetic
// snapshot: phase coverage against a known wall, descending phase order,
// prune efficiency, and the frac_bound section appearing exactly when the
// cascade ran.
func TestDiagnosisFromSnapshot(t *testing.T) {
	st := new(Stats)
	st.AddPhase(PhaseBranch, 600*time.Millisecond)
	st.AddPhase(PhaseCoverSolve, 200*time.Millisecond)
	st.AddPhase(PhaseLP, 100*time.Millisecond)
	snap := st.Snapshot()

	diag := NewDiagnosis(snap, nil, time.Second)
	if got, want := diag.PhaseCoverage, 0.9; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("PhaseCoverage = %v, want %v", got, want)
	}
	if len(diag.Phases) != 3 {
		t.Fatalf("got %d phase reports, want 3", len(diag.Phases))
	}
	for i := 1; i < len(diag.Phases); i++ {
		if diag.Phases[i].Ns > diag.Phases[i-1].Ns {
			t.Fatalf("phase reports not sorted descending: %+v", diag.Phases)
		}
	}
	if diag.Phases[0].Phase != "branch" || diag.Phases[0].Share < 0.59 || diag.Phases[0].Share > 0.61 {
		t.Fatalf("top phase = %+v, want branch at ~0.6 share", diag.Phases[0])
	}
	if diag.Bound != nil {
		t.Fatalf("frac_bound section present without any cascade activity: %+v", diag.Bound)
	}

	// With cascade activity the bound report appears with a win rate.
	st.Add(FracLPEvals, 1)
	st.FracBoundOutcome(1)
	st.FracBoundOutcome(0)
	diag = NewDiagnosis(st.Snapshot(), nil, time.Second)
	if diag.Bound == nil {
		t.Fatal("frac_bound section missing after cascade activity")
	}
	if diag.Bound.LPEvals != 1 || diag.Bound.Cascades != 2 || diag.Bound.Wins != 1 {
		t.Fatalf("bound report = %+v, want 1 eval / 2 cascades / 1 win", diag.Bound)
	}
	if diag.Bound.WinRate < 0.49 || diag.Bound.WinRate > 0.51 {
		t.Fatalf("win rate = %v, want 0.5", diag.Bound.WinRate)
	}
}
