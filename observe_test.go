// Tests for the telemetry surface of the public API: observer/stats
// attachment never perturbs results, portfolio attribution (winner, lower
// bound provenance, per-worker outcomes), the betterOutcome tie-break
// order, and race-safety of concurrent observer callbacks.
package htd

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypertree/internal/gen"
)

// TestBetterOutcome pins the deterministic winner-selection order: smaller
// width first, then Exact over heuristic, and equal candidates keep the
// earlier slot (betterOutcome must report "not better" on ties).
func TestBetterOutcome(t *testing.T) {
	mk := func(width int, exact bool) *portfolioOutcome {
		return &portfolioOutcome{res: Result{Width: width, Exact: exact}}
	}
	cases := []struct {
		name string
		a, b *portfolioOutcome
		want bool
	}{
		{"smaller width wins", mk(3, false), mk(4, true), true},
		{"larger width loses", mk(5, true), mk(4, false), false},
		{"equal width, exact beats heuristic", mk(4, true), mk(4, false), true},
		{"equal width, heuristic loses to exact", mk(4, false), mk(4, true), false},
		{"full tie keeps earlier slot", mk(4, true), mk(4, true), false},
		{"heuristic tie keeps earlier slot", mk(4, false), mk(4, false), false},
	}
	for _, tc := range cases {
		if got := betterOutcome(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: betterOutcome = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSingleMethodAttribution checks that non-portfolio runs name
// themselves as Winner and, when they prove a positive lower bound, as
// LowerBoundBy.
func TestSingleMethodAttribution(t *testing.T) {
	h := gen.Grid2DHypergraph(4, 4)
	for _, m := range []Method{MethodMinFill, MethodGA, MethodSAIGA, MethodBB, MethodAStar} {
		res, err := GHW(h, oracleOpts(m, 1))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Winner != m.String() {
			t.Errorf("%v: Winner = %q, want %q", m, res.Winner, m.String())
		}
		if res.LowerBound > 0 && res.LowerBoundBy != m.String() {
			t.Errorf("%v: LowerBoundBy = %q with bound %d, want %q",
				m, res.LowerBoundBy, res.LowerBound, m.String())
		}
		if res.LowerBound == 0 && res.LowerBoundBy != "" {
			t.Errorf("%v: LowerBoundBy = %q with zero bound", m, res.LowerBoundBy)
		}
	}
}

// TestPortfolioAttribution runs the default portfolio to completion and
// checks the provenance fields: a Winner from the raced set, one Workers
// entry per slot in slot order, a LowerBoundBy method whose worker really
// proved the reported bound, and search nodes attributed to the workers.
func TestPortfolioAttribution(t *testing.T) {
	h := gen.RandomHypergraph(16, 14, 4, 2)
	opt := oracleOpts(MethodPortfolio, 7)
	opt.Jobs = 1           // slots run in order, so BB always runs to its end
	opt.Stats = new(Stats) // worker counter snapshots need telemetry attached
	res, err := GHW(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	methods := DefaultGHWPortfolio()
	names := make(map[string]bool, len(methods))
	for _, m := range methods {
		names[m.String()] = true
	}
	if !names[res.Winner] {
		t.Errorf("Winner = %q, not in the raced set", res.Winner)
	}
	if len(res.Workers) != len(methods) {
		t.Fatalf("len(Workers) = %d, want %d", len(res.Workers), len(methods))
	}
	var nodes int64
	lbProven := false
	for i, w := range res.Workers {
		if w.Slot != i {
			t.Errorf("Workers[%d].Slot = %d", i, w.Slot)
		}
		if w.Method != methods[i].String() {
			t.Errorf("Workers[%d].Method = %q, want %q", i, w.Method, methods[i].String())
		}
		if w.Err == "" {
			nodes += w.Stats.Nodes
			if w.Method == res.LowerBoundBy && w.LowerBound == res.LowerBound {
				lbProven = true
			}
		}
	}
	if res.LowerBound > 0 {
		if res.LowerBoundBy == "" {
			t.Errorf("LowerBound %d but LowerBoundBy empty", res.LowerBound)
		} else if !lbProven {
			t.Errorf("LowerBoundBy = %q, but no worker of that method reports bound %d",
				res.LowerBoundBy, res.LowerBound)
		}
	}
	// BB branches on this instance (the min-fill seed is not optimal), and
	// at Jobs=1 it runs after min-fill, which cannot end the race: its
	// search work always happens and must be attributed.
	if nodes == 0 {
		t.Error("no worker attributed any search nodes")
	}
}

// TestObserverDoesNotPerturb is the determinism acceptance criterion:
// for every sequential method (and the portfolio serialised with Jobs=1)
// the returned ordering, width and bounds are identical with and without
// an Observer plus Stats attached. The racing portfolio (Jobs=0) only
// guarantees width/exactness, which TestPortfolioDeterministicWidth
// already pins; here we additionally check width equality under observers.
func TestObserverDoesNotPerturb(t *testing.T) {
	h := gen.RandomHypergraph(12, 18, 3, 4)
	methods := []Method{MethodMinFill, MethodGA, MethodSAIGA, MethodBB, MethodAStar, MethodPortfolio}
	for _, m := range methods {
		opt := oracleOpts(m, 11)
		if m == MethodPortfolio {
			opt.Jobs = 1 // serialised: fully deterministic, orderings comparable
		}
		plain, err := GHW(h, opt)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}

		watched := opt
		watched.Stats = new(Stats)
		watched.Observer = &Observer{
			OnIncumbent:        func(Incumbent) {},
			OnPhase:            func(Phase) {},
			OnPortfolioOutcome: func(PortfolioOutcome) {},
		}
		watched.Trace = NewTrace(0) // structured tracing is observe-only too
		obs, err := GHW(h, watched)
		if err != nil {
			t.Fatalf("%v observed: %v", m, err)
		}
		if obs.Width != plain.Width || obs.Exact != plain.Exact || obs.LowerBound != plain.LowerBound {
			t.Errorf("%v: observed (w=%d lb=%d exact=%v) differs from plain (w=%d lb=%d exact=%v)",
				m, obs.Width, obs.LowerBound, obs.Exact, plain.Width, plain.LowerBound, plain.Exact)
		}
		if !reflect.DeepEqual(obs.Ordering, plain.Ordering) {
			t.Errorf("%v: observer attachment changed the returned ordering", m)
		}
	}

	// Racing portfolio: scheduling may pick a different witness ordering,
	// but the width and exactness must not move.
	opt := oracleOpts(MethodPortfolio, 11)
	plain, err := GHW(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Stats = new(Stats)
	opt.Observer = &Observer{OnIncumbent: func(Incumbent) {}}
	opt.Trace = NewTrace(0)
	obs, err := GHW(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Width != plain.Width || obs.Exact != plain.Exact {
		t.Errorf("racing portfolio: observed (w=%d exact=%v) differs from plain (w=%d exact=%v)",
			obs.Width, obs.Exact, plain.Width, plain.Exact)
	}
}

// TestStatsCountersSanity checks that an exact search reports plausible
// telemetry: nodes expanded, some pruning, a monotone non-empty trace
// whose final width equals the result, and a portfolio run that folds
// worker counters into the parent Stats.
func TestStatsCountersSanity(t *testing.T) {
	h := gen.Grid2DHypergraph(4, 4)

	st := new(Stats)
	res, err := GHW(h, func() Options { o := oracleOpts(MethodBB, 3); o.Stats = st; return o }())
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.Nodes == 0 {
		t.Error("BB reported zero nodes")
	}
	trace := st.Trace()
	if len(trace) == 0 {
		t.Fatal("BB recorded no incumbents")
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Width >= trace[i-1].Width {
			t.Fatalf("trace not strictly decreasing: %v", trace)
		}
		if trace[i].Elapsed < trace[i-1].Elapsed {
			t.Fatalf("trace time not monotone: %v", trace)
		}
	}
	if got := trace[len(trace)-1].Width; got != res.Width {
		t.Errorf("final trace width %d, result width %d", got, res.Width)
	}

	pst := new(Stats)
	pres, err := GHW(h, func() Options { o := oracleOpts(MethodPortfolio, 3); o.Stats = pst; return o }())
	if err != nil {
		t.Fatal(err)
	}
	psnap := pst.Snapshot()
	var workerNodes int64
	for _, w := range pres.Workers {
		workerNodes += w.Stats.Nodes
	}
	if psnap.Nodes != workerNodes {
		t.Errorf("parent Stats has %d nodes, workers sum to %d", psnap.Nodes, workerNodes)
	}
	if ptr := pst.Trace(); len(ptr) == 0 {
		t.Error("portfolio recorded no incumbents")
	}
}

// TestPortfolioConcurrentObserver drives the racing portfolio with an
// Observer whose hooks mutate shared state under their own lock, under
// -race, and checks both event sanity and that no worker goroutine leaks.
func TestPortfolioConcurrentObserver(t *testing.T) {
	h := gen.Grid2DHypergraph(6, 6)
	before := runtime.NumGoroutine()

	var (
		mu        sync.Mutex
		widths    []int
		outcomes  int
		phaseEvts atomic.Int64
	)
	obs := &Observer{
		OnIncumbent: func(inc Incumbent) {
			mu.Lock()
			widths = append(widths, inc.Width)
			mu.Unlock()
		},
		OnPhase: func(Phase) { phaseEvts.Add(1) },
		OnPortfolioOutcome: func(PortfolioOutcome) {
			mu.Lock()
			outcomes++
			mu.Unlock()
		},
	}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
		opt := oracleOpts(MethodPortfolio, int64(i))
		opt.Stats = new(Stats)
		opt.Observer = obs
		_, err := GHWCtx(ctx, h, opt)
		cancel()
		if err != nil && !isCtxErr(err) {
			t.Fatalf("run %d: %v", i, err)
		}
	}

	mu.Lock()
	// Widths reset between runs, so within-run monotonicity is checked
	// indirectly: an increase can only be a new run's first event, and
	// three runs allow at most two increases.
	increases := 0
	for i := 1; i < len(widths); i++ {
		if widths[i] >= widths[i-1] {
			increases++
		}
	}
	if increases > 2 {
		t.Errorf("incumbent widths rose %d times across 3 runs: %v", increases, widths)
	}
	if outcomes == 0 {
		t.Error("no portfolio outcome events observed")
	}
	mu.Unlock()
	if phaseEvts.Load() == 0 {
		t.Error("no phase events observed")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
