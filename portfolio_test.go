// Deadline, cancellation and race tests for the portfolio engine and the
// context-aware entry points. Run with -race: the portfolio is the only
// concurrent path through the public API, and these tests are its
// data-race and goroutine-leak coverage.
package htd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hypertree/internal/gen"
)

// deadlineGrace is how far past its deadline a Ctx call may return in these
// tests. It covers the irreducible floors measured on a single-core
// runner: one GHW evaluation of a random 100+-vertex ordering (~40ms, the
// GA's per-individual unit of work), plus the final exact-cover GHD that
// DecomposeCtx builds from the incumbent (~50ms), plus scheduler noise.
// Race-instrumented builds run those floors an order of magnitude slower.
var deadlineGrace = func() time.Duration {
	if raceEnabled {
		return 4 * time.Second
	}
	return 400 * time.Millisecond
}()

func isCtxErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// TestDecomposeCtxDeadline is the acceptance criterion of the portfolio
// change: a 50ms deadline on a 15×15 grid under MethodBB must return
// within 100ms, with either a valid incumbent decomposition or a context
// error. Under the race detector every step between two deadline polls
// runs an order of magnitude slower, so the bound scales accordingly; the
// strict 2× bound is what uninstrumented builds enforce.
func TestDecomposeCtxDeadline(t *testing.T) {
	h := gen.Grid2DHypergraph(15, 15)
	bound := 100 * time.Millisecond
	if raceEnabled {
		bound *= 10
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	d, err := DecomposeCtx(ctx, h, Options{Method: MethodBB, Seed: 1})
	elapsed := time.Since(start)

	if elapsed > bound {
		t.Errorf("DecomposeCtx took %v, want < %v for a 50ms deadline", elapsed, bound)
	}
	switch {
	case err != nil:
		if !isCtxErr(err) {
			t.Errorf("error is not a context error: %v", err)
		}
	case d == nil:
		t.Error("nil decomposition with nil error")
	default:
		if verr := d.ValidateGHD(); verr != nil {
			t.Errorf("incumbent decomposition invalid: %v", verr)
		}
	}
}

// TestGHWCtxDeadlineSweep drives every method through aggressive deadlines
// and asserts the Ctx contract: prompt return, and either a valid ordering
// or a context error — never both nil.
func TestGHWCtxDeadlineSweep(t *testing.T) {
	h := gen.Grid2DHypergraph(10, 10)
	methods := []Method{MethodMinFill, MethodGA, MethodSAIGA, MethodBB, MethodAStar, MethodPortfolio}
	for _, timeout := range []time.Duration{time.Millisecond, 25 * time.Millisecond, 100 * time.Millisecond} {
		for _, m := range methods {
			t.Run(fmt.Sprintf("%v_%v", m, timeout), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				start := time.Now()
				res, err := GHWCtx(ctx, h, Options{Method: m, Seed: 3})
				elapsed := time.Since(start)
				if elapsed > timeout+deadlineGrace {
					t.Errorf("returned after %v, deadline %v + grace %v", elapsed, timeout, deadlineGrace)
				}
				if err != nil {
					if !isCtxErr(err) {
						t.Fatalf("error is not a context error: %v", err)
					}
					return
				}
				if verr := Ordering(res.Ordering).Validate(h.NumVertices()); verr != nil {
					t.Fatalf("invalid incumbent ordering: %v", verr)
				}
				if res.LowerBound > res.Width {
					t.Fatalf("lower bound %d exceeds width %d", res.LowerBound, res.Width)
				}
			})
		}
	}
}

// TestPortfolioNoGoroutineLeak hammers the portfolio with short deadlines
// and the jobs cap, then checks that every worker goroutine drained.
func TestPortfolioNoGoroutineLeak(t *testing.T) {
	h := gen.Grid2DHypergraph(8, 8)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		for _, jobs := range []int{0, 1, 2} {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+10*i)*time.Millisecond)
			_, _ = GHWCtx(ctx, h, Options{Method: MethodPortfolio, Seed: int64(i), Jobs: jobs})
			cancel()
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPortfolioDeterministicWidth runs the portfolio twice with identical
// options and no deadline: the winning width, exactness and lower bound
// must not depend on goroutine scheduling.
func TestPortfolioDeterministicWidth(t *testing.T) {
	h := gen.RandomHypergraph(12, 18, 3, 4)
	opt := oracleOpts(MethodPortfolio, 9)
	first, err := GHW(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := GHW(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		if again.Width != first.Width || again.Exact != first.Exact {
			t.Fatalf("run %d: got (width=%d exact=%v), first run (width=%d exact=%v)",
				i, again.Width, again.Exact, first.Width, first.Exact)
		}
	}
}

// TestPortfolioJobs1Reproducible repeats a Jobs=1 portfolio 30 times on
// an instance bb closes at the root (queenhg_4) and on one where it
// branches (rand16*): every field of the result must repeat, Nodes and
// each worker's counters included. Only wall times may differ. Nothing
// starts after a proof, so no worker expands nodes on the way to a
// cancellation it has not seen yet.
func TestPortfolioJobs1Reproducible(t *testing.T) {
	instances := []struct {
		name string
		h    *Hypergraph
	}{
		{"queenhg_4", FromGraph(gen.Queen(4))},
		{"rand16*", gen.RandomHypergraph(16, 14, 4, 2)},
	}
	// view renders every result field but wall time: per-worker outcomes
	// with their counters, and no phase clocks or latency histograms.
	view := func(res Result) string {
		var b strings.Builder
		fmt.Fprintf(&b, "width=%d lb=%d exact=%v frac=%v nodes=%d winner=%s lbby=%s ord=%v\n",
			res.Width, res.LowerBound, res.Exact, res.FracWidth, res.Nodes, res.Winner, res.LowerBoundBy, res.Ordering)
		for _, w := range res.Workers {
			fmt.Fprintf(&b, "slot=%d %s width=%d lb=%d exact=%v frac=%v err=%q",
				w.Slot, w.Method, w.Width, w.LowerBound, w.Exact, w.FracWidth, w.Err)
			w.Stats.EachScalar(func(name string, v int64) { fmt.Fprintf(&b, " %s=%d", name, v) })
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, inst := range instances {
		var first string
		for run := 0; run < 30; run++ {
			opt := oracleOpts(MethodPortfolio, 4)
			opt.Jobs = 1
			opt.Stats = new(Stats) // per-worker counters need telemetry attached
			res, err := GHW(inst.h, opt)
			if err != nil {
				t.Fatalf("%s run %d: %v", inst.name, run, err)
			}
			got := view(res)
			if run == 0 {
				first = got
				continue
			}
			if got != first {
				t.Fatalf("%s run %d differs from run 0:\n got  %s\n want %s", inst.name, run, got, first)
			}
		}
	}
}

// TestPortfolioHeldSeatsWaitForProof: when a proving seat closes the
// instance first, the held seats never start. Their Workers entries carry
// the context error and they emit no start phase. Jobs=1 queues them
// behind every proving seat; the racing pool holds them for
// portfolioGrace, and bb closes these instances at the root in about a
// millisecond.
func TestPortfolioHeldSeatsWaitForProof(t *testing.T) {
	instances := []struct {
		name string
		h    *Hypergraph
	}{
		{"queenhg_4", FromGraph(gen.Queen(4))},
		{"chain", gen.Chain(10, 3, 1)},
	}
	for _, inst := range instances {
		for _, jobs := range []int{0, 1} {
			var mu sync.Mutex
			started := map[string]bool{}
			opt := oracleOpts(MethodPortfolio, 3)
			opt.Jobs = jobs
			opt.Observer = &Observer{OnPhase: func(ph Phase) {
				if ph.Name == "start" {
					mu.Lock()
					started[ph.Method] = true
					mu.Unlock()
				}
			}}
			res, err := GHW(inst.h, opt)
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", inst.name, jobs, err)
			}
			if !res.Exact {
				t.Fatalf("%s jobs=%d: no proof (width %d, bound %d)", inst.name, jobs, res.Width, res.LowerBound)
			}
			held := 0
			for i, m := range DefaultGHWPortfolio() {
				if !m.held() {
					continue
				}
				held++
				if w := res.Workers[i]; w.Err != context.Canceled.Error() {
					t.Errorf("%s jobs=%d: held seat %v reports (width=%d err=%q), want %q",
						inst.name, jobs, m, w.Width, w.Err, context.Canceled.Error())
				}
				if started[m.String()] {
					t.Errorf("%s jobs=%d: held seat %v emitted a start phase", inst.name, jobs, m)
				}
			}
			if held == 0 {
				t.Fatal("the default ghw portfolio holds no seat")
			}
		}
	}
}

// TestPortfolioHeldSeatsStartAfterGrace: when the proving seats cannot
// close before a deadline eight times portfolioGrace, the held seats start
// once the grace runs out, and can win. On le45_6* neither bb nor A* gets
// below min-fill's width 12 within seconds, while this GA configuration
// finds 11 in tens of milliseconds and then stops.
func TestPortfolioHeldSeatsStartAfterGrace(t *testing.T) {
	g := gen.KPartite(45, 6, 0.15, 451)
	deadline := 8 * portfolioGrace
	if raceEnabled {
		deadline *= 4
	}
	var mu sync.Mutex
	starts := map[string]time.Duration{}
	opt := Options{
		Method: MethodPortfolio,
		Seed:   4,
		GA: &GAConfig{PopulationSize: 60, CrossoverRate: 1.0, MutationRate: 0.3,
			TournamentSize: 3, Generations: 40},
		Observer: &Observer{OnPhase: func(ph Phase) {
			if ph.Name == "start" {
				mu.Lock()
				starts[ph.Method] = ph.Elapsed
				mu.Unlock()
			}
		}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	res, err := TreewidthCtx(ctx, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatalf("a proving seat closed le45_6* (width %d): the test needs an instance they cannot close", res.Width)
	}
	for i, m := range DefaultPortfolio() {
		if !m.held() {
			continue
		}
		if w := res.Workers[i]; w.Err != "" {
			t.Errorf("held seat %v did not run: %s", m, w.Err)
		}
		if at, ok := starts[m.String()]; !ok || at < portfolioGrace {
			t.Errorf("held seat %v started at %v (ok=%v), want after the %v grace", m, at, ok, portfolioGrace)
		}
	}
	if res.Winner != MethodGA.String() || res.Width != 11 {
		t.Errorf("winner %s with width %d, want ga with 11", res.Winner, res.Width)
	}
}

// TestCtxCancelledBeforeStart verifies the no-incumbent corner: with an
// already-cancelled context every method either reports the context error
// or — if its very first unit of work yields an incumbent before the first
// poll, as the GAs guarantee — a well-formed result.
func TestCtxCancelledBeforeStart(t *testing.T) {
	h := gen.Grid2DHypergraph(5, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{MethodMinFill, MethodGA, MethodSAIGA, MethodBB, MethodAStar, MethodPortfolio} {
		res, err := GHWCtx(ctx, h, Options{Method: m, Seed: 1})
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v: error is not context.Canceled: %v", m, err)
			}
			continue
		}
		if verr := Ordering(res.Ordering).Validate(h.NumVertices()); verr != nil {
			t.Errorf("%v: nil error but invalid ordering: %v", m, verr)
		}
	}
}

// TestTreewidthCtxDeadline exercises the treewidth portfolio path under a
// deadline, including the jobs cap that leaves workers queued when the
// deadline fires.
func TestTreewidthCtxDeadline(t *testing.T) {
	g := gen.Grid2DHypergraph(9, 9).PrimalGraph()
	for _, jobs := range []int{0, 1} {
		ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
		start := time.Now()
		res, err := TreewidthCtx(ctx, g, Options{Method: MethodPortfolio, Seed: 2, Jobs: jobs})
		elapsed := time.Since(start)
		cancel()
		if elapsed > 40*time.Millisecond+deadlineGrace {
			t.Errorf("jobs=%d: returned after %v", jobs, elapsed)
		}
		if err != nil {
			if !isCtxErr(err) {
				t.Errorf("jobs=%d: error is not a context error: %v", jobs, err)
			}
			continue
		}
		if verr := Ordering(res.Ordering).Validate(g.NumVertices()); verr != nil {
			t.Errorf("jobs=%d: invalid ordering: %v", jobs, verr)
		}
	}
}

// TestBalSepDeadline: balsep's tw-ksc bound polls the deadline. On
// adder_99 the bound alone takes about 200ms, so an unpolled bound
// overruns a 30ms deadline by far more than the grace below.
func TestBalSepDeadline(t *testing.T) {
	h := gen.Adder(99)
	bound := 120 * time.Millisecond
	if raceEnabled {
		bound *= 10
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := GHWCtx(ctx, h, Options{Method: MethodBalSep, Seed: 1})
	if elapsed := time.Since(start); elapsed > bound {
		t.Errorf("GHWCtx(balsep) took %v, want < %v for a 30ms deadline", elapsed, bound)
	}
	if err != nil {
		if !isCtxErr(err) {
			t.Errorf("error is not a context error: %v", err)
		}
		return
	}
	if verr := Ordering(res.Ordering).Validate(h.NumVertices()); verr != nil {
		t.Errorf("invalid ordering: %v", verr)
	}
	if res.LowerBound > res.Width {
		t.Errorf("lower bound %d above width %d", res.LowerBound, res.Width)
	}
}

// TestPortfolioNeverWorse gives the portfolio and every single method the
// same generous wall-clock budget on small instances — large enough for an
// exact method to finish even while sharing the CPU — and asserts the
// portfolio's width is never worse than the best single method's.
func TestPortfolioNeverWorse(t *testing.T) {
	instances := []struct {
		name string
		h    *Hypergraph
	}{
		{"grid4x4", gen.Grid2DHypergraph(4, 4)},
		{"chain", gen.Chain(10, 3, 1)},
		{"rand14", gen.RandomHypergraph(14, 20, 3, 6)},
	}
	const budget = 2 * time.Second
	for _, inst := range instances {
		t.Run(inst.name, func(t *testing.T) {
			checkNeverWorseGHW(t, inst.h, budget)
		})
	}
}

func checkNeverWorseGHW(t *testing.T, h *Hypergraph, budget time.Duration) {
	t.Helper()
	bestSingle := -1
	for _, m := range DefaultPortfolio() {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		res, err := GHWCtx(ctx, h, oracleOpts(m, 5))
		cancel()
		if err != nil {
			continue // a method that produced nothing can't set the bar
		}
		if bestSingle < 0 || res.Width < bestSingle {
			bestSingle = res.Width
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	res, err := GHWCtx(ctx, h, oracleOpts(MethodPortfolio, 5))
	cancel()
	if err != nil {
		t.Fatalf("portfolio failed: %v", err)
	}
	if bestSingle >= 0 && res.Width > bestSingle {
		t.Errorf("portfolio width %d worse than best single method %d", res.Width, bestSingle)
	}
}

// TestPortfolioNeverWorseTables runs the never-worse check on the
// benchmark families of docs/tables_default_run.txt: the DIMACS-style
// colouring graphs (Mycielski, queen, grid) on the treewidth side and the
// adder/bridge hypergraphs on the ghw side, each at an equal wall-clock
// budget generous enough for an exact method to finish even while the
// portfolio splits the CPU between workers.
func TestPortfolioNeverWorseTables(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock budgets")
	}
	const budget = 2 * time.Second
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"myciel3", gen.Mycielski(3)},
		{"myciel4", gen.Mycielski(4)},
		{"queen5_5", gen.Queen(5)},
		{"grid5", gen.Grid2D(5, 5)},
	}
	for _, inst := range graphs {
		t.Run(inst.name, func(t *testing.T) {
			bestSingle := -1
			for _, m := range DefaultPortfolio() {
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				res, err := TreewidthCtx(ctx, inst.g, oracleOpts(m, 5))
				cancel()
				if err != nil {
					continue
				}
				if bestSingle < 0 || res.Width < bestSingle {
					bestSingle = res.Width
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			res, err := TreewidthCtx(ctx, inst.g, oracleOpts(MethodPortfolio, 5))
			cancel()
			if err != nil {
				t.Fatalf("portfolio failed: %v", err)
			}
			if bestSingle >= 0 && res.Width > bestSingle {
				t.Errorf("portfolio width %d worse than best single method %d", res.Width, bestSingle)
			}
		})
	}
	hypergraphs := []struct {
		name string
		h    *Hypergraph
	}{
		{"adder10", gen.Adder(10)},
		{"bridge3", gen.Bridge(3)},
	}
	for _, inst := range hypergraphs {
		t.Run(inst.name, func(t *testing.T) {
			checkNeverWorseGHW(t, inst.h, budget)
		})
	}
}
