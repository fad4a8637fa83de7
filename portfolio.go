package htd

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hypertree/internal/cover"
	"hypertree/internal/interrupt"
	"hypertree/internal/search"
	"hypertree/internal/telemetry"
)

// DefaultPortfolio returns the method set MethodPortfolio races when
// Options.Portfolio is empty. Slice position is the priority used to break
// width ties (lower index wins), so the cheap always-finishing heuristic
// comes first and the exact searches follow. GA is a held seat: it starts
// only when min-fill, BB and A* have all returned without a proof, or
// after a 50ms grace, and never once one of them has proven the optimum.
// It still wins where the exact searches stall (le45_6*).
func DefaultPortfolio() []Method {
	return []Method{MethodMinFill, MethodBB, MethodAStar, MethodGA}
}

// DefaultGHWPortfolio is the default method set for GHW (and Decompose)
// portfolio runs: DefaultPortfolio plus the balanced-separator search,
// which deepens from the tw-ksc bound and can reach a witness at that
// bound where the ordering searches stall. Balsep is held like GA: on the
// instances min-fill, BB and A* close, it never starts. The
// fractional-width local search (MethodFHW) is not a default seat: it
// reports no lower bound, so it could only matter by holding the strictly
// best width. It stays available through Options.Portfolio.
func DefaultGHWPortfolio() []Method {
	return append(DefaultPortfolio(), MethodBalSep)
}

// portfolioSeedStride separates the derived seeds of portfolio workers.
// Worker 0 keeps Options.Seed unchanged, so a single-method portfolio
// reproduces the plain run of that method bit for bit.
const portfolioSeedStride = 7919

// portfolioMethods resolves and validates the raced method set for the
// measure m: Options.Portfolio, or the measure's default set when empty.
func (o Options) portfolioMethods(m search.Measure) ([]Method, error) {
	ms := o.Portfolio
	if len(ms) == 0 {
		ms = DefaultPortfolio()
		if m.H != nil {
			ms = DefaultGHWPortfolio()
		}
	}
	for _, mt := range ms {
		if mt == MethodPortfolio {
			return nil, fmt.Errorf("htd: portfolio cannot contain itself")
		}
		if err := mt.check(m); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// workerOptions derives the per-worker options: same configuration, but a
// seed offset per slot so concurrent randomised methods never share a
// stream (worker 0 keeps the caller's seed).
func (o Options) workerOptions(i int, m Method) Options {
	w := o
	w.Method = m
	w.Seed = o.Seed + int64(i)*portfolioSeedStride
	// Jobs caps the portfolio pool, not a worker's internal parallelism: an
	// fhw worker runs a single local-search stream inside its slot.
	w.Jobs = 1
	return w
}

// portfolioGrace is how long the held seats wait for the proving seats
// before they start anyway. Over 200 relabellings of rand16*, the first
// proof landed after at most 41 ms (p50 21 ms), so on the instances the
// exact searches close the held seats never start.
const portfolioGrace = 50 * time.Millisecond

type portfolioOutcome struct {
	res     Result
	err     error
	elapsed time.Duration
	end     time.Time // when the worker returned (zero if it never started)
	attr    telemetry.Outcome
}

// portfolio races the configured methods for the measure m, each method
// slot on its own goroutine, with at most Options.Jobs running
// concurrently (≤ 0 means all at once). Proving seats start first; the
// held seats (GA, SAIGA, fhw, balsep: the methods table's held column)
// start once every proving seat has returned without a proof, or after
// portfolioGrace. A worker that returns Exact cancels the race itself, so
// no slot starts after a proof; everyone still running degrades to its
// best-so-far incumbent per the Ctx contracts. For ghw all workers share
// the caller's cover oracle: a set-cover subproblem solved by any worker
// is a cache hit for every other, and because the oracle only memoizes
// deterministically computed covers, sharing it never makes any worker's
// result depend on scheduling.
//
// Winner selection is deterministic: smallest width, ties preferring an
// Exact result, then the lower slot index. When any exact result lands its
// width is the true optimum, so no straggler can beat it and the reported
// width does not depend on scheduling; without exact finishers nothing is
// cancelled, every seat runs to completion, and every worker result is
// itself deterministic in the seed. The returned LowerBound is the max
// over workers and Nodes the sum.
//
// Each worker gets a scope of its own so the result can attribute nodes,
// prunes and wall time per method (Result.Workers); the run's scope
// receives one OnPortfolioOutcome event per slot in completion order, and
// every worker's counters are folded into the parent Stats. A run with a
// proof records the time from the first proving worker's return to its own
// return in the portfolio_exact_to_return_ns histogram.
func portfolio(ctx context.Context, m search.Measure, opt Options, orc *cover.Oracle) (Result, error) {
	methods, err := opt.portfolioMethods(m)
	if err != nil {
		return Result{}, err
	}
	sc := newScope(opt)
	sc.phase("start")
	defer sc.phase("done")
	nslots := len(methods)
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := opt.Jobs
	if jobs <= 0 || jobs > nslots {
		jobs = nslots
	}
	outcomes := make([]portfolioOutcome, nslots)
	scopes := make([]*scope, nslots)
	for i, m := range methods {
		scopes[i] = sc.worker(i, m)
	}
	// A jobs-sized pool drains the slots from one queue: the proving seats
	// in slot order, then the held ones. So Jobs=1 runs the methods
	// strictly sequentially, and a held seat starts only after every
	// proving seat has returned without a proof — which makes the entire
	// result, ordering and Nodes included, reproducible for a fixed Seed
	// (racing workers are only width-deterministic; see below).
	slots := make(chan int, nslots)
	var pending atomic.Int32 // proving seats not yet returned
	for i, mt := range methods {
		if !mt.held() {
			slots <- i
			pending.Add(1)
		}
	}
	for i, mt := range methods {
		if mt.held() {
			slots <- i
		}
	}
	close(slots)
	// gate opens the held seats: closed by the last proving seat to
	// return, or by the grace timer, whichever comes first.
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	if pending.Load() == 0 {
		open()
	} else {
		grace := time.AfterFunc(portfolioGrace, open)
		defer grace.Stop()
	}
	done := make(chan int, nslots)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range slots {
				held := methods[i].held()
				if held {
					select {
					case <-gate:
					case <-raceCtx.Done():
					}
				}
				if err := raceCtx.Err(); err != nil {
					// Overtaken while queued by a proof, a deadline or the
					// caller: report the context error instead of starting
					// doomed work.
					outcomes[i] = portfolioOutcome{err: err}
				} else {
					start := time.Now()
					res, err := runMethod(raceCtx, m, opt.workerOptions(i, methods[i]), scopes[i], orc)
					end := time.Now()
					outcomes[i] = portfolioOutcome{res: res, err: err, elapsed: end.Sub(start), end: end}
					if err == nil && res.Exact {
						cancel() // optimum proven — stop the stragglers, start nothing new
						scopes[i].traceRef().Instant(scopes[i].trackID(), "portfolio.exact",
							telemetry.Arg{Key: "slot", Val: int64(i)},
							telemetry.Arg{Key: "width", Val: int64(res.Width)})
					}
				}
				if !held && pending.Add(-1) == 0 {
					open()
				}
				done <- i
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	for i := range done {
		out := &outcomes[i]
		// Attribution, built in completion order: the observer sees each
		// worker as it finishes, the result keeps all of them per slot.
		attr := telemetry.Outcome{
			Slot:    i,
			Method:  methods[i].String(),
			Elapsed: out.elapsed,
			Stats:   scopes[i].snapshot(),
		}
		if out.err != nil {
			attr.Err = out.err.Error()
		} else {
			attr.Width = out.res.Width
			attr.LowerBound = out.res.LowerBound
			attr.Exact = out.res.Exact
			attr.FracWidth = out.res.FracWidth
		}
		out.attr = attr
		sc.outcome(attr)
		sc.absorb(attr.Stats)
	}

	// Deterministic selection over the completed slots.
	best := -1
	var (
		nodes    int64
		firstErr error
		proof    time.Time // when the first proving worker returned
	)
	for i := range outcomes {
		out := &outcomes[i]
		if out.err != nil || out.res.Ordering == nil {
			if firstErr == nil && out.err != nil {
				firstErr = out.err
			}
			continue
		}
		if out.res.Exact && (proof.IsZero() || out.end.Before(proof)) {
			proof = out.end
		}
		nodes += out.res.Nodes
		if best < 0 || betterOutcome(out, &outcomes[best]) {
			best = i
		}
	}
	if best < 0 {
		if err := interrupt.Cause(ctx); err != nil {
			return Result{}, err
		}
		if firstErr != nil {
			return Result{}, firstErr
		}
		return Result{}, fmt.Errorf("htd: portfolio produced no result")
	}

	res := outcomes[best].res
	res.Nodes = nodes
	res.Winner = methods[best].String()

	// Every worker bound is a valid lower bound on the true width, and the
	// winning width is a valid upper bound, so the max worker bound never
	// exceeds res.Width; when they meet, optimality is proven even if the
	// winner itself was a heuristic. LowerBoundBy names the method whose
	// bound survived — a losing worker's proof is still a proof (ties keep
	// the winner, then the earlier slot).
	lbBy := best
	for i := range outcomes {
		out := &outcomes[i]
		if out.err != nil || out.res.Ordering == nil {
			continue
		}
		if out.res.LowerBound > outcomes[lbBy].res.LowerBound {
			lbBy = i
		}
	}
	if lb := outcomes[lbBy].res.LowerBound; lb > res.LowerBound {
		res.LowerBound = lb
	}
	if res.LowerBound > 0 {
		res.LowerBoundBy = methods[lbBy].String()
	} else {
		res.LowerBoundBy = ""
	}
	if res.LowerBound == res.Width {
		res.Exact = true
	}

	workers := make([]telemetry.Outcome, nslots)
	for i := range outcomes {
		workers[i] = outcomes[i].attr
	}
	res.Workers = workers
	if !proof.IsZero() {
		sc.engineStats().Observe(telemetry.PortfolioExactToReturnNs, time.Since(proof))
	}
	return res, nil
}

// betterOutcome reports whether a strictly beats b: smaller width first,
// then Exact over heuristic. Equal candidates keep the earlier slot.
func betterOutcome(a, b *portfolioOutcome) bool {
	if a.res.Width != b.res.Width {
		return a.res.Width < b.res.Width
	}
	return a.res.Exact && !b.res.Exact
}
