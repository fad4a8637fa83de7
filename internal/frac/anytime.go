// Context-aware anytime fhw engine: width evaluation with interrupt
// polling, insertion-move local search (the ISM neighbourhood of the
// thesis's GA), and a parallel multi-start search whose workers share one
// cover-oracle frac memo. Deadline or cancellation returns the best
// incumbent with Complete=false and a nil error; an error is returned only
// when cancellation beat the first incumbent.

package frac

import (
	"context"
	"math"
	"math/rand"
	"sync"

	"hypertree/internal/bitset"
	"hypertree/internal/cover"
	"hypertree/internal/elim"
	"hypertree/internal/heur"
	"hypertree/internal/hypergraph"
	"hypertree/internal/interrupt"
	"hypertree/internal/order"
	"hypertree/internal/telemetry"
)

// DefaultRounds is the local-search round budget per worker when
// Options.Rounds is zero.
const DefaultRounds = 50

// seedStride separates per-worker rng streams, like the portfolio's.
const seedStride = 7919

// Options configures the anytime fhw engine.
type Options struct {
	// Seed drives the min-fill tie-breaking and every worker's move rng
	// (worker i derives Seed + i·seedStride).
	Seed int64
	// Rounds is the local-search round budget per worker (0 = DefaultRounds).
	Rounds int
	// Jobs is the number of parallel local-search workers (≤ 1 = one). The
	// result is deterministic for any fixed Jobs value: worker trajectories
	// are independent (the oracle's determinism contract) and the reduction
	// prefers lower width, then lower slot.
	Jobs int
	// Oracle, when non-nil, is the shared cover oracle whose frac memo the
	// run populates and probes (nil = a private one). Sharing it with the
	// ghw engines is the point: fhw local search and the fractional search
	// bound intern the same {v} ∪ N(v) bags.
	Oracle *cover.Oracle
	// Stats, when non-nil, receives heuristic-step counters (the oracle's
	// own counters are folded in by the facade once per run).
	Stats *telemetry.Stats
	// OnIncumbent, when non-nil, fires on each strict improvement of the
	// fractional width, including the initial evaluation. Called
	// synchronously on the search path (concurrently under Jobs > 1), so it
	// must be cheap and concurrency-safe.
	OnIncumbent func(width float64)
	// Trace, when non-nil, receives fhw.incumbent instants and sampled
	// fhw.batch pulses on the Track timeline.
	Trace *telemetry.Trace
	// Track is the trace timeline this run emits on.
	Track int
}

// incumbent reports a new best fractional width, tolerating an unset hook.
func (o *Options) incumbent(w float64) {
	if o.OnIncumbent != nil {
		o.OnIncumbent(w)
	}
}

// Result is the outcome of an anytime fhw run.
type Result struct {
	// Width is the best fractional width found (an fhw upper bound).
	Width float64
	// Ordering is an elimination ordering achieving Width.
	Ordering order.Ordering
	// Complete reports whether every worker ran its full round budget —
	// false after a deadline or cancellation truncated the run. fhw local
	// search never proves optimality, so Complete does NOT claim
	// Width = fhw(H).
	Complete bool
	// Rounds is the number of local-search rounds completed, summed over
	// workers.
	Rounds int
	// Workers is the number of local-search workers that ran.
	Workers int
}

// evaluator bundles the shared pieces of ordering-width evaluation: the
// oracle answering ρ* queries, a reusable bag buffer, and the caller's
// phase clock (nil = no attribution), which the oracle charges its LP
// and probe time to.
type evaluator struct {
	orc *cover.Oracle
	bag *bitset.Set
	st  *telemetry.Stats
}

func newEvaluator(h *hypergraph.Hypergraph, orc *cover.Oracle, st *telemetry.Stats) *evaluator {
	if orc == nil {
		orc = cover.New(h, cover.Options{})
	}
	return &evaluator{orc: orc, bag: bitset.New(h.NumVertices()), st: st}
}

// widthOn evaluates the fractional width of ordering o on g, restoring g
// before returning. chk may be nil (no cancellation). When limit > 0 the
// evaluation aborts as soon as the running maximum reaches limit — the
// returned value is then only guaranteed to be ≥ limit, which is all the
// local-search acceptance test needs. An LP failure degrades the affected
// bag to its deterministic greedy integral cover (≥ ρ*), keeping the
// result a valid upper bound instead of failing the run.
func widthOn(ctx context.Context, g *elim.Graph, chk *interrupt.Checker, ev *evaluator, o order.Ordering, limit float64) (float64, error) {
	depth := g.Depth()
	defer g.RestoreTo(depth)
	w := 0.0
	for _, v := range o {
		if chk != nil && chk.Stop() {
			return w, interrupt.Cause(ctx)
		}
		ev.bag.CopyFrom(g.Neighbors(v))
		ev.bag.Add(v)
		val, err := ev.orc.FracValue(ev.bag, ev.st)
		if err != nil {
			val = float64(ev.orc.GreedySize(ev.bag, ev.st))
		}
		if val > w {
			w = val
			if limit > 0 && w >= limit {
				return w, nil
			}
		}
		g.Eliminate(v)
	}
	return w, nil
}

// LocalSearchCtx improves an fhw upper bound by hill-climbing over
// orderings with insertion moves under the anytime contract: a deadline
// mid-run returns the incumbent with Complete=false and a nil error; an
// error is returned only when the initial evaluation (the first
// incumbent) was cancelled, or start is invalid. The width landscape is a
// max over bags, so most moves leave it unchanged: equal-width moves are
// accepted as plateau drift (or the search would stall at the seed's
// local optimum), while the reported incumbent only ever improves
// strictly.
func LocalSearchCtx(ctx context.Context, h *hypergraph.Hypergraph, start order.Ordering, opt Options) (Result, error) {
	if err := start.Validate(h.NumVertices()); err != nil {
		return Result{}, err
	}
	rounds := opt.Rounds
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	// The local-search loop is branch-expansion time; LP and probe time
	// self-attributes inside via the evaluator's clock. Under Jobs > 1 the
	// workers share one Stats, so concurrent windows under-attribute (each
	// subtracts everyone's LP deltas) — safe for the phases-sum-≤-wall
	// property, and exact at Jobs = 1.
	mark := opt.Stats.MarkPhase()
	defer opt.Stats.AttributeSince(telemetry.PhaseBranch, mark)
	ev := newEvaluator(h, opt.Oracle, opt.Stats)
	chk := interrupt.New(ctx, 1)
	g := elim.New(h.PrimalGraph())
	rng := rand.New(rand.NewSource(opt.Seed))

	cur := start.Clone()
	curW, err := widthOn(ctx, g, chk, ev, cur, 0)
	if err != nil {
		return Result{}, err
	}
	opt.incumbent(curW)
	traceIncumbent(&opt, 0, curW)
	res := Result{Width: curW, Ordering: cur, Workers: 1}
	n := len(cur)
	if n < 2 {
		res.Complete = true
		return res, nil
	}
	for r := 0; r < rounds; r++ {
		if chk.Stop() {
			return res, nil // truncated: Complete stays false
		}
		// Insertion move: remove a random element, reinsert elsewhere.
		cand := cur.Clone()
		i := rng.Intn(n)
		j := rng.Intn(n)
		v := cand[i]
		cand = append(cand[:i], cand[i+1:]...)
		cand = append(cand[:j], append(order.Ordering{v}, cand[j:]...)...)
		w, err := widthOn(ctx, g, chk, ev, cand, curW+1e-12)
		if err != nil {
			return res, nil // truncated mid-evaluation
		}
		res.Rounds = r + 1
		if w < curW-1e-12 {
			cur, curW = cand, w
			res.Width, res.Ordering = curW, cur
			opt.incumbent(curW)
			traceIncumbent(&opt, r+1, curW)
		} else if w < curW+1e-12 {
			cur = cand // plateau drift: same width, new neighbourhood
		}
		if opt.Trace != nil && (r+1)&15 == 0 {
			opt.Trace.Instant(opt.Track, "fhw.batch",
				telemetry.Arg{Key: "round", Val: int64(r + 1)},
				telemetry.Arg{Key: "width_milli", Val: int64(curW * 1000)})
		}
	}
	res.Complete = true
	return res, nil
}

// traceIncumbent emits an fhw.incumbent instant (widths ride as
// milli-units: trace args are integers).
func traceIncumbent(opt *Options, round int, w float64) {
	if opt.Trace != nil {
		opt.Trace.Instant(opt.Track, "fhw.incumbent",
			telemetry.Arg{Key: "round", Val: int64(round)},
			telemetry.Arg{Key: "width_milli", Val: int64(w * 1000)})
	}
}

// SearchCtx is the fhw engine entry point: a min-fill seed ordering
// followed by Jobs parallel local-search workers sharing one oracle frac
// memo, reduced deterministically (lowest width, ties to the lowest
// worker slot). The anytime contract matches LocalSearchCtx's; an error
// is returned only when cancellation beat every worker's first incumbent
// (or the seed heuristic itself).
func SearchCtx(ctx context.Context, h *hypergraph.Hypergraph, opt Options) (Result, error) {
	if h.NumVertices() == 0 {
		return Result{Ordering: order.Ordering{}, Complete: true, Workers: 1}, nil
	}
	orc := opt.Oracle
	if orc == nil {
		orc = cover.New(h, cover.Options{})
	}
	jobs := opt.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	if opt.Trace != nil {
		opt.Trace.Begin(opt.Track, "fhw.search")
		defer opt.Trace.End(opt.Track, "fhw.search")
	}
	start, _, err := heur.MinFillCtxStats(ctx, elim.New(h.PrimalGraph()), rand.New(rand.NewSource(opt.Seed)), opt.Stats)
	if err != nil {
		return Result{}, err
	}

	// Monotone shared incumbent stream: workers race, the hook only sees
	// strict global improvements (in timing-dependent order, like the
	// portfolio's).
	var mu sync.Mutex
	bestSeen := math.Inf(1)
	report := func(w float64) {
		if opt.OnIncumbent == nil {
			return
		}
		mu.Lock()
		improved := w < bestSeen-1e-12
		if improved {
			bestSeen = w
		}
		mu.Unlock()
		if improved {
			opt.OnIncumbent(w)
		}
	}

	results := make([]Result, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wopt := opt
		wopt.Oracle = orc
		wopt.Seed = opt.Seed + int64(i)*seedStride
		wopt.OnIncumbent = report
		wg.Add(1)
		go func(i int, wopt Options) {
			defer wg.Done()
			results[i], errs[i] = LocalSearchCtx(ctx, h, order.Ordering(start), wopt)
		}(i, wopt)
	}
	wg.Wait()

	out := Result{Workers: jobs, Complete: true}
	found := false
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			out.Complete = false
			continue
		}
		r := results[i]
		out.Rounds += r.Rounds
		if !r.Complete {
			out.Complete = false
		}
		if !found || r.Width < out.Width-1e-12 {
			found = true
			out.Width, out.Ordering = r.Width, r.Ordering
		}
	}
	if !found {
		for _, e := range errs {
			if e != nil {
				return Result{}, e
			}
		}
	}
	return out, nil
}

// LocalSearch improves an fhw upper bound for the given number of rounds
// (context-free compatibility wrapper; panics only on an invalid start).
func LocalSearch(h *hypergraph.Hypergraph, start order.Ordering, rounds int, seed int64) (float64, order.Ordering) {
	res, err := LocalSearchCtx(context.Background(), h, start, Options{Seed: seed, Rounds: rounds})
	if err != nil {
		panic(err) // only reachable via an invalid start: Background never cancels
	}
	return res.Width, res.Ordering
}
