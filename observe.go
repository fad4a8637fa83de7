// Observation plumbing: how Options.Stats / Options.Observer reach the
// engines. A scope bundles the per-run state — the counter sink the
// engines write into, the shared trace/clock holder, and the observer —
// and a nil *scope is the fully-disabled fast path: every method below is
// nil-safe, so the engines receive nil sinks and nil hooks and pay one
// nil check per instrumentation point.
//
// In a portfolio run each worker gets a scope of its own (for per-worker
// counters and method attribution) that shares the parent's trace, clock
// and observer, so the anytime incumbent trace stays monotone across
// concurrently racing methods.
package htd

import (
	"fmt"
	"sync"

	"hypertree/internal/search"
	"hypertree/internal/telemetry"
)

// Telemetry types, re-exported from internal/telemetry.
type (
	// Stats accumulates live telemetry counters and the anytime incumbent
	// trace of a run; attach one via Options.Stats. The zero value is
	// ready to use and safe for concurrent portfolio workers.
	Stats = telemetry.Stats
	// StatsSnapshot is a plain-integer copy of the counters (JSON-ready).
	StatsSnapshot = telemetry.Snapshot
	// Incumbent is one point of the anytime trace: elapsed, width, method.
	Incumbent = telemetry.Incumbent
	// Phase marks a method starting or finishing.
	Phase = telemetry.Phase
	// PortfolioOutcome reports one finished portfolio worker.
	PortfolioOutcome = telemetry.Outcome
	// Observer bundles progress hooks; attach one via Options.Observer.
	// Hooks may fire concurrently from portfolio worker goroutines.
	Observer = telemetry.Observer
	// Trace is a bounded ring of structured timeline events (spans and
	// instants, one track per portfolio worker); attach one via
	// Options.Trace and export it with WriteChrome. Safe for concurrent
	// use; a nil *Trace discards everything at one nil check per point.
	Trace = telemetry.Trace
	// TraceArg is one key/value annotation of a trace event.
	TraceArg = telemetry.Arg
	// TraceEvent is one recorded trace event.
	TraceEvent = telemetry.Event
)

// NewTrace returns a trace whose event ring holds up to capacity events
// (a default of 65536 when capacity <= 0).
var NewTrace = telemetry.NewTrace

// scope is the observation state of one run or one portfolio worker.
type scope struct {
	stats  *telemetry.Stats // engine counter sink (per worker in a portfolio)
	root   *telemetry.Stats // incumbent trace + clock holder, shared across workers
	obs    *telemetry.Observer
	trace  *telemetry.Trace // structured event ring, shared across workers
	track  int              // this scope's trace timeline (0 = run, worker slot+1)
	method Method
	first  sync.Once // gates the scope's time-to-first-incumbent observation
}

// newScope derives the run's observation scope from the options, or nil
// when telemetry is fully disabled. Observer- or trace-only runs get a
// private Stats so incumbent events still share one clock and one
// monotone trace.
func newScope(opt Options) *scope {
	if opt.Stats == nil && opt.Observer == nil && opt.Trace == nil {
		return nil
	}
	st := opt.Stats
	if st == nil {
		st = new(telemetry.Stats)
	}
	st.Start()
	return &scope{stats: st, root: st, obs: opt.Observer, trace: opt.Trace, method: opt.Method}
}

// worker derives the scope of portfolio slot i running method m: fresh
// counters, shared trace/clock/observer; trace events land on timeline
// slot+1 (track 0 stays the run's own).
func (sc *scope) worker(i int, m Method) *scope {
	if sc == nil {
		return nil
	}
	w := &scope{stats: new(telemetry.Stats), root: sc.root, obs: sc.obs, trace: sc.trace, track: i + 1, method: m}
	w.trace.SetTrackName(w.track, fmt.Sprintf("worker %d: %s", i, m))
	return w
}

// traceRef returns the shared event ring (nil when disabled).
func (sc *scope) traceRef() *telemetry.Trace {
	if sc == nil {
		return nil
	}
	return sc.trace
}

// trackID returns this scope's trace timeline (0 when disabled).
func (sc *scope) trackID() int {
	if sc == nil {
		return 0
	}
	return sc.track
}

// engineStats returns the counter sink to hand to an engine (nil when
// disabled).
func (sc *scope) engineStats() *telemetry.Stats {
	if sc == nil {
		return nil
	}
	return sc.stats
}

// incumbentHook returns the engine-level incumbent callback: it records
// the improvement on the shared monotone trace and forwards the recorded
// point to the observer. Returns nil when disabled, so engines skip the
// call entirely.
func (sc *scope) incumbentHook() func(width int) {
	if sc == nil {
		return nil
	}
	method := sc.method.String()
	track := sc.track
	return func(w int) {
		// Time-to-first-incumbent, measured against the shared run clock and
		// recorded on the scope's own counters (per worker in a portfolio),
		// regardless of whether this width improves the global incumbent —
		// each worker's anytime behaviour is its own distribution point.
		sc.first.Do(func() {
			sc.stats.Observe(telemetry.FirstIncumbentNs, sc.root.Elapsed())
		})
		if inc, ok := sc.root.RecordIncumbent(w, method); ok {
			sc.obs.Incumbent(inc)
			sc.trace.Instant(track, "incumbent",
				telemetry.Arg{Key: "width", Val: int64(w)})
		}
	}
}

// phase emits a phase event for this scope's method. The start/done pair
// every method emits doubles as a span on the scope's trace track, so the
// timeline shows one bar per method run without extra call sites.
func (sc *scope) phase(name string) {
	if sc == nil {
		return
	}
	switch name {
	case "start":
		sc.trace.Begin(sc.track, sc.method.String())
	case "done":
		sc.trace.End(sc.track, sc.method.String())
	}
	sc.obs.Phase(telemetry.Phase{Method: sc.method.String(), Name: name, Elapsed: sc.root.Elapsed()})
}

// outcome emits a portfolio worker outcome event.
func (sc *scope) outcome(out telemetry.Outcome) {
	if sc == nil {
		return
	}
	sc.obs.PortfolioOutcome(out)
}

// snapshot reads this scope's counters (zero when disabled).
func (sc *scope) snapshot() telemetry.Snapshot {
	if sc == nil {
		return telemetry.Snapshot{}
	}
	return sc.stats.Snapshot()
}

// absorb folds a finished worker's counters into this (parent) scope.
func (sc *scope) absorb(b telemetry.Snapshot) {
	if sc == nil {
		return
	}
	sc.stats.AddSnapshot(b)
}

// searchOptions builds the engine-level search options with this scope's
// telemetry attached.
func (sc *scope) searchOptions(opt Options) search.Options {
	return search.Options{
		MaxNodes:    opt.MaxNodes,
		Seed:        opt.Seed,
		FracBound:   opt.FracBound,
		Stats:       sc.engineStats(),
		OnIncumbent: sc.incumbentHook(),
		Trace:       sc.traceRef(),
		Track:       sc.trackID(),
	}
}
