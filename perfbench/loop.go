package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"hypertree"
)

// op is one timed call into the library. It returns the correctness check
// for its output, which the loop runs after the cycle's last timed call. p
// is nil in untraced runs.
type op func(ctx context.Context, p *probe) (check func() error, err error)

// Op kinds group templates for the per-layer denominators.
const (
	kindPortfolio = "portfolio"
	kindSearch    = "search"
	kindFHW       = "fhw"
	kindBalSep    = "balsep"
	kindQuery     = "query"
	kindDelta     = "delta"
)

// template is one input class of a workload mix.
type template struct {
	name   string
	kind   string
	weight int            // occurrences per cycle
	next   func(i int) op // the op of the template's i-th occurrence in a loop
}

// bench is a workload after set-up: its mix and hooks.
type bench struct {
	templates []template
	// openWarms means the set-up itself is the warm-up pass, so no cycle
	// runs before the loop.
	openWarms bool
	// references computes the check references once, after set-up and
	// outside every timed interval.
	references func() error
	// endCycle runs after each cycle's checks, outside the timed calls.
	endCycle func() error
	// twin builds a second instance of a stateful workload from the same
	// seed with st attached. The traced run feeds both instances the same
	// op sequence, one traced and one not.
	twin func(st *htd.Stats) (*bench, error)
	// extra takes traced-only measurements after the traced loop.
	extra func(agg *layerAgg) error
}

func (b *bench) add(t template) { b.templates = append(b.templates, t) }

// planned is one op of a cycle, built before the cycle's timed calls.
type planned struct {
	tmpl int
	run  op
}

// plan builds the ops of cycle c. Templates interleave round-robin by
// weight, and the j-th occurrence of a template in cycle c is its
// occurrence c*weight+j, so building the same cycle twice gives the same
// inputs.
func (b *bench) plan(c int) []planned {
	var ops []planned
	for r := 0; ; r++ {
		added := false
		for i, t := range b.templates {
			if t.weight <= r {
				continue
			}
			ops = append(ops, planned{i, t.next(c*t.weight + r)})
			added = true
		}
		if !added {
			return ops
		}
	}
}

// warm runs the warm-up pass, unchecked: one untimed cycle that fills
// caches and finishes lazy set-up before the clock starts.
func (b *bench) warm() error {
	if b.openWarms {
		return nil
	}
	for _, p := range b.plan(0) {
		if _, err := p.run(context.Background(), nil); err != nil {
			return fmt.Errorf("%s: %w", b.templates[p.tmpl].name, err)
		}
	}
	return nil
}

type sample struct {
	tmpl, cycle int
	lat         time.Duration
	failed      bool
}

type loopResult struct {
	samples []sample
	wall    []time.Duration // per cycle: first timed call's start to last one's end
	peakMB  []float64       // per cycle: the most memory held after any of its calls
	busy    time.Duration   // Σ op latency
	failed  int
}

func (lr *loopResult) cycles() int { return len(lr.wall) }

// cycle runs cycle c of the mix and appends its samples to lr. It builds
// the cycle's inputs and collects the garbage before the first timed
// call, then runs the timed calls back to back, and checks the outputs
// after the last one, so no timed call pays for the benchmark's own
// allocations. agg is nil for an untraced cycle; rt, when set, accumulates
// the runtime counters of the timed calls. It returns the cycle's busy time.
func (b *bench) cycle(c int, lr *loopResult, agg *layerAgg, rt *rtSample) time.Duration {
	ctx := context.Background()
	ops := b.plan(c)
	checks := make([]func() error, len(ops))
	errs := make([]error, len(ops))
	first := len(lr.samples)
	runtime.GC()
	var r0 rtSample
	if rt != nil {
		r0 = readRuntime()
	}
	var busy time.Duration
	var peak float64
	start := time.Now()
	for i, o := range ops {
		t := b.templates[o.tmpl]
		p := agg.probe(t)
		t0 := time.Now()
		checks[i], errs[i] = o.run(ctx, p)
		lat := time.Since(t0)
		peak = max(peak, heldMB())
		agg.done(p)
		lr.samples = append(lr.samples, sample{tmpl: o.tmpl, cycle: c, lat: lat})
		busy += lat
	}
	lr.wall = append(lr.wall, time.Since(start))
	lr.peakMB = append(lr.peakMB, peak)
	if rt != nil {
		*rt = rt.add(readRuntime().sub(r0))
	}
	lr.busy += busy
	for i, o := range ops {
		err := errs[i]
		if err == nil && checks[i] != nil {
			err = checks[i]()
		}
		if err != nil {
			lr.samples[first+i].failed = true
			lr.fail(fmt.Errorf("%s: %w", b.templates[o.tmpl].name, err))
		}
	}
	if b.endCycle != nil {
		if err := b.endCycle(); err != nil {
			// A wrong state after the cycle fails every op of the cycle.
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: cycle %d: %v\n", c, err)
			for i := first; i < len(lr.samples); i++ {
				if !lr.samples[i].failed {
					lr.samples[i].failed = true
					lr.failed++
				}
			}
		}
	}
	return busy
}

// loop runs whole cycles of the mix until the ops' busy time reaches
// budget. It calls between n times, off the clock, once the busy time
// first reaches each k/(n+1) of budget.
func (b *bench) loop(budget time.Duration, n int, between func() error) (loopResult, error) {
	var lr loopResult
	k := 1
	for c := 0; lr.busy < budget; c++ {
		b.cycle(c, &lr, nil, nil)
		for ; k <= n && lr.busy >= budget*time.Duration(k)/time.Duration(n+1); k++ {
			if err := between(); err != nil {
				return lr, err
			}
		}
	}
	return lr, nil
}

// fail counts one failed op and prints the first few causes.
func (lr *loopResult) fail(err error) {
	lr.failed++
	if lr.failed <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
}

// segments splits the loop into n runs of whole consecutive cycles (fewer
// when the loop ran fewer cycles).
func (lr loopResult) segments(n int) []loopResult {
	cycles := lr.cycles()
	if cycles < n {
		n = cycles
	}
	segs := make([]loopResult, n)
	for c, w := range lr.wall {
		seg := &segs[c*n/cycles]
		seg.wall = append(seg.wall, w)
		seg.peakMB = append(seg.peakMB, lr.peakMB[c])
	}
	for _, s := range lr.samples {
		seg := &segs[s.cycle*n/cycles]
		seg.samples = append(seg.samples, s)
	}
	return segs
}

// wallTime is the summed wall time of the loop's timed blocks.
func (lr loopResult) wallTime() time.Duration {
	var d time.Duration
	for _, w := range lr.wall {
		d += w
	}
	return d
}

func (lr loopResult) latenciesMs() []float64 {
	out := make([]float64, len(lr.samples))
	for i, s := range lr.samples {
		out[i] = msOf(s.lat)
	}
	return out
}

// report prints per-template latency quantiles to stderr, the view for
// placing the mix's quantiles inside a latency mode.
func (lr loopResult) report(b *bench) {
	per := make([][]float64, len(b.templates))
	for _, s := range lr.samples {
		per[s.tmpl] = append(per[s.tmpl], msOf(s.lat))
	}
	all := lr.latenciesMs()
	fmt.Fprintf(os.Stderr, "%-24s %6s %9s %9s %9s\n", "template", "ops", "p10_ms", "p50_ms", "p90_ms")
	for i, t := range b.templates {
		xs := per[i]
		fmt.Fprintf(os.Stderr, "%-24s %6d %9.3f %9.3f %9.3f\n", t.name, len(xs), quantile(xs, 0.1), quantile(xs, 0.5), quantile(xs, 0.9))
	}
	fmt.Fprintf(os.Stderr, "%-24s %6d %9.3f %9.3f %9.3f  busy %.3fs\n", "ALL", len(all), quantile(all, 0.1), quantile(all, 0.5), quantile(all, 0.9), lr.busy.Seconds())
}
