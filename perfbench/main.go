// Command perfbench is the repository benchmark. It drives the hypertree
// library through its public entry points on one named workload, checks
// every output against a reference computed another way, and prints the
// end-to-end metrics, or with --trace 1 the per-layer split, as one JSON
// object on the last line of standard output:
//
//	perfbench --workload decompose_small --seed 1 --seconds 10 --trace 0
//
// Load comes from one caller in a closed loop: the next op starts when the
// previous one has returned. No op runs under a deadline. README.md lists
// the workloads, the metrics and which layer each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"hypertree"
)

// An untraced run builds its inputs and warms up setupReps to maxSetups
// times, as many as fit in setupShare of its budget at the first set-up's
// cost; setup_s is the median. The first set-up is the one the timed loop
// uses. The others run between its cycles, spread evenly over the loop,
// so that a burst of outside load moves one of them, not all.
const (
	setupReps  = 9
	maxSetups  = 25
	setupShare = 0.1
)

// segments is the number of consecutive parts of the timed loop whose
// median is reported; each part holds at least 100 ops on every workload,
// so its p90 has at least ten samples beyond it.
const segments = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed: relabellings, databases and the delta stream")
	seconds := flag.Float64("seconds", 10, "op time one timed loop measures, rounded up to whole cycles")
	trace := flag.Int("trace", 0, "1 = report the per-layer split of a traced loop instead")
	flag.Parse()
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-44s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// run sets the workload up, runs the untimed reference computation, then
// the timed loop: untraced for the end-to-end metrics, or traced cycles
// paired with untraced ones for the per-layer split.
func run(name string, seed int64, budget time.Duration, traced bool) (*result, error) {
	build, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	// setUp builds the inputs and runs the warm-up pass from a collected
	// heap, and records how long that took.
	var setups []float64
	setUp := func() (*bench, error) {
		runtime.GC()
		t0 := time.Now()
		b, err := build(seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := b.warm(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return b, nil
	}
	b, err := setUp()
	if err != nil {
		return nil, err
	}
	if b.references != nil {
		if err := b.references(); err != nil {
			return nil, fmt.Errorf("references: %w", err)
		}
	}
	if traced {
		return tracedRun(name, seed, b, budget)
	}

	// A set-up between cycles runs beside the loop's own instance. Its
	// memory goes back to the operating system before the next cycle, so
	// that peak_mem_mb sees one instance.
	reps := min(maxSetups, max(setupReps, int(setupShare*budget.Seconds()/setups[0])))
	base, err := b.loop(budget, reps-1, func() error {
		if _, err := setUp(); err != nil {
			return err
		}
		debug.FreeOSMemory()
		return nil
	})
	if err != nil {
		return nil, err
	}
	base.report(b)
	res := &result{Attempted: len(base.samples), Failed: base.failed, Correct: base.failed == 0, Metrics: map[string]metric{}}
	// Throughput and latency quantiles are medians over segments of the
	// loop, so a burst of interference from outside the process moves one
	// segment, not the reported value.
	var ops, p50, p90, mem []float64
	for _, s := range base.segments(segments) {
		lat := s.latenciesMs()
		ops = append(ops, float64(len(s.samples))/s.wallTime().Seconds())
		p50 = append(p50, quantile(lat, 0.50))
		p90 = append(p90, quantile(lat, 0.90))
		mem = append(mem, slices.Max(s.peakMB))
	}
	fmt.Fprintf(os.Stderr, "per segment: ops/s %.4g\n  p50 ms %.4g\n  p90 ms %.4g\n  peak MB %.4g\n", ops, p50, p90, mem)
	res.Metrics["ops_per_s"] = metric{quantile(ops, 0.5), "1/s"}
	res.Metrics["latency_ms.p50"] = metric{quantile(p50, 0.5), "ms"}
	res.Metrics["latency_ms.p90"] = metric{quantile(p90, 0.5), "ms"}
	res.Metrics["setup_s"] = metric{quantile(setups, 0.50), "s"}
	res.Metrics["ok_frac"] = metric{1 - float64(base.failed)/float64(len(base.samples)), "frac"}
	res.Metrics["peak_mem_mb"] = metric{quantile(mem, 0.5), "MB"}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops in %d cycles, %d set-ups, process peak RSS %.1f MB\n", name, seed, len(base.samples), base.cycles(), len(setups), peakRSSMB())
	return res, nil
}

// tracedRun runs pairs of cycles until the untraced halves' busy time
// reaches budget. Each pair runs the same cycle once untraced and once
// with a fresh Stats per op (and an Observer on portfolio ops), in an
// order that alternates from pair to pair. A stateful workload runs its
// traced halves on a twin instance fed the same op sequence.
func tracedRun(name string, seed int64, b *bench, budget time.Duration) (*result, error) {
	agg := newLayerAgg()
	tb := b
	if b.twin != nil {
		agg.shared = new(htd.Stats)
		nb, err := b.twin(agg.shared)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		if err := nb.warm(); err != nil {
			return nil, fmt.Errorf("traced warm-up: %w", err)
		}
		tb = nb
		agg.sharedBase = agg.shared.Snapshot()
	}
	var plain, tl loopResult
	var rt rtSample
	for c := 0; plain.busy < budget; c++ {
		var u, t time.Duration
		if c%2 == 0 {
			u = b.cycle(c, &plain, nil, &rt)
			t = tb.cycle(c, &tl, agg, nil)
		} else {
			t = tb.cycle(c, &tl, agg, nil)
			u = b.cycle(c, &plain, nil, &rt)
		}
		agg.overhead = append(agg.overhead, t.Seconds()/u.Seconds())
	}
	tl.report(tb)
	if tb.extra != nil {
		if err := tb.extra(agg); err != nil {
			return nil, fmt.Errorf("traced extra: %w", err)
		}
	}
	if err := agg.tr.write(name, seed); err != nil {
		return nil, err
	}
	failed := plain.failed + tl.failed
	res := &result{Attempted: len(plain.samples) + len(tl.samples), Failed: failed, Correct: failed == 0, Metrics: map[string]metric{}}
	agg.metrics(res.Metrics, plain, tl, rt)
	return res, nil
}

// peakRSSMB is the process's resident-set high-water mark in MB, printed
// beside the metrics for reference.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile interpolates linearly between the closest ranks of xs (sorted
// in place); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
