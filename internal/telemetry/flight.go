// The post-mortem flight recorder: an always-armed "black box" that turns
// a run killed by deadline, cancellation, or panic into a diagnosable
// artifact instead of a blank exit.
//
// A FlightRecorder watches the run's context. When the context dies before
// the run disarms it — or when a panic unwinds through HandlePanic — it
// dumps a bundle directory: the event ring as Chrome trace JSON
// (trace.json), the counters, latency histograms, metadata and incumbent
// timeline as stats.json, a heap profile (heap.pprof), and a full
// goroutine dump (goroutines.txt). RenderBundle turns a bundle back into a
// human-readable summary — top phases by wall time, latency quantiles, the
// incumbent timeline — which is what the `htd report` subcommand prints.
//
// The recorder follows the package contract: arming it never changes
// results, every method is nil-safe, and Dump is idempotent (first trigger
// wins, whether it came from the watcher, the panic handler, or the CLI's
// synchronous error path).
package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Bundle file names, shared by the writer and the renderer.
const (
	BundleStats      = "stats.json"
	BundleTrace      = "trace.json"
	BundleHeap       = "heap.pprof"
	BundleGoroutines = "goroutines.txt"
)

// FlightRecorder dumps a post-mortem bundle when a run dies. Create one
// with NewFlightRecorder, arm it with Watch, and Disarm it when the run
// completes normally. All methods are safe on a nil receiver, so callers
// thread a possibly-nil recorder without guards.
type FlightRecorder struct {
	dir string
	st  *Stats
	tr  *Trace

	mu     sync.Mutex
	meta   map[string]string
	dumped atomic.Bool
	disarm chan struct{}
	once   sync.Once // guards closing disarm
	done   chan struct{}
}

// bundleStats is the stats.json document of a bundle.
type bundleStats struct {
	Reason     string            `json:"reason"` // "deadline" | "cancelled" | "panic" | caller-supplied
	CapturedAt string            `json:"captured_at"`
	Meta       map[string]string `json:"meta,omitempty"`
	Counters   Snapshot          `json:"counters"`
	Incumbents []Incumbent       `json:"incumbents,omitempty"`
	Dropped    int64             `json:"trace_events_dropped,omitempty"`
}

// NewFlightRecorder returns a recorder that will dump into dir (created on
// first dump). st and tr may be nil; the bundle then carries zero counters
// or an empty trace.
func NewFlightRecorder(dir string, st *Stats, tr *Trace) *FlightRecorder {
	return &FlightRecorder{
		dir:    dir,
		st:     st,
		tr:     tr,
		meta:   map[string]string{},
		disarm: make(chan struct{}),
		done:   make(chan struct{}, 1),
	}
}

// SetMeta attaches a key/value to the bundle's stats.json (command line,
// instance name, method…). Safe on nil and for concurrent use.
func (f *FlightRecorder) SetMeta(key, val string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.meta[key] = val
	f.mu.Unlock()
}

// Watch arms the recorder against ctx: if the context dies before Disarm,
// the bundle is dumped with reason "deadline" or "cancelled". Call it once
// after the run's context exists; it returns immediately. Safe on nil.
func (f *FlightRecorder) Watch(ctx context.Context) {
	if f == nil {
		return
	}
	go func() {
		select {
		case <-ctx.Done():
			reason := "cancelled"
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				reason = "deadline"
			}
			_, _ = f.Dump(reason)
		case <-f.disarm:
		}
		select {
		case f.done <- struct{}{}:
		default:
		}
	}()
}

// Disarm tells the watcher the run completed normally; no bundle will be
// dumped by it (an explicit Dump still works). Idempotent, safe on nil.
func (f *FlightRecorder) Disarm() {
	if f == nil {
		return
	}
	f.once.Do(func() { close(f.disarm) })
}

// Sync blocks until the watcher goroutine (if any) has finished its dump
// or observed the disarm, so callers can exit without racing a half-
// written bundle. Call Disarm or cancel the watched context first. Safe on
// nil, returns immediately when Watch never ran.
func (f *FlightRecorder) Sync(timeout time.Duration) {
	if f == nil {
		return
	}
	select {
	case <-f.done:
	case <-time.After(timeout):
	}
}

// HandlePanic is meant for `defer fr.HandlePanic()` at the top of a run:
// on panic it dumps the bundle with the panic value in the metadata, then
// re-panics so the crash (and its stack) still surfaces. A no-op when no
// panic is unwinding. Safe on a nil receiver (the panic propagates
// unchanged).
func (f *FlightRecorder) HandlePanic() {
	r := recover()
	if r == nil {
		return
	}
	if f != nil {
		f.SetMeta("panic", fmt.Sprint(r))
		_, _ = f.Dump("panic")
	}
	panic(r)
}

// Dump writes the bundle now with the given reason and returns the bundle
// directory. Only the first call wins — later triggers (watcher vs panic
// vs CLI error path) return the directory with no error and no rewrite.
// Safe on nil (returns "", nil).
func (f *FlightRecorder) Dump(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	if !f.dumped.CompareAndSwap(false, true) {
		return f.dir, nil
	}
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return f.dir, err
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	f.mu.Lock()
	meta := make(map[string]string, len(f.meta))
	for k, v := range f.meta {
		meta[k] = v
	}
	f.mu.Unlock()
	doc := bundleStats{
		Reason:     reason,
		CapturedAt: time.Now().UTC().Format(time.RFC3339),
		Meta:       meta,
		Counters:   f.st.Snapshot(),
		Incumbents: f.st.Trace(),
		Dropped:    f.tr.Dropped(),
	}
	// The watcher can dump mid-run, before the CLI folds the ring's drop
	// counter into the run Stats — mirror it into the snapshot so every
	// consumer of counters sees it.
	if doc.Counters.TraceDropped == 0 {
		doc.Counters.TraceDropped = doc.Dropped
	}
	keep(writeBundleFile(f.dir, BundleStats, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}))
	keep(writeBundleFile(f.dir, BundleTrace, f.tr.WriteChrome))
	keep(writeBundleFile(f.dir, BundleHeap, pprof.WriteHeapProfile))
	keep(writeBundleFile(f.dir, BundleGoroutines, func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 2)
	}))
	return f.dir, firstErr
}

func writeBundleFile(dir, name string, write func(io.Writer) error) error {
	fh, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// RenderBundle reads a bundle directory and writes a human-readable
// summary: trigger and metadata, the top trace phases by wall time,
// latency quantiles per histogram family, counters, and the incumbent
// timeline. It is what `htd report <bundle>` prints.
func RenderBundle(dir string, w io.Writer) error {
	raw, err := os.ReadFile(filepath.Join(dir, BundleStats))
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	var doc bundleStats
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("bundle: %s: %w", BundleStats, err)
	}

	fmt.Fprintf(w, "post-mortem bundle: %s\n", dir)
	fmt.Fprintf(w, "  trigger:  %s\n", doc.Reason)
	fmt.Fprintf(w, "  captured: %s\n", doc.CapturedAt)
	for _, k := range sortedKeys(doc.Meta) {
		fmt.Fprintf(w, "  %-9s %s\n", k+":", doc.Meta[k])
	}
	if doc.Dropped > 0 {
		fmt.Fprintf(w, "  note: trace ring wrapped, oldest %d events lost\n", doc.Dropped)
	}

	// Attribution sections (absent from pre-phase-clock bundles, whose
	// snapshots decode these fields as zero and render nothing).
	writePhaseSection(w, phaseReports(doc.Counters, 0), 0, 0)
	writeRuleSection(w, ruleReports(doc.Counters))
	writeBoundSection(w, boundReport(doc.Counters))

	if phases, err := bundlePhases(dir); err == nil && len(phases) > 0 {
		fmt.Fprintf(w, "\ntop phases by wall time:\n")
		for i, p := range phases {
			if i >= 10 {
				break
			}
			fmt.Fprintf(w, "  %-28s %10.3fms  ×%d\n", p.name, p.total/1e3, p.count)
		}
	} else if err != nil {
		fmt.Fprintf(w, "\n(no trace: %v)\n", err)
	}

	fmt.Fprintf(w, "\nlatency quantiles:\n")
	quantRows := 0
	for i := range table {
		m := &table[i]
		if m.kind != kindLatency {
			continue
		}
		hs := *m.hist(&doc.Counters)
		if hs.Count == 0 {
			continue
		}
		quantRows++
		fmt.Fprintf(w, "  %-20s n=%-8d p50=%-10s p95=%-10s p99=%-10s mean=%s\n",
			m.stem(), hs.Count,
			fmtNs(hs.P50()), fmtNs(hs.P95()), fmtNs(hs.P99()), fmtNs(hs.Mean()))
	}
	if quantRows == 0 {
		fmt.Fprintf(w, "  (no latency observations)\n")
	}

	fmt.Fprintf(w, "\ncounters (non-zero):\n")
	counterRows := 0
	for i := range table {
		if m := &table[i]; m.scalar() && *m.val(&doc.Counters) != 0 {
			counterRows++
			fam, _ := m.family()
			fmt.Fprintf(w, "  %-32s %d\n", fam, *m.val(&doc.Counters))
		}
	}
	if counterRows == 0 {
		fmt.Fprintf(w, "  (all zero)\n")
	}

	if len(doc.Incumbents) > 0 {
		fmt.Fprintf(w, "\nincumbent timeline:\n")
		for _, inc := range doc.Incumbents {
			fmt.Fprintf(w, "  %10.3fms  width %-4d (%s)\n",
				float64(inc.Elapsed.Nanoseconds())/1e6, inc.Width, inc.Method)
		}
	}

	if g, err := os.ReadFile(filepath.Join(dir, BundleGoroutines)); err == nil {
		fmt.Fprintf(w, "\ngoroutines at capture: %d (%s)\n",
			strings.Count(string(g), "goroutine "), BundleGoroutines)
	}
	return nil
}

// phaseTotal aggregates one span name's wall time across a bundle trace.
type phaseTotal struct {
	name  string
	total float64 // microseconds
	count int
}

// bundlePhases parses the bundle's Chrome trace and totals B/E span wall
// time per name, longest first. Instants and counters are skipped.
func bundlePhases(dir string) ([]phaseTotal, error) {
	raw, err := os.ReadFile(filepath.Join(dir, BundleTrace))
	if err != nil {
		return nil, err
	}
	var doc chromeDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", BundleTrace, err)
	}
	totals := map[string]*phaseTotal{}
	type openSpan struct {
		name string
		ts   float64
	}
	open := map[int][]openSpan{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			open[e.Tid] = append(open[e.Tid], openSpan{e.Name, e.Ts})
		case "E":
			stack := open[e.Tid]
			if len(stack) == 0 {
				continue
			}
			s := stack[len(stack)-1]
			open[e.Tid] = stack[:len(stack)-1]
			t := totals[s.name]
			if t == nil {
				t = &phaseTotal{name: s.name}
				totals[s.name] = t
			}
			t.total += e.Ts - s.ts
			t.count++
		}
	}
	out := make([]phaseTotal, 0, len(totals))
	for _, t := range totals {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].total != out[j].total {
			return out[i].total > out[j].total
		}
		return out[i].name < out[j].name
	})
	return out, nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtNs renders a nanosecond quantity with an adaptive unit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
