// Integration tests of the structured tracing layer through the public
// API: a traced portfolio GHW run must export a valid Chrome trace-event
// document (per-worker tracks, balanced spans, cover-oracle pulses), the
// ring must bound memory on long runs, and trace + memory sampler must be
// race-clean under concurrent portfolio workers.
package htd

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hypertree/internal/gen"
	"hypertree/internal/telemetry"
)

// decodeChrome unmarshals a Chrome trace-event export and asserts the
// structural invariants every consumer (Perfetto, chrome://tracing)
// relies on: monotone timestamps and per-tid B/E balance.
func decodeChrome(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	depth := map[float64]int{}
	lastTs := -1.0
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		if ph == "M" {
			continue
		}
		ts, ok := e["ts"].(float64)
		if !ok {
			t.Fatalf("event without ts: %v", e)
		}
		if ts < lastTs {
			t.Errorf("timestamps not monotone: %v after %v (%v)", ts, lastTs, e["name"])
		}
		lastTs = ts
		tid, _ := e["tid"].(float64)
		switch ph {
		case "B":
			depth[tid]++
		case "E":
			depth[tid]--
			if depth[tid] < 0 {
				t.Errorf("tid %v: E without open B", tid)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("tid %v: %d spans left open after export", tid, d)
		}
	}
	return doc.TraceEvents
}

// TestTraceChromeExportGolden is the tracing acceptance criterion: a
// traced portfolio GHW run exports a Chrome document with one named track
// per worker, balanced spans, and at least one cover-oracle event.
func TestTraceChromeExportGolden(t *testing.T) {
	h := gen.Grid2DHypergraph(4, 4)
	opt := oracleOpts(MethodPortfolio, 5)
	opt.Stats = new(Stats)
	opt.Trace = NewTrace(0)
	if _, err := GHW(h, opt); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := opt.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	events := decodeChrome(t, buf.Bytes())
	if len(events) == 0 {
		t.Fatal("traced run exported no events")
	}

	tids := map[float64]bool{}
	threadNames := map[string]bool{}
	var coverEvents, spans int
	for _, e := range events {
		name, _ := e["name"].(string)
		ph, _ := e["ph"].(string)
		if ph == "M" {
			if name == "thread_name" {
				args, _ := e["args"].(map[string]any)
				n, _ := args["name"].(string)
				threadNames[n] = true
			}
			continue
		}
		tid, _ := e["tid"].(float64)
		tids[tid] = true
		if strings.HasPrefix(name, "cover.") {
			coverEvents++
		}
		if ph == "B" {
			spans++
		}
	}
	// Track 0 (the run) plus one track per portfolio worker.
	if len(tids) < 2 {
		t.Errorf("events on %d tracks, want the run track plus worker tracks", len(tids))
	}
	if coverEvents == 0 {
		t.Error("no cover-oracle events in a GHW portfolio trace")
	}
	if spans == 0 {
		t.Error("no spans (worker lifecycles) in the trace")
	}
	if !threadNames["run"] {
		t.Errorf("no \"run\" thread_name metadata; saw %v", threadNames)
	}
	var workerNamed bool
	for n := range threadNames {
		if strings.HasPrefix(n, "worker ") {
			workerNamed = true
		}
	}
	if !workerNamed {
		t.Errorf("no worker thread_name metadata; saw %v", threadNames)
	}
}

// TestTraceSingleMethodEngines checks each engine's sampled
// instrumentation reaches the ring through the facade: detk and balsep
// emit component/decompose events, and the GAs emit generation/epoch
// ticks.
func TestTraceSingleMethodEngines(t *testing.T) {
	tr := NewTrace(0)
	if w, _, err := HypertreeWidthCtx(context.Background(), gen.Grid2DHypergraph(3, 3), 4, nil, tr); err != nil || w < 0 {
		t.Fatalf("detk found no decomposition within k=4 (err %v)", err)
	}
	names := map[string]bool{}
	for _, e := range tr.Events() {
		names[e.Name] = true
	}
	if !names["detk.decompose"] || !names["detk.component"] {
		t.Errorf("detk trace missing events; saw %v", names)
	}

	h := gen.RandomHypergraph(10, 14, 3, 3)
	for _, m := range []Method{MethodGA, MethodSAIGA} {
		opt := oracleOpts(m, 2)
		opt.Trace = NewTrace(0)
		if _, err := GHW(h, opt); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		want := "ga.generation"
		if m == MethodSAIGA {
			want = "saiga.epoch"
		}
		found := false
		for _, e := range opt.Trace.Events() {
			if e.Name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: no %q events in the trace", m, want)
		}
	}

	// rand16 reaches the balsep engine itself: min-fill does not meet the
	// tw-ksc bound there, so at least one deepening level runs.
	opt := oracleOpts(MethodBalSep, 1)
	opt.Trace = NewTrace(0)
	if _, err := GHW(gen.RandomHypergraph(16, 14, 4, 2), opt); err != nil {
		t.Fatalf("%v: %v", MethodBalSep, err)
	}
	begins, ends, components := 0, 0, 0
	for _, e := range opt.Trace.Events() {
		switch {
		case e.Name == "balsep.decompose" && e.Kind == telemetry.KindBegin:
			begins++
		case e.Name == "balsep.decompose" && e.Kind == telemetry.KindEnd:
			ends++
		case e.Name == "balsep.component":
			components++
		}
	}
	if begins == 0 || begins != ends {
		t.Errorf("balsep: want a balanced balsep.decompose span, saw %d begins and %d ends", begins, ends)
	}
	if components == 0 {
		t.Error("balsep: no balsep.component events in the trace")
	}
}

// TestTraceRingBoundedUnderLoad runs a trace whose ring is far smaller
// than the event volume of an exact search: the ring must wrap (Dropped
// grows), memory stays bounded, and the export still validates. On this
// input bb and A* each branch through about 8,000 nodes, and either one
// alone emits some 50 events before its proof, so the ring wraps however
// the race between them goes.
func TestTraceRingBoundedUnderLoad(t *testing.T) {
	h := gen.RandomHypergraph(18, 16, 3, 5)
	opt := oracleOpts(MethodPortfolio, 9)
	opt.Trace = NewTrace(16) // absurdly small on purpose
	if _, err := GHW(h, opt); err != nil {
		t.Fatal(err)
	}
	if got := len(opt.Trace.Events()); got > 16 {
		t.Errorf("ring holds %d events, capacity 16", got)
	}
	if opt.Trace.Dropped() == 0 {
		t.Error("tiny ring never wrapped — sampled emission volume suspiciously low")
	}
	var buf bytes.Buffer
	if err := opt.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if events := decodeChrome(t, buf.Bytes()); len(events) == 0 {
		t.Error("wrapped ring exported no events")
	}
}

// TestTraceRacePortfolio drives concurrent portfolio workers plus the
// background MemStats sampler into one shared ring. Meaningful under
// -race: workers emit on their own tracks while the sampler emits heap
// counters on track 0 and the cover oracle pulses from worker goroutines.
func TestTraceRacePortfolio(t *testing.T) {
	h := gen.Grid2DHypergraph(5, 5)
	for run := 0; run < 2; run++ {
		opt := oracleOpts(MethodPortfolio, int64(run))
		opt.Jobs = 3
		opt.Stats = new(Stats)
		opt.Trace = NewTrace(1 << 12)
		ms := telemetry.StartMemSampler(opt.Stats, opt.Trace, time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		_, err := GHWCtx(ctx, h, opt)
		cancel()
		ms.Stop()
		if err != nil && !isCtxErr(err) {
			t.Fatalf("run %d: %v", run, err)
		}
		var buf bytes.Buffer
		if err := opt.Trace.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		decodeChrome(t, buf.Bytes())
		if opt.Stats.Snapshot().MemSamples == 0 {
			t.Error("memory sampler recorded no samples")
		}
	}
}
