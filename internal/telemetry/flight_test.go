package telemetry

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// bundleFiles asserts the four bundle artifacts exist and are non-empty.
func bundleFiles(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{BundleStats, BundleTrace, BundleHeap, BundleGoroutines} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Errorf("bundle file %s is empty", name)
		}
	}
}

// readBundleStats parses a bundle's stats.json.
func readBundleStats(t *testing.T, dir string) bundleStats {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, BundleStats))
	if err != nil {
		t.Fatal(err)
	}
	var doc bundleStats
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("stats.json: %v", err)
	}
	return doc
}

// TestFlightRecorderDeadlineDump arms a recorder against a context that
// times out and checks the watcher dumps a complete bundle with reason
// "deadline", carrying the counters, histograms, and incumbents the run
// recorded before it died.
func TestFlightRecorderDeadlineDump(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	var st Stats
	st.Add(Nodes, 1)
	st.Observe(CoverProbeNs, 3*time.Millisecond)
	st.RecordIncumbent(7, "minfill")
	tr := NewTrace(0)
	tr.Begin(0, "search")
	tr.End(0, "search")

	f := NewFlightRecorder(dir, &st, tr)
	f.SetMeta("cmd", "decompose")
	f.SetMeta("instance", "unit.hg")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	f.Watch(ctx)
	<-ctx.Done()
	f.Sync(5 * time.Second)

	bundleFiles(t, dir)
	doc := readBundleStats(t, dir)
	if doc.Reason != "deadline" {
		t.Errorf("reason = %q, want deadline", doc.Reason)
	}
	if doc.Meta["cmd"] != "decompose" || doc.Meta["instance"] != "unit.hg" {
		t.Errorf("meta not carried: %v", doc.Meta)
	}
	if doc.Counters.Nodes != 1 {
		t.Errorf("counters.nodes = %d, want 1", doc.Counters.Nodes)
	}
	if doc.Counters.CoverProbeNs.Count != 1 {
		t.Errorf("probe histogram not in bundle: %+v", doc.Counters.CoverProbeNs)
	}
	if len(doc.Incumbents) != 1 || doc.Incumbents[0].Width != 7 {
		t.Errorf("incumbent timeline not in bundle: %+v", doc.Incumbents)
	}
}

// TestFlightRecorderCancelReason checks a plain cancellation is labelled
// "cancelled", not "deadline".
func TestFlightRecorderCancelReason(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	f := NewFlightRecorder(dir, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	f.Watch(ctx)
	cancel()
	f.Sync(5 * time.Second)
	if doc := readBundleStats(t, dir); doc.Reason != "cancelled" {
		t.Errorf("reason = %q, want cancelled", doc.Reason)
	}
}

// TestFlightRecorderDisarm checks a clean run leaves no bundle behind.
func TestFlightRecorderDisarm(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	f := NewFlightRecorder(dir, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Watch(ctx)
	f.Disarm()
	f.Sync(5 * time.Second)
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("disarmed recorder still dumped a bundle (stat err %v)", err)
	}
}

// TestFlightRecorderDumpIdempotent checks the first trigger wins: a second
// Dump neither errors nor rewrites the bundle.
func TestFlightRecorderDumpIdempotent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	f := NewFlightRecorder(dir, nil, nil)
	if _, err := f.Dump("deadline"); err != nil {
		t.Fatal(err)
	}
	before := readBundleStats(t, dir)
	if _, err := f.Dump("panic"); err != nil {
		t.Fatal(err)
	}
	after := readBundleStats(t, dir)
	if after.Reason != before.Reason || after.CapturedAt != before.CapturedAt {
		t.Errorf("second Dump rewrote the bundle: %+v vs %+v", before, after)
	}
}

// TestFlightRecorderHandlePanic checks a panic unwinding through
// HandlePanic dumps with reason "panic" and the panic value in metadata,
// then re-panics.
func TestFlightRecorderHandlePanic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	f := NewFlightRecorder(dir, nil, nil)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("panic value not re-raised: %v", r)
			}
		}()
		defer f.HandlePanic()
		panic("boom")
	}()
	doc := readBundleStats(t, dir)
	if doc.Reason != "panic" {
		t.Errorf("reason = %q, want panic", doc.Reason)
	}
	if doc.Meta["panic"] != "boom" {
		t.Errorf("panic value not in meta: %v", doc.Meta)
	}
}

// TestFlightRecorderNil checks the whole API is a no-op on nil, which is
// what every run without -postmortem exercises.
func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.SetMeta("k", "v")
	f.Watch(context.Background())
	f.Disarm()
	f.Sync(time.Millisecond)
	if dir, err := f.Dump("deadline"); dir != "" || err != nil {
		t.Errorf("nil Dump = (%q, %v)", dir, err)
	}
	defer func() {
		if r := recover(); r != "pass-through" {
			t.Errorf("nil HandlePanic swallowed the panic: %v", r)
		}
	}()
	defer f.HandlePanic()
	panic("pass-through")
}

// TestRenderBundle dumps a populated bundle and checks the rendering
// carries the trigger, phase totals, quantiles, counters, and incumbents.
func TestRenderBundle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle")
	var st Stats
	st.Add(Nodes, 1)
	for i := 0; i < 50; i++ {
		st.Observe(CoverProbeNs, 2*time.Millisecond)
		st.Observe(CQBatchNs, 5*time.Millisecond)
	}
	st.RecordIncumbent(9, "ga")
	st.RecordIncumbent(4, "bb")
	tr := NewTrace(0)
	tr.Begin(0, "expand")
	tr.End(0, "expand")
	tr.Begin(1, "expand")
	tr.End(1, "expand")

	f := NewFlightRecorder(dir, &st, tr)
	f.SetMeta("cmd", "decompose")
	if _, err := f.Dump("deadline"); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := RenderBundle(dir, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"trigger:  deadline",
		"cmd:",
		"top phases by wall time:",
		"expand",
		"latency quantiles:",
		"cover_probe",
		"cq_batch",
		"p99=",
		"counters (non-zero):",
		"htd_nodes_total",
		"incumbent timeline:",
		"width 4",
		"goroutines at capture:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
}

// TestRenderBundleMissing checks a helpful error on a non-bundle path.
func TestRenderBundleMissing(t *testing.T) {
	var b strings.Builder
	if err := RenderBundle(filepath.Join(t.TempDir(), "nope"), &b); err == nil {
		t.Fatal("rendering a missing bundle did not error")
	}
}
