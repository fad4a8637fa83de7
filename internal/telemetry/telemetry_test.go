package telemetry

import (
	"encoding/json"
	"expvar"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety drives every instrumentation point through a nil *Stats
// and a nil *Observer: the disabled path must be a no-op, not a panic.
func TestNilSafety(t *testing.T) {
	var s *Stats
	s.Start()
	s.Add(Nodes, 1)
	s.Add(PruneSimplicial, 1)
	s.Add(PrunePR2, 1)
	s.Add(PruneCoverBound, 1)
	s.Add(PruneLBCutoff, 1)
	s.Add(PruneDominance, 1)
	s.Add(GAGenerations, 1)
	s.Add(GAEvaluations, 1)
	s.Add(Restarts, 1)
	s.Add(HeurSteps, 1)
	s.Observe(CoverProbeNs, time.Millisecond)
	s.AddSnapshot(Snapshot{Nodes: 5})
	if _, ok := s.RecordIncumbent(3, "bb"); ok {
		t.Error("nil Stats recorded an incumbent")
	}
	if s.Trace() != nil {
		t.Error("nil Stats returned a non-nil trace")
	}
	if !reflect.DeepEqual(s.Snapshot(), Snapshot{}) {
		t.Error("nil Stats returned a non-zero snapshot")
	}
	if s.Elapsed() != 0 {
		t.Error("nil Stats returned non-zero elapsed")
	}

	var o *Observer
	o.Incumbent(Incumbent{})
	o.Phase(Phase{})
	o.PortfolioOutcome(Outcome{})
	(&Observer{}).Incumbent(Incumbent{}) // non-nil observer, nil hook
}

func TestCountersAndSnapshot(t *testing.T) {
	var s Stats
	for i := 0; i < 3; i++ {
		s.Add(Nodes, 1)
	}
	s.Add(PrunePR2, 1)
	s.Add(PruneCoverBound, 1)
	s.Add(PruneLBCutoff, 1)
	s.Add(PruneSimplicial, 1)
	s.Add(PruneDominance, 1)
	s.Add(GAGenerations, 1)
	s.Add(GAEvaluations, 1)
	s.Add(GAEvaluations, 1)
	s.Add(Restarts, 1)
	s.Add(HeurSteps, 1)
	got := s.Snapshot()
	want := Snapshot{
		Nodes: 3, PruneSimplicial: 1, PrunePR2: 1, PruneCoverBound: 1,
		PruneLBCutoff: 1, PruneDominance: 1, GAGenerations: 1,
		GAEvaluations: 2, Restarts: 1, HeurSteps: 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot = %+v, want %+v", got, want)
	}
	if sum := got.Add(got); sum.Nodes != 6 || sum.GAEvaluations != 4 {
		t.Errorf("Add: got %+v", sum)
	}
	var agg Stats
	agg.AddSnapshot(got)
	agg.AddSnapshot(got)
	if agg.Snapshot().Nodes != 6 {
		t.Errorf("AddSnapshot: nodes = %d, want 6", agg.Snapshot().Nodes)
	}
}

// TestTraceMonotone checks that the incumbent trace only accepts strict
// improvements, in whatever order they arrive.
func TestTraceMonotone(t *testing.T) {
	var s Stats
	s.Start()
	seq := []struct {
		w    int
		want bool
	}{{10, true}, {10, false}, {12, false}, {7, true}, {8, false}, {7, false}, {3, true}}
	for _, c := range seq {
		if _, ok := s.RecordIncumbent(c.w, "m"); ok != c.want {
			t.Errorf("RecordIncumbent(%d) recorded=%v, want %v", c.w, ok, c.want)
		}
	}
	tr := s.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace length = %d, want 3", len(tr))
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].Width >= tr[i-1].Width {
			t.Errorf("trace not strictly decreasing at %d: %+v", i, tr)
		}
		if tr[i].Elapsed < tr[i-1].Elapsed {
			t.Errorf("trace elapsed not monotone at %d: %+v", i, tr)
		}
	}
	// The returned slice is a copy: mutating it must not corrupt the trace.
	tr[0].Width = -1
	if s.Trace()[0].Width == -1 {
		t.Error("Trace returned the internal slice, not a copy")
	}
}

// TestConcurrentTrace hammers one Stats from many goroutines, as the
// portfolio does, and asserts the trace stays monotone.
func TestConcurrentTrace(t *testing.T) {
	var s Stats
	s.Start()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for w := 100; w > 0; w-- {
				s.RecordIncumbent(w, "worker")
				s.Add(Nodes, 1)
			}
		}(g)
	}
	wg.Wait()
	tr := s.Trace()
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].Width >= tr[i-1].Width {
			t.Fatalf("trace not monotone under concurrency: %+v", tr)
		}
	}
	if tr[len(tr)-1].Width != 1 {
		t.Errorf("final incumbent = %d, want 1", tr[len(tr)-1].Width)
	}
	if n := s.Snapshot().Nodes; n != 800 {
		t.Errorf("nodes = %d, want 800", n)
	}
}

func TestStartIdempotent(t *testing.T) {
	var s Stats
	s.Start()
	time.Sleep(time.Millisecond)
	e1 := s.Elapsed()
	s.Start() // must not reset the clock
	if e2 := s.Elapsed(); e2 < e1 {
		t.Errorf("Start reset the clock: %v then %v", e1, e2)
	}
}

func TestSnapshotJSON(t *testing.T) {
	var s Stats
	s.Add(Nodes, 1)
	s.RecordIncumbent(4, "astar")
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"nodes", "prune_pr2", "prune_cover_bound", "prune_lb_cutoff", "ga_evaluations", "restarts", "heur_steps"} {
		if !strings.Contains(string(b), key) {
			t.Errorf("snapshot JSON missing %q: %s", key, b)
		}
	}
	tb, err := json.Marshal(s.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tb), `"method":"astar"`) {
		t.Errorf("trace JSON missing method: %s", tb)
	}
}

func TestPublishExpvar(t *testing.T) {
	var s Stats
	s.Add(Nodes, 1)
	s.RecordIncumbent(2, "bb")
	PublishExpvar("telemetry_test_stats", &s)
	PublishExpvar("telemetry_test_stats", &s) // duplicate must not panic
	v := expvar.Get("telemetry_test_stats")
	if v == nil {
		t.Fatal("expvar not published")
	}
	out := v.String()
	if !strings.Contains(out, `"nodes":1`) || !strings.Contains(out, `"method":"bb"`) {
		t.Errorf("expvar payload missing fields: %s", out)
	}
}

// TestPublishExpvarSwaps re-publishes a name with a fresh Stats and checks
// the expvar output tracks the newest one — it must not stay pinned to the
// Stats of the first run (expvar itself has no unpublish, so PublishExpvar
// routes through a swappable holder).
func TestPublishExpvarSwaps(t *testing.T) {
	var a Stats
	a.Add(Nodes, 1)
	PublishExpvar("telemetry_test_swap", &a)

	var b Stats
	for i := 0; i < 7; i++ {
		b.Add(Nodes, 1)
	}
	b.RecordIncumbent(9, "astar")
	PublishExpvar("telemetry_test_swap", &b)

	out := expvar.Get("telemetry_test_swap").String()
	if !strings.Contains(out, `"nodes":7`) {
		t.Errorf("expvar still pinned to the first Stats: %s", out)
	}
	if !strings.Contains(out, `"method":"astar"`) {
		t.Errorf("expvar trace not from the swapped Stats: %s", out)
	}

	// New counts on the live Stats must be visible on the next read.
	b.Add(Nodes, 1)
	if out := expvar.Get("telemetry_test_swap").String(); !strings.Contains(out, `"nodes":8`) {
		t.Errorf("expvar snapshot is stale: %s", out)
	}
}
