package bench

import (
	"strings"
	"testing"
)

// gateBase is a small baseline report exercising both kinds and an
// errored record.
func gateBase() Report {
	return Report{Records: []Record{
		{Instance: "myciel3", Kind: "tw", Method: "portfolio",
			Width: 5, LowerBound: 5, Exact: true,
			WallMs: 120, Nodes: 4000, HeapHighWaterBytes: 32 << 20},
		{Instance: "adder_10", Kind: "ghw", Method: "portfolio",
			Width: 2, LowerBound: 2, Exact: true,
			WallMs: 800, Nodes: 9000, HeapHighWaterBytes: 200 << 20},
		{Instance: "flaky", Kind: "tw", Method: "portfolio",
			Error: "context deadline exceeded"},
	}}
}

func TestCompareSelfIsClean(t *testing.T) {
	base := gateBase()
	res := Compare(base, base, DefaultThresholds())
	if res.Violations != 0 {
		t.Fatalf("self-compare produced %d violations: %+v", res.Violations, res.Diffs)
	}
	if len(res.Diffs) != len(base.Records) {
		t.Fatalf("compared %d records, want %d", len(res.Diffs), len(base.Records))
	}
	if len(res.MissingInCurrent) != 0 || len(res.OnlyInCurrent) != 0 {
		t.Fatalf("self-compare reported subset mismatches: %+v / %+v",
			res.MissingInCurrent, res.OnlyInCurrent)
	}
}

func TestCompareFlagsSyntheticRegression(t *testing.T) {
	base := gateBase()
	cur := gateBase()
	// Regress every gated dimension of the adder_10 record: width up, wall
	// 10x, heap 3x.
	r := &cur.Records[1]
	r.Width++
	r.Exact = false
	r.WallMs *= 10
	r.HeapHighWaterBytes *= 3

	res := Compare(base, cur, DefaultThresholds())
	if res.Violations != 1 {
		t.Fatalf("want 1 violating record, got %d", res.Violations)
	}
	var vio []string
	for _, d := range res.Diffs {
		if d.Instance == "adder_10" {
			vio = d.Violations
		} else if len(d.Violations) > 0 {
			t.Errorf("unexpected violations on %s: %v", d.Instance, d.Violations)
		}
	}
	want := []string{"width regressed", "lost exactness", "wall", "heap high-water"}
	for _, w := range want {
		found := false
		for _, v := range vio {
			if strings.Contains(v, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing %q violation in %v", w, vio)
		}
	}
}

// TestCompareFloorsAbsorbJitter: small baselines are clamped to the
// MinWallMs/MinHeapBytes floors, so a 3ms -> 30ms jitter or a few extra
// MiB cannot fail the gate.
func TestCompareFloorsAbsorbJitter(t *testing.T) {
	base := Report{Records: []Record{{
		Instance: "tiny", Kind: "tw", Method: "portfolio",
		Width: 3, WallMs: 3, HeapHighWaterBytes: 1 << 20,
	}}}
	cur := Report{Records: []Record{{
		Instance: "tiny", Kind: "tw", Method: "portfolio",
		Width: 3, WallMs: 30, HeapHighWaterBytes: 8 << 20,
	}}}
	if res := Compare(base, cur, DefaultThresholds()); res.Violations != 0 {
		t.Fatalf("jitter under the floors flagged: %+v", res.Diffs)
	}
	// But the same ratios above the floors do fail.
	base.Records[0].WallMs = 400
	cur.Records[0].WallMs = 4000
	if res := Compare(base, cur, DefaultThresholds()); res.Violations != 1 {
		t.Fatalf("10x wall above the floor not flagged")
	}
}

func TestCompareToleratesSubsetRuns(t *testing.T) {
	base := gateBase()
	cur := gateBase()
	cur.Records = cur.Records[:1] // subset run: adder_10 and flaky missing
	cur.Records = append(cur.Records, Record{
		Instance: "brandnew", Kind: "tw", Method: "portfolio", Width: 4})

	res := Compare(base, cur, DefaultThresholds())
	if res.Violations != 0 {
		t.Fatalf("subset run flagged violations: %+v", res.Diffs)
	}
	if len(res.MissingInCurrent) != 2 {
		t.Errorf("want 2 baseline-only keys, got %v", res.MissingInCurrent)
	}
	if len(res.OnlyInCurrent) != 1 {
		t.Errorf("want 1 new key, got %v", res.OnlyInCurrent)
	}
}

func TestCompareNewErrorIsViolation(t *testing.T) {
	base := gateBase()
	cur := gateBase()
	cur.Records[0].Error = "boom"

	res := Compare(base, cur, DefaultThresholds())
	if res.Violations != 1 {
		t.Fatalf("new error not flagged: %+v", res.Diffs)
	}
	// The record that errored in the baseline gates nothing — even a wild
	// current value passes.
	cur = gateBase()
	cur.Records[2].Error = ""
	cur.Records[2].Width = 99
	cur.Records[2].WallMs = 1e6
	if res := Compare(base, cur, DefaultThresholds()); res.Violations != 0 {
		t.Fatalf("errored baseline gated: %+v", res.Diffs)
	}
}

// TestCompareGatesP99 exercises the tail-latency gate: a p99 blow-up
// beyond the factor over the floor is a violation, jitter under the floor
// is not, and a baseline without observations gates nothing.
func TestCompareGatesP99(t *testing.T) {
	mk := func(probeP99, waitP99 float64) Report {
		return Report{Records: []Record{{
			Instance: "adder_10", Kind: "ghw", Method: "portfolio",
			Width: 2, WallMs: 500,
			OracleProbeP99Ms: probeP99, LevelWaitP99Ms: waitP99,
		}}}
	}
	delta := func(p99 float64) Report {
		return Report{Records: []Record{{
			Instance: "delta_chain", Kind: "cq", Method: "minfill",
			WallMs: 500, DeltaApplyP99Ms: p99,
		}}}
	}
	// The delta-apply gate fires like the others, names its distribution,
	// and skips a baseline that predates the field.
	if res := Compare(delta(4), delta(80), DefaultThresholds()); res.Violations != 1 ||
		!strings.Contains(res.Diffs[0].Violations[0], "delta apply p99") {
		t.Fatalf("delta-apply p99 blow-up not flagged by name: %+v", res.Diffs)
	}
	if res := Compare(delta(0), delta(80), DefaultThresholds()); res.Violations != 0 {
		t.Fatalf("delta-apply p99 gated against a baseline without it: %+v", res.Diffs)
	}
	// 8ms -> 100ms probe p99 (12.5x over a baseline above the 2ms floor).
	res := Compare(mk(8, 0), mk(100, 0), DefaultThresholds())
	if res.Violations != 1 {
		t.Fatalf("probe p99 blow-up not flagged: %+v", res.Diffs)
	}
	if v := res.Diffs[0].Violations[0]; !strings.Contains(v, "oracle probe p99") {
		t.Errorf("violation text lacks the distribution name: %q", v)
	}
	// Level-wait gate fires independently.
	if res := Compare(mk(0, 4), mk(0, 80), DefaultThresholds()); res.Violations != 1 {
		t.Fatalf("level-wait p99 blow-up not flagged: %+v", res.Diffs)
	}
	// Sub-floor tails are all noise: 0.1ms -> 5ms stays under 5 x 2ms.
	if res := Compare(mk(0.1, 0.1), mk(5, 5), DefaultThresholds()); res.Violations != 0 {
		t.Fatalf("sub-floor p99 jitter flagged: %+v", res.Diffs)
	}
	// A baseline with no observations (pre-histogram report, or a run that
	// never touched the oracle) gates nothing.
	if res := Compare(mk(0, 0), mk(500, 500), DefaultThresholds()); res.Violations != 0 {
		t.Fatalf("p99 gated against an observation-free baseline: %+v", res.Diffs)
	}
	// And MaxP99Factor 0 disables the gate outright.
	th := DefaultThresholds()
	th.MaxP99Factor = 0
	if res := Compare(mk(8, 0), mk(1000, 0), th); res.Violations != 0 {
		t.Fatalf("disabled p99 gate still fired: %+v", res.Diffs)
	}
}

// TestCompareSkipsHeapWithoutBaseline: reports generated before the
// memory sampler carry zero heap fields; the heap gate must skip them.
func TestCompareSkipsHeapWithoutBaseline(t *testing.T) {
	base := gateBase()
	base.Records[1].HeapHighWaterBytes = 0
	cur := gateBase()
	cur.Records[1].HeapHighWaterBytes = 4 << 30

	if res := Compare(base, cur, DefaultThresholds()); res.Violations != 0 {
		t.Fatalf("heap gated against a pre-sampler baseline: %+v", res.Diffs)
	}
}
