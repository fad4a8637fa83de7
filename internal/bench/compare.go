// The bench regression gate behind `htdbench -compare`: a per-
// (instance, kind, method) diff of two Report documents with configurable
// thresholds. This is what turns the committed BENCH_*.json files from
// write-only artifacts into an enforced perf trajectory — CI reruns the
// pinned subset and fails the build when a record regresses.
//
// Gate semantics, tuned for noisy shared runners:
//   - Width is exactness-critical: ANY regression (larger width, lost
//     exactness proof, weaker lower bound, or a new error) is a violation
//     regardless of thresholds.
//   - Wall time and heap are noisy: they violate only beyond a
//     multiplicative factor, and small baselines are first clamped up to a
//     floor (MinWallMs / MinHeapBytes) so a 3ms → 8ms jitter cannot fail
//     a build.
//   - Node counts are scheduling-dependent under the racing portfolio, so
//     the nodes gate is opt-in (MaxNodesFactor 0 disables it).
//   - Records present in only one report are listed but never violations:
//     the gate must tolerate running a subset of the catalog.
package bench

import (
	"fmt"
	"io"
	"sort"
)

// Thresholds configures the regression gate. The zero value gates only on
// width/exactness/errors (all factor gates off).
type Thresholds struct {
	// MaxWallFactor fails a record when its wall time exceeds
	// factor × max(baseline, MinWallMs). 0 disables the wall gate.
	MaxWallFactor float64
	// MaxHeapFactor fails a record when its heap high-water exceeds
	// factor × max(baseline, MinHeapBytes). 0 disables the heap gate; it
	// is also skipped when the baseline record carries no heap data
	// (reports predating the memory sampler).
	MaxHeapFactor float64
	// MaxNodesFactor gates node counts the same way (0 = off, the default:
	// racing portfolio node totals depend on scheduling).
	MaxNodesFactor float64
	// MinWallMs clamps tiny wall baselines before the factor applies, so
	// sub-millisecond records don't fail on scheduler jitter.
	MinWallMs float64
	// MinHeapBytes clamps tiny heap baselines likewise.
	MinHeapBytes int64
	// MaxP99Factor gates the tail-latency quantiles — the cover-oracle
	// probe p99, the parallel engine's level-wait p99 and a standing
	// query's delta-apply p99 — the same way: violation when the current
	// p99 exceeds factor × max(baseline, MinP99Ms). 0 disables the gate;
	// it is also skipped when the baseline record carries no observations
	// for the distribution (runs that never touch the oracle, the parallel
	// engine or a standing query, and reports predating the histograms).
	MaxP99Factor float64
	// MinP99Ms clamps tiny p99 baselines before the factor applies:
	// microsecond-scale tails are all scheduler noise.
	MinP99Ms float64
	// MaxLPShareFactor gates the LP phase clock's share of wall time:
	// violation when the current lp_share exceeds factor × max(baseline,
	// MinLPShare). It catches an LP cost blowup that the wall gate would
	// miss (e.g. the cascade firing far more often while the search gets
	// correspondingly less done inside the same budget). 0 disables the
	// gate; it is also skipped when the baseline record carries no LP share
	// (runs without -fracbound, and reports predating the phase clocks).
	MaxLPShareFactor float64
	// MinLPShare clamps tiny LP-share baselines before the factor applies
	// (a 0.1% → 0.5% move is noise, not a blowup).
	MinLPShare float64
}

// DefaultThresholds returns the CI gate defaults: 2× wall over a 250ms
// floor, 1.5× heap over a 64MiB floor, 5× p99 tails over a 2ms floor
// (tails are the noisiest statistic on shared runners, hence the widest
// factor), nodes ungated.
func DefaultThresholds() Thresholds {
	return Thresholds{
		MaxWallFactor:    2.0,
		MaxHeapFactor:    1.5,
		MinWallMs:        250,
		MinHeapBytes:     64 << 20,
		MaxP99Factor:     5.0,
		MinP99Ms:         2,
		MaxLPShareFactor: 3.0,
		MinLPShare:       0.05,
	}
}

// Diff is the comparison of one (instance, kind, method) record pair.
type Diff struct {
	Instance string `json:"instance"`
	Kind     string `json:"kind"`
	Method   string `json:"method"`

	BaseWidth, CurWidth   int     `json:"-"`
	BaseWallMs, CurWallMs float64 `json:"-"`
	BaseHeap, CurHeap     int64   `json:"-"`
	BaseNodes, CurNodes   int64   `json:"-"`

	// Violations lists the human-readable gate failures of this pair
	// (empty when the record passes).
	Violations []string `json:"violations,omitempty"`
}

// CompareResult aggregates the gate outcome over two reports.
type CompareResult struct {
	// Diffs holds one entry per record key present in both reports, in
	// deterministic (instance, kind, method) order.
	Diffs []Diff
	// MissingInCurrent lists baseline keys the current report lacks
	// (informational: the gate may run a catalog subset).
	MissingInCurrent []string
	// OnlyInCurrent lists current keys the baseline lacks (new instances
	// have no baseline to regress against).
	OnlyInCurrent []string
	// Violations counts the records with at least one gate failure.
	Violations int
}

// key identifies a record across reports.
func recordKey(r Record) string {
	return r.Instance + "|" + r.Kind + "|" + r.Method
}

// Compare diffs cur against base under the thresholds. Baseline records
// that themselves errored gate nothing (any current outcome is accepted
// for them, including a repeat error).
func Compare(base, cur Report, th Thresholds) CompareResult {
	baseIdx := make(map[string]Record, len(base.Records))
	for _, r := range base.Records {
		baseIdx[recordKey(r)] = r
	}
	curIdx := make(map[string]Record, len(cur.Records))
	for _, r := range cur.Records {
		curIdx[recordKey(r)] = r
	}

	var res CompareResult
	keys := make([]string, 0, len(baseIdx))
	for k := range baseIdx {
		if _, ok := curIdx[k]; ok {
			keys = append(keys, k)
		} else {
			res.MissingInCurrent = append(res.MissingInCurrent, k)
		}
	}
	for k := range curIdx {
		if _, ok := baseIdx[k]; !ok {
			res.OnlyInCurrent = append(res.OnlyInCurrent, k)
		}
	}
	sort.Strings(keys)
	sort.Strings(res.MissingInCurrent)
	sort.Strings(res.OnlyInCurrent)

	for _, k := range keys {
		d := compareRecord(baseIdx[k], curIdx[k], th)
		if len(d.Violations) > 0 {
			res.Violations++
		}
		res.Diffs = append(res.Diffs, d)
	}
	return res
}

func compareRecord(b, c Record, th Thresholds) Diff {
	d := Diff{
		Instance:  b.Instance,
		Kind:      b.Kind,
		Method:    b.Method,
		BaseWidth: b.Width, CurWidth: c.Width,
		BaseWallMs: b.WallMs, CurWallMs: c.WallMs,
		BaseHeap: b.HeapHighWaterBytes, CurHeap: c.HeapHighWaterBytes,
		BaseNodes: b.Nodes, CurNodes: c.Nodes,
	}
	if b.Error != "" {
		return d // nothing to regress against
	}
	if c.Error != "" {
		d.Violations = append(d.Violations,
			fmt.Sprintf("errored (%s) where baseline succeeded", c.Error))
		return d
	}

	// Width family: always gated, no thresholds.
	if c.Width > b.Width {
		d.Violations = append(d.Violations,
			fmt.Sprintf("width regressed %d -> %d", b.Width, c.Width))
	}
	if b.Exact && !c.Exact {
		d.Violations = append(d.Violations, "lost exactness proof")
	}
	if c.LowerBound < b.LowerBound {
		d.Violations = append(d.Violations,
			fmt.Sprintf("lower bound weakened %d -> %d", b.LowerBound, c.LowerBound))
	}
	// Fractional widths gate like Width (no thresholds), with a small
	// epsilon for LP arithmetic; skipped when the baseline carries none
	// (reports predating the fhw records).
	if b.FracWidth > 0 && c.FracWidth > b.FracWidth+1e-6 {
		d.Violations = append(d.Violations,
			fmt.Sprintf("fractional width regressed %.4f -> %.4f", b.FracWidth, c.FracWidth))
	}
	// Query-workload answer counts are deterministic for a fixed seed: any
	// drift is an evaluation correctness bug, not noise.
	if b.Kind == "cq" && c.Answers != b.Answers {
		d.Violations = append(d.Violations,
			fmt.Sprintf("answer count changed %d -> %d", b.Answers, c.Answers))
	}

	if th.MaxWallFactor > 0 {
		floor := b.WallMs
		if floor < th.MinWallMs {
			floor = th.MinWallMs
		}
		if c.WallMs > th.MaxWallFactor*floor {
			d.Violations = append(d.Violations,
				fmt.Sprintf("wall %.0fms > %.1fx baseline %.0fms (floor %.0fms)",
					c.WallMs, th.MaxWallFactor, b.WallMs, floor))
		}
	}
	if th.MaxHeapFactor > 0 && b.HeapHighWaterBytes > 0 {
		floor := b.HeapHighWaterBytes
		if floor < th.MinHeapBytes {
			floor = th.MinHeapBytes
		}
		if float64(c.HeapHighWaterBytes) > th.MaxHeapFactor*float64(floor) {
			d.Violations = append(d.Violations,
				fmt.Sprintf("heap high-water %dMiB > %.1fx baseline %dMiB (floor %dMiB)",
					c.HeapHighWaterBytes>>20, th.MaxHeapFactor,
					b.HeapHighWaterBytes>>20, floor>>20))
		}
	}
	if th.MaxP99Factor > 0 {
		gateP99 := func(name string, basep, curp float64) {
			if basep == 0 || curp == 0 {
				return // one side has no observations: nothing to regress
			}
			floor := basep
			if floor < th.MinP99Ms {
				floor = th.MinP99Ms
			}
			if curp > th.MaxP99Factor*floor {
				d.Violations = append(d.Violations,
					fmt.Sprintf("%s p99 %.2fms > %.1fx baseline %.2fms (floor %.0fms)",
						name, curp, th.MaxP99Factor, basep, floor))
			}
		}
		gateP99("oracle probe", b.OracleProbeP99Ms, c.OracleProbeP99Ms)
		gateP99("level wait", b.LevelWaitP99Ms, c.LevelWaitP99Ms)
		gateP99("delta apply", b.DeltaApplyP99Ms, c.DeltaApplyP99Ms)
	}
	if th.MaxLPShareFactor > 0 && b.LPShare > 0 && c.LPShare > 0 {
		floor := b.LPShare
		if floor < th.MinLPShare {
			floor = th.MinLPShare
		}
		if c.LPShare > th.MaxLPShareFactor*floor {
			d.Violations = append(d.Violations,
				fmt.Sprintf("lp share %.1f%% > %.1fx baseline %.1f%% (floor %.1f%%)",
					c.LPShare*100, th.MaxLPShareFactor, b.LPShare*100, floor*100))
		}
	}
	if th.MaxNodesFactor > 0 && b.Nodes > 0 {
		if float64(c.Nodes) > th.MaxNodesFactor*float64(b.Nodes) {
			d.Violations = append(d.Violations,
				fmt.Sprintf("nodes %d > %.1fx baseline %d", c.Nodes, th.MaxNodesFactor, b.Nodes))
		}
	}
	return d
}

// Render writes the human-readable gate summary: one line per compared
// record, violations flagged, then the subset bookkeeping.
func (r CompareResult) Render(w io.Writer) {
	for _, d := range r.Diffs {
		mark := "ok  "
		if len(d.Violations) > 0 {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "%s %-14s %-4s %-10s width %d->%d wall %.0f->%.0fms heap %d->%dMiB\n",
			mark, d.Instance, d.Kind, d.Method,
			d.BaseWidth, d.CurWidth, d.BaseWallMs, d.CurWallMs,
			d.BaseHeap>>20, d.CurHeap>>20)
		for _, v := range d.Violations {
			fmt.Fprintf(w, "     - %s\n", v)
		}
	}
	for _, k := range r.MissingInCurrent {
		fmt.Fprintf(w, "note %s: in baseline only (subset run?)\n", k)
	}
	for _, k := range r.OnlyInCurrent {
		fmt.Fprintf(w, "note %s: no baseline (new record)\n", k)
	}
	fmt.Fprintf(w, "%d compared, %d violation(s)\n", len(r.Diffs), r.Violations)
}
