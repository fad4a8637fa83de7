// Diagnosis reports: the structured document behind `htd explain` and the
// phase/bound sections of `htd report`. A Diagnosis distills one run's
// Snapshot into the questions an operator actually asks — where did the
// wall time go (exclusive phase clocks), which prune rules paid for their
// decision time (nodes closed per millisecond), did the cover cache help,
// and did the -fracbound LP cascade earn its evaluations (win rate and
// margin distribution over the k-set-cover base).
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// PhaseReport is one row of the phase-time table: the exclusive wall time
// attributed to a phase and its share of the run's wall clock (share of
// the attributed total when the wall is unknown, e.g. in an aggregated
// bundle).
type PhaseReport struct {
	Phase string  `json:"phase"`
	Ns    int64   `json:"ns"`
	Share float64 `json:"share"`
}

// RuleReport is one row of the prune-rule efficiency table: how many
// subtrees the rule closed, how much decision time it consumed (including
// the checks that did NOT fire), and the resulting efficiency in prunes
// per millisecond. A rule with many prunes and low time is earning its
// keep; one with high time and few prunes is a candidate for demotion.
type RuleReport struct {
	Rule        string  `json:"rule"`
	Prunes      int64   `json:"prunes"`
	Ns          int64   `json:"ns"`
	PrunesPerMs float64 `json:"prunes_per_ms"`
}

// CoverReport summarizes the cover oracle's cache efficacy.
type CoverReport struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// BoundReport summarizes the -fracbound cascade's effectiveness: LP
// evaluations performed, cascades completed, how often the fractional
// floor beat the k-set-cover base, and the margin quantiles (width units).
type BoundReport struct {
	LPEvals   int64   `json:"lp_evals"`
	Cascades  int64   `json:"cascades"`
	Wins      int64   `json:"wins"`
	WinRate   float64 `json:"win_rate"`
	MarginP50 float64 `json:"margin_p50"`
	MarginP95 float64 `json:"margin_p95"`
	RuleNs    int64   `json:"rule_ns"`
}

// Diagnosis is the full structured report of one run, JSON-encodable for
// `htd explain -json` and renderable as text. Counters carries the raw
// snapshot so downstream tooling never needs a second source.
type Diagnosis struct {
	Instance   string  `json:"instance,omitempty"`
	Method     string  `json:"method,omitempty"`
	Width      float64 `json:"width"`
	LowerBound int     `json:"lower_bound,omitempty"`
	Exact      bool    `json:"exact"`
	Winner     string  `json:"winner,omitempty"`
	WallMs     float64 `json:"wall_ms"`

	// Phases lists the exclusive phase clocks, largest first, with an
	// "(unattributed)" remainder row when the wall clock is known.
	// PhaseCoverage is Σ attributed / wall (0 when the wall is unknown).
	Phases        []PhaseReport `json:"phases"`
	PhaseCoverage float64       `json:"phase_coverage"`

	Rules []RuleReport `json:"prune_rules"`
	Cover CoverReport  `json:"cover_cache"`
	Bound *BoundReport `json:"frac_bound,omitempty"`

	TraceDropped int64       `json:"trace_dropped,omitempty"`
	Incumbents   []Incumbent `json:"incumbents,omitempty"`
	Counters     Snapshot    `json:"counters"`
}

// NewDiagnosis distills a snapshot (plus the incumbent trace and the run's
// wall time; wall 0 = unknown) into a Diagnosis. Width/method/instance
// identification is the caller's to fill in.
func NewDiagnosis(snap Snapshot, incs []Incumbent, wall time.Duration) Diagnosis {
	d := Diagnosis{
		WallMs:     float64(wall.Nanoseconds()) / 1e6,
		Phases:     phaseReports(snap, wall.Nanoseconds()),
		Rules:      ruleReports(snap),
		Cover:      coverReport(snap),
		Bound:      boundReport(snap),
		Incumbents: incs,
		Counters:   snap,
	}
	if wall > 0 {
		d.PhaseCoverage = float64(snap.Phases.Total()) / float64(wall.Nanoseconds())
	}
	d.TraceDropped = snap.TraceDropped
	return d
}

func phaseReports(snap Snapshot, wallNs int64) []PhaseReport {
	total := snap.Phases.Total()
	denom := wallNs
	if denom <= 0 {
		denom = total
	}
	out := make([]PhaseReport, 0, NumPhases)
	for i := range table {
		m := &table[i]
		if m.kind != kindPhase || *m.val(&snap) == 0 {
			continue
		}
		r := PhaseReport{Phase: m.stem(), Ns: *m.val(&snap)}
		if denom > 0 {
			r.Share = float64(r.Ns) / float64(denom)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ns != out[j].Ns {
			return out[i].Ns > out[j].Ns
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

func ruleReports(snap Snapshot) []RuleReport {
	out := make([]RuleReport, 0, NumRules)
	for i := range table {
		m := &table[i]
		if m.kind != kindRule {
			continue
		}
		prunes, ns := *scalarRow(m.prunes).val(&snap), *m.val(&snap)
		if prunes == 0 && ns == 0 {
			continue
		}
		rep := RuleReport{Rule: m.stem(), Prunes: prunes, Ns: ns}
		if ns > 0 {
			rep.PrunesPerMs = float64(prunes) / (float64(ns) / 1e6)
		}
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ns != out[j].Ns {
			return out[i].Ns > out[j].Ns
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

func coverReport(snap Snapshot) CoverReport {
	c := CoverReport{Hits: snap.CoverHits, Misses: snap.CoverMisses, Evictions: snap.CoverEvictions}
	if probes := c.Hits + c.Misses; probes > 0 {
		c.HitRate = float64(c.Hits) / float64(probes)
	}
	return c
}

// boundReport returns nil when the -fracbound cascade never ran, so the
// JSON document omits the section instead of reporting zeros.
func boundReport(snap Snapshot) *BoundReport {
	if snap.FracLPEvals == 0 && snap.FracBoundMargin.Count == 0 {
		return nil
	}
	b := &BoundReport{
		LPEvals:   snap.FracLPEvals,
		Cascades:  snap.FracBoundMargin.Count,
		Wins:      snap.FracBoundWins,
		MarginP50: snap.FracBoundMargin.P50(),
		MarginP95: snap.FracBoundMargin.P95(),
		RuleNs:    snap.Rules.FracBoundNs,
	}
	if b.Cascades > 0 {
		b.WinRate = float64(b.Wins) / float64(b.Cascades)
	}
	return b
}

// Render writes the human-readable diagnosis report.
func (d Diagnosis) Render(w io.Writer) {
	if d.Instance != "" {
		fmt.Fprintf(w, "diagnosis: %s", d.Instance)
		if d.Method != "" {
			fmt.Fprintf(w, " (%s)", d.Method)
		}
		fmt.Fprintln(w)
	}
	exact := "upper bound"
	if d.Exact {
		exact = "exact"
	}
	fmt.Fprintf(w, "  width: %g (%s)", d.Width, exact)
	if d.LowerBound > 0 {
		fmt.Fprintf(w, "  lower bound: %d", d.LowerBound)
	}
	if d.Winner != "" {
		fmt.Fprintf(w, "  winner: %s", d.Winner)
	}
	if d.WallMs > 0 {
		fmt.Fprintf(w, "  wall: %.3fms", d.WallMs)
	}
	fmt.Fprintln(w)

	writePhaseSection(w, d.Phases, d.PhaseCoverage, d.WallMs)
	writeRuleSection(w, d.Rules)

	fmt.Fprintf(w, "\ncover cache: %d hits, %d misses", d.Cover.Hits, d.Cover.Misses)
	if d.Cover.Hits+d.Cover.Misses > 0 {
		fmt.Fprintf(w, " (%.1f%% hit rate)", d.Cover.HitRate*100)
	}
	fmt.Fprintf(w, ", %d evictions\n", d.Cover.Evictions)

	writeBoundSection(w, d.Bound)

	if d.TraceDropped > 0 {
		fmt.Fprintf(w, "\nnote: trace ring wrapped, oldest %d events lost\n", d.TraceDropped)
	}
	if len(d.Incumbents) > 0 {
		fmt.Fprintf(w, "\nincumbent timeline:\n")
		for _, inc := range d.Incumbents {
			fmt.Fprintf(w, "  %10.3fms  width %-4d (%s)\n",
				float64(inc.Elapsed.Nanoseconds())/1e6, inc.Width, inc.Method)
		}
	}
}

// writePhaseSection renders the exclusive phase-clock table; shared by
// Diagnosis.Render and RenderBundle. coverage ≤ 0 means the wall clock is
// unknown and the shares are relative to the attributed total.
func writePhaseSection(w io.Writer, phases []PhaseReport, coverage, wallMs float64) {
	if len(phases) == 0 {
		return
	}
	if coverage > 0 {
		fmt.Fprintf(w, "\nphase time (%.1f%% of wall attributed):\n", coverage*100)
	} else {
		fmt.Fprintf(w, "\nphase time (shares of attributed total):\n")
	}
	var totalNs int64
	for _, p := range phases {
		totalNs += p.Ns
		fmt.Fprintf(w, "  %-14s %12s  %5.1f%%\n", p.Phase, fmtNs(float64(p.Ns)), p.Share*100)
	}
	if coverage > 0 && wallMs > 0 {
		if rem := wallMs*1e6 - float64(totalNs); rem > 0 {
			fmt.Fprintf(w, "  %-14s %12s  %5.1f%%\n", "(unattributed)", fmtNs(rem), (1-coverage)*100)
		}
	}
}

// writeRuleSection renders the prune-rule efficiency table; shared by
// Diagnosis.Render and RenderBundle.
func writeRuleSection(w io.Writer, rules []RuleReport) {
	if len(rules) == 0 {
		return
	}
	fmt.Fprintf(w, "\nprune rules (decision time vs subtrees closed):\n")
	fmt.Fprintf(w, "  %-14s %12s %12s %12s\n", "rule", "prunes", "time", "prunes/ms")
	for _, r := range rules {
		fmt.Fprintf(w, "  %-14s %12d %12s %12.1f\n", r.Rule, r.Prunes, fmtNs(float64(r.Ns)), r.PrunesPerMs)
	}
}

// writeBoundSection renders the -fracbound effectiveness summary; shared
// by Diagnosis.Render and RenderBundle. Nil (cascade never ran) writes
// nothing.
func writeBoundSection(w io.Writer, b *BoundReport) {
	if b == nil {
		return
	}
	fmt.Fprintf(w, "\nfractional bound: %d LP evals, %d/%d cascades beat k-set-cover",
		b.LPEvals, b.Wins, b.Cascades)
	if b.Cascades > 0 {
		fmt.Fprintf(w, " (%.1f%%)", b.WinRate*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  margin (width units): p50=%.0f p95=%.0f   decision time: %s\n",
		b.MarginP50, b.MarginP95, fmtNs(float64(b.RuleNs)))
}
