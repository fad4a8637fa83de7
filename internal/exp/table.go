// Package exp reproduces the evaluation of the thesis: one runner per
// table (5.1–9.2), each emitting the same columns the thesis reports, with
// the paper's reference values alongside for shape comparison. The runners
// are driven by cmd/htdbench and by the benchmarks in bench_test.go.
//
// Scale: the thesis ran hours on 2006 hardware; the default configuration
// shrinks budgets (search-node limits instead of wall-clock hours, smaller
// GA populations) while keeping every instance family and every compared
// algorithm, so the qualitative shape — who wins, where exact methods stop
// being exact — is preserved. Full-scale parameters are a Config away.
package exp

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config scales the experiments.
type Config struct {
	// Full selects paper-scale instances and budgets; the default is a
	// laptop-scale configuration that finishes in seconds per table.
	Full bool
	// Seed drives every randomised component.
	Seed int64
	// Runs is the number of repetitions for the stochastic algorithms
	// (the thesis uses 5 or 10); default 3.
	Runs int
}

func (c Config) runs() int {
	if c.Runs > 0 {
		return c.Runs
	}
	if c.Full {
		return 10
	}
	return 3
}

// twNodes is the node budget of the treewidth searches; tw nodes are cheap
// (degree step costs).
func (c Config) twNodes() int64 {
	if c.Full {
		return 5_000_000
	}
	return 20_000
}

// ghwNodes is the node budget of the ghw searches, whose per-node cost is
// dominated by exact set covers.
func (c Config) ghwNodes() int64 {
	if c.Full {
		return 200_000
	}
	return 4_000
}

// tables lists every reproducible table in thesis order, by its thesis
// number: Run and AllTableIDs read it.
var tables = []struct {
	id  string
	run func(Config) *Table
}{
	{"5.1", Table5_1}, {"5.2", Table5_2},
	{"6.1", Table6_1}, {"6.2", Table6_2}, {"6.3", Table6_3}, {"6.4", Table6_4}, {"6.5", Table6_5}, {"6.6", Table6_6},
	{"7.1", Table7_1}, {"7.2", Table7_2},
	{"8.1", Table8_1}, {"8.2", Table8_2},
	{"9.1", Table9_1}, {"9.2", Table9_2},
	{"S.1", TableS1},
}

// AllTableIDs lists every reproducible table in thesis order.
var AllTableIDs = func() []string {
	ids := make([]string, len(tables))
	for i, t := range tables {
		ids[i] = t.id
	}
	return ids
}()

// Run dispatches a table by its thesis number.
func Run(id string, cfg Config) (*Table, error) {
	for _, t := range tables {
		if t.id == id {
			return t.run(cfg), nil
		}
	}
	return nil, fmt.Errorf("exp: unknown table %q (know 5.1–9.2 and S.1)", id)
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
