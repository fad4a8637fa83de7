package exp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Seed: 1, Runs: 2} }

// find returns the cell of the row whose first column equals name.
func cell(t *Table, name, col string) (string, bool) {
	ci := -1
	for i, h := range t.Header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		return "", false
	}
	for _, row := range t.Rows {
		if row[0] == name {
			return row[ci], true
		}
	}
	return "", false
}

func TestAllTablesRunAndRender(t *testing.T) {
	for _, id := range AllTableIDs {
		tbl, err := Run(id, quickCfg())
		if err != nil {
			t.Fatalf("table %s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("table %s: no rows", id)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Fatalf("table %s: row width %d != header %d", id, len(row), len(tbl.Header))
			}
		}
		out := tbl.Render()
		if !strings.Contains(out, "Table "+id) {
			t.Fatalf("table %s: render missing title:\n%s", id, out)
		}
	}
}

func TestRunUnknownTable(t *testing.T) {
	if _, err := Run("42.1", quickCfg()); err == nil {
		t.Fatal("unknown table accepted")
	}
}

// Shape check for Table 5.1: the exact-construction instances must be
// solved to their paper treewidth.
func TestTable5_1PaperAgreement(t *testing.T) {
	tbl := Table5_1(quickCfg())
	for _, name := range []string{"myciel3", "myciel4", "queen5_5"} {
		got, ok := cell(tbl, name, "A*-tw")
		if !ok {
			t.Fatalf("row %s missing", name)
		}
		paper, _ := cell(tbl, name, "paper")
		if got != paper {
			t.Fatalf("%s: A*-tw=%s, paper=%s", name, got, paper)
		}
		exact, _ := cell(tbl, name, "exact")
		if exact != "true" {
			t.Fatalf("%s not solved exactly", name)
		}
	}
}

// Shape check for Table 5.2: grids up to 5 are exact with width = n.
func TestTable5_2GridWidths(t *testing.T) {
	tbl := Table5_2(quickCfg())
	for n := 2; n <= 5; n++ {
		name := "grid" + strconv.Itoa(n)
		got, ok := cell(tbl, name, "A*-tw")
		if !ok {
			t.Fatalf("row %s missing", name)
		}
		if got != strconv.Itoa(n) {
			t.Fatalf("%s: width %s, want %d", name, got, n)
		}
	}
}

// Shape check for Table 8.1: BB-ghw certifies the known optima.
func TestTable8_1KnownOptima(t *testing.T) {
	tbl := Table8_1(quickCfg())
	for _, c := range []struct {
		name string
		ghw  string
	}{{"adder_10", "2"}, {"clique_10", "5"}, {"chain_15", "1"}} {
		got, ok := cell(tbl, c.name, "ub")
		if !ok {
			t.Fatalf("row %s missing", c.name)
		}
		if got != c.ghw {
			t.Fatalf("%s: ghw %s, want %s", c.name, got, c.ghw)
		}
		exact, _ := cell(tbl, c.name, "exact")
		if exact != "true" {
			t.Fatalf("%s not certified", c.name)
		}
	}
}

// Shape check for Table 7.1. The thesis's own GA-ghw misses the adder
// optimum (Table 7.1 reports 3 against the known ghw 2 for adder_75) —
// reproduce that shape: the GA lands within one of the optimum on the
// adder and finds the exact optimum on the acyclic chain.
func TestTable7_1GAShape(t *testing.T) {
	tbl := Table7_1(quickCfg())
	got, ok := cell(tbl, "adder_10", "min")
	if !ok {
		t.Fatal("row adder_10 missing")
	}
	if got != "2" && got != "3" {
		t.Fatalf("adder_10: GA-ghw min %s, want 2 or 3 (thesis found 3)", got)
	}
	got, ok = cell(tbl, "chain_15", "min")
	if !ok {
		t.Fatal("row chain_15 missing")
	}
	if got != "1" {
		t.Fatalf("chain_15: GA-ghw min %s, want 1", got)
	}
}

// Table S.1 must witness the width-measure chain fhw ≤ ghw ≤ hw on the
// instances where all three are resolved.
func TestTableS1WidthChain(t *testing.T) {
	tbl := TableS1(quickCfg())
	hi := map[string]int{}
	for i, h := range tbl.Header {
		hi[h] = i
	}
	for _, row := range tbl.Rows {
		var fhw float64
		var ghw, hw int
		if _, err := fmt.Sscanf(row[hi["fhw≤"]], "%f", &fhw); err != nil {
			t.Fatalf("%s: bad fhw cell %q", row[0], row[hi["fhw≤"]])
		}
		if _, err := fmt.Sscanf(row[hi["ghw"]], "%d", &ghw); err != nil {
			continue // open
		}
		if _, err := fmt.Sscanf(row[hi["hw"]], "%d", &hw); err != nil {
			continue // open
		}
		if float64(ghw) < fhw-1e-9 {
			t.Fatalf("%s: ghw %d < fhw %v", row[0], ghw, fhw)
		}
		if hw < ghw {
			t.Fatalf("%s: hw %d < ghw %d", row[0], hw, ghw)
		}
		if row[hi["acyclic"]] == "true" && ghw != 1 {
			t.Fatalf("%s: acyclic but ghw %d", row[0], ghw)
		}
	}
}

// Under Full, det-k's k = 6 level on clique_12 (hw 6) hits the guess cap.
// A level cut short leaves hw open: the cell reads "?" (or 6), never a
// larger width read off a later level.
func TestTableS1CappedLevelOpen(t *testing.T) {
	tbl := TableS1(Config{Seed: 1, Full: true})
	got, ok := cell(tbl, "clique_12", "hw")
	if !ok {
		t.Fatal("row clique_12 missing")
	}
	if got != "?" && got != "6" {
		t.Fatalf("clique_12: hw cell %q, want ? or 6", got)
	}
}

// Table 9.2 consistency: where both are exact, widths agree.
func TestTable9_2Consistency(t *testing.T) {
	tbl := Table9_2(quickCfg())
	hi := map[string]int{}
	for i, h := range tbl.Header {
		hi[h] = i
	}
	for _, row := range tbl.Rows {
		if row[hi["A* exact"]] == "true" && row[hi["BB exact"]] == "true" {
			if row[hi["A* width"]] != row[hi["BB width"]] {
				t.Fatalf("%s: A* %s != BB %s", row[0], row[hi["A* width"]], row[hi["BB width"]])
			}
		}
	}
}
