package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
)

// TestDecomposeLedgerRecordsProof checks that decompose's ledger line
// carries what its run proved, as explain's does: on the 3×3 grid
// hypergraph bb proves ghw 2, so both lines read exact with lower bound 2
// and winner bb.
func TestDecomposeLedgerRecordsProof(t *testing.T) {
	dir := t.TempDir()
	instance := filepath.Join(dir, "grid3.hg")
	f, err := os.Create(instance)
	if err != nil {
		t.Fatal(err)
	}
	if err := hypergraph.WriteHypergraph(f, gen.Grid2DHypergraph(3, 3)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ledger := filepath.Join(dir, "runs.jsonl")
	for _, cmd := range []func([]string) error{cmdDecompose, cmdExplain} {
		if _, err := captureStdout(t, func() error {
			return cmd([]string{"-method", "bb", "-ledger", ledger, instance})
		}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("ledger has %d lines, want 2:\n%s", len(lines), data)
	}
	for _, line := range lines {
		var e ledgerEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		if e.Width != 2 || !e.Exact || e.LowerBound != 2 || e.Winner != "bb" {
			t.Errorf("%s line: width %v exact %v lower_bound %d winner %q, want 2 true 2 bb",
				e.Cmd, e.Width, e.Exact, e.LowerBound, e.Winner)
		}
	}
}

// TestLoadGraphReadsProblemLine checks that the format token of the first
// problem line picks the parser, not a "p tw" or "p edge" in a comment.
func TestLoadGraphReadsProblemLine(t *testing.T) {
	dir := t.TempDir()
	for name, text := range map[string]string{
		"dimacs.col": "c converted from the p tw format\np edge 3 2\ne 1 2\ne 2 3\n",
		"pace.gr":    "c converted from the p edge format\np tw 3 2\n1 2\n2 3\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := loadGraph(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumVertices() != 3 || g.NumEdges() != 2 {
			t.Errorf("%s: %d vertices, %d edges, want 3 and 2", name, g.NumVertices(), g.NumEdges())
		}
	}
}
