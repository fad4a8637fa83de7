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

// gen -list prints the two family lines it always printed, and every
// family it lists builds an instance that parses back in its format.
func TestGenBuildsEveryListedFamily(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdGen([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	want := "graph families (DIMACS output): queen, mycielski, grid2d, grid3d, clique, dsjc, geometric, kpartite\n" +
		"hypergraph families (TU-Wien output): adder, bridge, cliquehg, grid2dhg, chain, circuit\n"
	if out != want {
		t.Fatalf("gen -list printed\n%s\nwant\n%s", out, want)
	}
	// vertices parses a family's output, by the line that lists it.
	vertices := []func(string) (int, error){
		func(text string) (int, error) {
			g, err := hypergraph.ParseDIMACS(strings.NewReader(text))
			if err != nil {
				return 0, err
			}
			return g.NumVertices(), nil
		},
		func(text string) (int, error) {
			h, err := hypergraph.ParseHypergraph(strings.NewReader(text))
			if err != nil {
				return 0, err
			}
			return h.NumVertices(), nil
		},
	}
	for i, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		_, names, _ := strings.Cut(line, ": ")
		for _, name := range strings.Split(names, ", ") {
			text, err := captureStdout(t, func() error { return cmdGen([]string{"-family", name, "-n", "3"}) })
			if err != nil {
				t.Fatalf("gen -family %s: %v", name, err)
			}
			if n, err := vertices[i](text); err != nil || n == 0 {
				t.Errorf("gen -family %s: %d vertices, parse error %v", name, n, err)
			}
		}
	}
}
