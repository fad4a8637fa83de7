// The CLI golden: the stdout of every htd command on small generated
// inputs, run through main's own dispatch, so a change to how the commands
// are wired must keep what each of them prints. Regenerate with
// `go test ./cmd/htd -run TestCLIGolden -update`.
package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
)

var updateCLIGolden = flag.Bool("update", false, "rewrite testdata/cli.golden from the current commands")

const cliGolden = "testdata/cli.golden"

// writeCLIInputs writes the golden's inputs into dir: a 3×3 grid
// hypergraph, adder_6, myciel3 as DIMACS and as PACE, a CSP, and a
// two-relation TSV database with a query, a batch file and a delta file.
func writeCLIInputs(t *testing.T, dir string) {
	t.Helper()
	write := func(name string, fn func(io.Writer) error) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(f); err != nil {
			f.Close()
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	text := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	write("grid3.hg", func(w io.Writer) error { return hypergraph.WriteHypergraph(w, gen.Grid2DHypergraph(3, 3)) })
	write("adder6.hg", func(w io.Writer) error { return hypergraph.WriteHypergraph(w, gen.Adder(6)) })
	write("myciel3.col", func(w io.Writer) error { return hypergraph.WriteDIMACS(w, gen.Mycielski(3)) })
	write("myciel3.gr", func(w io.Writer) error { return hypergraph.WritePACE(w, gen.Mycielski(3)) })
	write("triangle.json", text(`{
  "variables": [{"name": "x", "domain": ["r", "g", "b"]}, {"name": "y", "domain": ["r", "g"]}, {"name": "z", "domain": ["r", "g", "b"]}],
  "constraints": [
    {"name": "xy", "scope": ["x", "y"], "tuples": [["r", "g"], ["g", "r"], ["b", "r"]]},
    {"name": "yz", "scope": ["y", "z"], "tuples": [["r", "g"], ["g", "b"], ["r", "b"]]},
    {"name": "xz", "scope": ["x", "z"], "tuples": [["r", "b"], ["b", "g"], ["g", "b"]]}
  ]
}
`))
	write("db/r.tsv", text("# r(src, dst)\na\tb\nb\tc\nc\td\nd\ta\n"))
	write("db/s.tsv", text("b\tx\nc\ty\nd\tx\n\ne\tz\n"))
	write("path.cq", text("ans(X,Z) :- r(X,Y), s(Y,Z).\n"))
	write("batch.cq", text("# one query per line\nans(X,Z) :- r(X,Y), s(Y,Z).\n\nans(X) :- r(X,Y), r(Y,X).\nans(X,W) :- r(X,Y), r(Y,Z), s(Z,W).\n"))
	write("deltas.txt", text("# inserts and deletes\n+s\ta\tw\n-r\tb\tc\n+r\te\ta\n-s\td\tx\n"))
}

// cliGoldenRuns lists every command the golden pins, with the files a run
// writes besides its stdout. The portfolio runs use -jobs 1, which makes
// their witness reproducible; every other method is deterministic for the
// default seed.
var cliGoldenRuns = []struct {
	args  []string
	files []string
}{
	{args: []string{"validate", "adder6.hg"}},
	{args: []string{"bounds", "grid3.hg"}},
	{args: []string{"gen", "-family", "grid2dhg", "-n", "2"}},
	{args: []string{"solve", "triangle.json"}},
	{args: []string{"solve", "-count", "-method", "bb", "triangle.json"}},

	{args: []string{"decompose", "-method", "minfill", "-print", "grid3.hg"}},
	{args: []string{"decompose", "-method", "bb", "-print", "grid3.hg"}},
	{args: []string{"decompose", "-method", "astar", "grid3.hg"}},
	{args: []string{"decompose", "-method", "ga", "grid3.hg"}},
	{args: []string{"decompose", "-method", "saiga", "grid3.hg"}},
	{args: []string{"decompose", "-method", "fhw", "grid3.hg"}},
	{args: []string{"decompose", "-method", "balsep", "-print", "grid3.hg"}},
	{args: []string{"decompose", "-method", "portfolio", "-jobs", "1", "-print", "grid3.hg"}},
	{args: []string{"decompose", "-method", "bb", "-fracbound", "-dot", "adder6.dot", "-td", "adder6.td", "adder6.hg"},
		files: []string{"adder6.dot", "adder6.td"}},
	{args: []string{"decompose", "-method", "balsep", "-approx", "1", "adder6.hg"}},
	{args: []string{"decompose", "-method", "bb", "-maxnodes", "2", "-seed", "3", "adder6.hg"}},

	{args: []string{"explain", "-method", "bb", "grid3.hg"}},
	{args: []string{"explain", "-method", "minfill", "adder6.hg"}},
	{args: []string{"explain", "-method", "astar", "-fracbound", "grid3.hg"}},

	{args: []string{"tw", "-method", "bb", "myciel3.col"}},
	{args: []string{"tw", "-method", "astar", "myciel3.gr"}},
	{args: []string{"tw", "-method", "minfill", "myciel3.col"}},
	{args: []string{"tw", "-method", "ga", "myciel3.gr"}},
	{args: []string{"tw", "-method", "saiga", "-seed", "2", "myciel3.col"}},

	{args: []string{"hw", "-print", "grid3.hg"}},
	{args: []string{"hw", "adder6.hg"}},
	{args: []string{"hw", "-maxk", "1", "grid3.hg"}},

	{args: []string{"fhw", "grid3.hg"}},
	{args: []string{"fhw", "-rounds", "5", "-seed", "2", "adder6.hg"}},

	{args: []string{"query", "-q", "ans(X,Z) :- r(X,Y), s(Y,Z).", "db"}},
	{args: []string{"query", "-f", "path.cq", "-method", "bb", "-jobs", "1", "db"}},
	{args: []string{"query", "-f", "path.cq", "-boolean", "db"}},
	{args: []string{"query", "-q", "ans() :- r(X,Y), s(Y,Y).", "-boolean", "db"}},
	{args: []string{"query", "-batch", "-f", "batch.cq", "db"}},
	{args: []string{"query", "-f", "path.cq", "-watch", "deltas.txt", "db"}},
}

var (
	durationRE = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s)\b`)
	decimalRE  = regexp.MustCompile(`[0-9]+\.[0-9]+`)
	spacesRE   = regexp.MustCompile(` +`)
)

// scrubCLI normalises one run's output as CI's docs-drift step does:
// durations become "_", runs of spaces collapse and trailing spaces go.
// explain's timing-derived decimals are scrubbed too, and the rows of
// its tables are sorted, because their timings order them.
func scrubCLI(out string, explain bool) string {
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	for i, l := range lines {
		l = durationRE.ReplaceAllString(l, "_")
		if explain {
			l = decimalRE.ReplaceAllString(l, "_")
		}
		lines[i] = strings.TrimRight(spacesRE.ReplaceAllString(l, " "), " ")
	}
	if explain {
		for i := 0; i < len(lines); {
			j := i
			for j < len(lines) && strings.HasPrefix(lines[j], " ") {
				j++
			}
			if j > i {
				sort.Strings(lines[i:j])
				i = j
			} else {
				i++
			}
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// runHTD runs main with args as the command line and returns its stdout.
func runHTD(t *testing.T, args ...string) string {
	t.Helper()
	saved := os.Args
	os.Args = append([]string{"htd"}, args...)
	defer func() { os.Args = saved }()
	out, _ := captureStdout(t, func() error { main(); return nil })
	return out
}

// TestCLIGolden runs every command of cliGoldenRuns in a fresh directory
// and compares the scrubbed stdout (and the files a run writes) with
// testdata/cli.golden.
func TestCLIGolden(t *testing.T) {
	dir := t.TempDir()
	writeCLIInputs(t, dir)
	// The commands run in dir, so the golden names the inputs as given.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var b strings.Builder
	for _, run := range cliGoldenRuns {
		b.WriteString("$ htd " + strings.Join(run.args, " ") + "\n")
		b.WriteString(scrubCLI(runHTD(t, run.args...), run.args[0] == "explain"))
		for _, name := range run.files {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString("--- " + name + "\n")
			b.Write(data)
		}
	}
	got := b.String()
	golden := filepath.Join(wd, cliGolden)
	if *updateCLIGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("%s:%d differs (rerun with -update after an intended change):\nwant %q\ngot  %q", cliGolden, i+1, w, g)
		}
	}
}
