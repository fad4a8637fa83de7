// Command htd is the command-line front end of the hypertree decomposition
// toolkit.
//
// Usage:
//
//	htd decompose -method bb [-seed N] [-maxnodes N] [-timeout D] [-v] [-pprof :6060] file.hg
//	htd explain -method bb -fracbound file.hg
//	htd bounds file.hg
//	htd validate file.hg
//	htd gen -family adder -n 20 > adder_20.hg
//	htd tw -method portfolio -timeout 5s -v file.col
//	htd query -q 'ans(X,Z) :- r(X,Y), s(Y,Z).' datadir
//
// Hypergraph files use the TU-Wien "edge(v1,…)," format; graph files use
// DIMACS .col or PACE .gr. `htd gen -list` shows the instance families;
// `htd help` lists every command.
//
// Observability: on decompose, explain, tw, hw, fhw and query, -v streams
// structured progress (anytime incumbents, method phases, portfolio worker
// outcomes and a final counter summary) to stderr, -pprof ADDR serves
// net/http/pprof plus the live search counters as expvar key "htd_search"
// on /debug/vars, -trace FILE exports the run's structured timeline as
// Chrome trace-event JSON (one track per portfolio worker; open it in
// Perfetto or chrome://tracing), -ledger FILE appends a one-line JSON
// run record, and -postmortem DIR arms a flight recorder that dumps a
// diagnosable bundle (trace, stats, heap and goroutine profiles) when the
// run dies by deadline, cancellation, or panic — `htd report DIR` renders
// it. With -timeout the exit status is 0 whenever a decomposition
// (or width bound) was produced — the anytime incumbent — and nonzero
// only when the deadline struck before any incumbent existed; the message
// says which happened.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hypertree"
	"hypertree/internal/csp"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/telemetry"
)

// commands is htd's command table, in usage order: main dispatches on it
// and usage prints it. obs marks the commands that run in a frame and so
// take the observability flags.
var commands = []struct {
	name, help string
	obs        bool
	run        func(args []string) error
}{
	{"decompose", "compute a GHD of a hypergraph file (-method " + htd.MethodNames(false) + ")", true, cmdDecompose},
	{"tw", "compute the treewidth of a DIMACS or PACE graph file", true, cmdTreewidth},
	{"hw", "compute the exact hypertree width via det-k-decomp", true, cmdHypertreeWidth},
	{"fhw", "anytime fractional hypertree width upper bound (-timeout/-jobs/-rounds)", true, cmdFractional},
	{"bounds", "print fast lower/upper bounds (tw and ghw) of a hypergraph", false, cmdBounds},
	{"validate", "parse and sanity-check a hypergraph file", false, cmdValidate},
	{"gen", "generate benchmark instances (-list for families)", false, cmdGen},
	{"solve", "solve a CSP instance (JSON) via decomposition (-count for #CSP)", false, cmdSolve},
	{"query", `answer a conjunctive query (-q "ans(X):-r(X,Y)" or -f file) over TSV
             relations, with -method/-jobs/-timeout and -boolean (satisfiability only)`, true, cmdQuery},
	{"explain", `run a decomposition with full cost attribution and print a diagnosis
             report (phase clocks, prune-rule efficiency, bound quality; -json)`, true, cmdExplain},
	{"report", "render a post-mortem bundle (from -postmortem) as a readable summary", false, cmdReport},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "help" || name == "-h" || name == "--help" {
		usage()
		return
	}
	for _, c := range commands {
		if c.name == name {
			if err := c.run(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "htd:", err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "htd: unknown command %q\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	var obs []string
	fmt.Fprint(os.Stderr, "htd — tree and generalized hypertree decompositions\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", c.name, c.help)
		if c.obs {
			obs = append(obs, c.name)
		}
	}
	fmt.Fprintf(os.Stderr, `
observability (%s):
  -v            stream progress (incumbents, phases, portfolio workers) to stderr
  -pprof :6060  serve net/http/pprof + expvar search counters (/debug/vars) +
                Prometheus text-format metrics (/metrics)
  -trace f.json write the run timeline as Chrome trace-event JSON (open in Perfetto)
  -ledger f.jsonl append a one-line JSON run record (append-only run ledger)
  -postmortem d arm the flight recorder: on deadline, cancellation, or panic, dump a
                post-mortem bundle (trace, stats, heap, goroutines) into directory d
`, strings.Join(obs, ", "))
}

// hypergraphArg loads the one hypergraph file fs's command takes.
func hypergraphArg(fs *flag.FlagSet) (*htd.Hypergraph, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("%s: need exactly one hypergraph file", fs.Name())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return htd.ParseHypergraph(f)
}

// loadGraph reads a graph file as DIMACS ("p edge") or PACE ("p tw"), as
// the format token of its first problem line says.
func loadGraph(path string) (*htd.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	parse := htd.ParseDIMACS
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "p" {
			if len(f) > 1 && f[1] == "tw" {
				parse = hypergraph.ParsePACE
			}
			break
		}
	}
	return parse(bytes.NewReader(data))
}

func cmdDecompose(args []string) error { return decompose("decompose", args) }

func cmdExplain(args []string) error { return decompose("explain", args) }

// decompose runs decompose and explain, which share their flags and one
// ExplainCtx run: decompose prints the decomposition, explain a diagnosis
// of the run — where the wall time went (exclusive phase clocks), which
// prune rules earned their decision time, how the cover cache performed,
// and with -fracbound whether the LP bound cascade beat the k-set-cover
// base — as text or, with -json, as a structured document.
func decompose(cmd string, args []string) error {
	explain := cmd == "explain"
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	method := fs.String("method", "bb", "algorithm: "+htd.MethodNames(false))
	seed := fs.Int64("seed", 1, "random seed")
	maxNodes := fs.Int64("maxnodes", 0, "search node budget (0 = unbounded)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget, e.g. 500ms or 10s (0 = none); on expiry the best decomposition found so far is returned")
	jobs := fs.Int("jobs", 0, "max concurrent portfolio workers (0 = one per method); -method balsep is sequential and ignores it")
	approx := fs.Int("approx", 0, "balsep width slack: each level k may spend up to k+N separator edges before declaring failure (results beyond the level are flagged inexact); other methods ignore it")
	fracBound := fs.Bool("fracbound", false, "prune bb/astar with the fractional (LP) residual lower bound — same widths, fewer nodes on tightly covered instances")
	var show, jsonOut *bool
	var dotOut, tdOut *string
	if explain {
		jsonOut = fs.Bool("json", false, "emit the diagnosis as a JSON document instead of text")
	} else {
		show = fs.Bool("print", false, "print the decomposition tree")
		dotOut = fs.String("dot", "", "write the decomposition as Graphviz DOT to this file")
		tdOut = fs.String("td", "", "write the decomposition in PACE .td format to this file")
	}
	of := addObsFlags(fs)
	fs.Parse(args)
	h, err := hypergraphArg(fs)
	if err != nil {
		return err
	}
	m, err := htd.ParseMethod(*method)
	if err != nil {
		return err
	}
	var d *htd.Decomposition
	var res htd.Result
	var st *htd.Stats
	f := frame{cmd: cmd, instance: fs.Arg(0), method: m.String(), noun: "decomposition", timeout: *timeout, flags: of}
	wall, err := f.run(func(ctx context.Context, s *obsSession) (outcome, error) {
		if explain && s.stats == nil {
			// The diagnosis reads counters whatever the observability flags.
			s.stats = new(htd.Stats)
		}
		st = s.stats
		var err error
		d, res, err = htd.ExplainCtx(ctx, h, s.options(htd.Options{
			Method: m, Seed: *seed, MaxNodes: *maxNodes, Jobs: *jobs, FracBound: *fracBound, Approx: *approx,
		}))
		if err != nil {
			return outcome{}, err
		}
		return outcome{width: float64(d.GHWidth()), res: res, final: res.Exact}, nil
	})
	if err != nil {
		return err
	}
	if explain {
		diag := telemetry.NewDiagnosis(st.Snapshot(), st.Trace(), wall)
		diag.Instance = fs.Arg(0)
		diag.Method = m.String()
		diag.Width = float64(d.GHWidth())
		diag.LowerBound = res.LowerBound
		diag.Exact = res.Exact
		diag.Winner = res.Winner
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(diag)
		}
		diag.Render(os.Stdout)
		return nil
	}
	fmt.Printf("instance: %s (%d vertices, %d hyperedges, acyclic: %v)\n",
		fs.Arg(0), h.NumVertices(), h.NumEdges(), h.IsAcyclic())
	fmt.Printf("method: %s, ghw upper bound: %d, tree width: %d, nodes: %d, time: %s\n",
		m, d.GHWidth(), d.Width(), d.NumNodes(), wall.Round(time.Millisecond))
	if *show {
		fmt.Print(d.String())
	}
	if *dotOut != "" {
		if err := writeFile(*dotOut, d.WriteDOT); err != nil {
			return err
		}
	}
	if *tdOut != "" {
		return writeFile(*tdOut, d.WriteTD)
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdHypertreeWidth(args []string) error {
	fs := flag.NewFlagSet("hw", flag.ExitOnError)
	maxK := fs.Int("maxk", 0, "largest width to try (0 = no cap)")
	show := fs.Bool("print", false, "print the decomposition tree")
	of := addObsFlags(fs)
	fs.Parse(args)
	h, err := hypergraphArg(fs)
	if err != nil {
		return err
	}
	var w int
	var d *htd.Decomposition
	f := frame{cmd: "hw", instance: fs.Arg(0), method: "detk", noun: "hypertree decomposition", flags: of}
	wall, err := f.run(func(ctx context.Context, s *obsSession) (outcome, error) {
		var err error
		w, d, err = htd.HypertreeWidthCtx(ctx, h, *maxK, s.stats, s.trace)
		return outcome{width: float64(w), res: htd.Result{Width: w, LowerBound: w, Exact: w >= 0}, final: true}, err
	})
	if err != nil {
		return err
	}
	if w < 0 {
		fmt.Printf("hypertree width exceeds %d (%s)\n", *maxK, wall.Round(time.Millisecond))
		return nil
	}
	fmt.Printf("hypertree width: %d (%s)\n", w, wall.Round(time.Millisecond))
	if *show {
		fmt.Print(d.String())
	}
	return nil
}

func cmdFractional(args []string) error {
	fs := flag.NewFlagSet("fhw", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed")
	rounds := fs.Int64("rounds", 0, "local-search round budget per worker (0 = default)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget, e.g. 500ms or 10s (0 = none); on expiry the best bound found so far is returned")
	jobs := fs.Int("jobs", 0, "parallel local-search workers sharing one cover memo (0 = one)")
	of := addObsFlags(fs)
	fs.Parse(args)
	h, err := hypergraphArg(fs)
	if err != nil {
		return err
	}
	var res htd.FHWResult
	f := frame{cmd: "fhw", instance: fs.Arg(0), method: "fhw", noun: "fractional width bound", timeout: *timeout, flags: of}
	wall, err := f.run(func(ctx context.Context, s *obsSession) (outcome, error) {
		var err error
		res, err = htd.FHWCtx(ctx, h, s.options(htd.Options{Seed: *seed, MaxNodes: *rounds, Jobs: *jobs}))
		return outcome{width: res.Width, res: htd.Result{FracWidth: res.Width}, final: res.Complete}, err
	})
	if err != nil {
		return err
	}
	fmt.Printf("instance: %s (%d vertices, %d hyperedges)\n", fs.Arg(0), h.NumVertices(), h.NumEdges())
	fmt.Printf("fractional hypertree width ≤ %.4f (complete: %v, rounds: %d, workers: %d, %s)\n",
		res.Width, res.Complete, res.Rounds, res.Workers, wall.Round(time.Millisecond))
	return nil
}

func cmdTreewidth(args []string) error {
	fs := flag.NewFlagSet("tw", flag.ExitOnError)
	method := fs.String("method", "bb", "algorithm: "+htd.MethodNames(true))
	seed := fs.Int64("seed", 1, "random seed")
	maxNodes := fs.Int64("maxnodes", 0, "search node budget (0 = unbounded)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget, e.g. 500ms or 10s (0 = none); on expiry the best bounds found so far are returned")
	jobs := fs.Int("jobs", 0, "max concurrent portfolio workers (0 = one per method)")
	of := addObsFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("tw: need exactly one DIMACS file")
	}
	g, err := loadGraph(fs.Arg(0))
	if err != nil {
		return err
	}
	m, err := htd.ParseMethod(*method)
	if err != nil {
		return err
	}
	var res htd.Result
	f := frame{cmd: "tw", instance: fs.Arg(0), method: m.String(), noun: "width bounds", timeout: *timeout, flags: of}
	wall, err := f.run(func(ctx context.Context, s *obsSession) (outcome, error) {
		var err error
		res, err = htd.TreewidthCtx(ctx, g, s.options(htd.Options{Method: m, Seed: *seed, MaxNodes: *maxNodes, Jobs: *jobs}))
		return outcome{width: float64(res.Width), res: res, final: res.Exact}, err
	})
	if err != nil {
		return err
	}
	fmt.Printf("instance: %s (%d vertices, %d edges)\n", fs.Arg(0), g.NumVertices(), g.NumEdges())
	fmt.Printf("method: %s, width: %d, lower bound: %d, exact: %v, nodes: %d, time: %s\n",
		m, res.Width, res.LowerBound, res.Exact, res.Nodes, wall.Round(time.Millisecond))
	if m == htd.MethodPortfolio && res.Winner != "" {
		line := fmt.Sprintf("winner: %s", res.Winner)
		if res.LowerBoundBy != "" {
			line += fmt.Sprintf(", lower bound by: %s", res.LowerBoundBy)
		}
		fmt.Println(line)
	}
	return nil
}

func cmdBounds(args []string) error {
	fs := flag.NewFlagSet("bounds", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	h, err := hypergraphArg(fs)
	if err != nil {
		return err
	}
	lb, ub := htd.TreewidthBounds(h.PrimalGraph(), *seed)
	fmt.Printf("treewidth: %d ≤ tw ≤ %d\n", lb, ub)
	glb := htd.GHWLowerBound(h, *seed)
	d, err := htd.Decompose(h, htd.Options{Method: htd.MethodMinFill, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("generalized hypertree width: %d ≤ ghw ≤ %d\n", glb, d.GHWidth())
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	fs.Parse(args)
	h, err := hypergraphArg(fs)
	if err != nil {
		return err
	}
	fmt.Printf("ok: %d vertices, %d hyperedges, max arity %d\n",
		h.NumVertices(), h.NumEdges(), h.MaxEdgeSize())
	return nil
}

func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	method := fs.String("method", "minfill", "decomposition method: "+htd.MethodNames(false))
	seed := fs.Int64("seed", 1, "random seed")
	count := fs.Bool("count", false, "count all solutions (#CSP) instead of finding one")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("solve: need exactly one CSP JSON file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	c, names, err := csp.ReadJSON(f)
	if err != nil {
		return err
	}
	m, err := htd.ParseMethod(*method)
	if err != nil {
		return err
	}
	opt := htd.Options{Method: m, Seed: *seed}
	h := c.Hypergraph()
	fmt.Printf("instance: %d variables, %d constraints, ghw lb %d\n",
		c.NumVars(), len(c.Constraints), htd.GHWLowerBound(h, *seed))
	start := time.Now()
	if *count {
		n, err := htd.CountCSP(c, opt)
		if err != nil {
			return err
		}
		fmt.Printf("solutions: %d (%s)\n", n, time.Since(start).Round(time.Millisecond))
		return nil
	}
	sol, ok, err := htd.SolveCSP(c, opt)
	if err != nil {
		return err
	}
	if !ok {
		fmt.Printf("UNSATISFIABLE (%s)\n", time.Since(start).Round(time.Millisecond))
		return nil
	}
	fmt.Printf("SATISFIABLE (%s)\n%s", time.Since(start).Round(time.Millisecond),
		csp.FormatSolution(c, names, sol))
	return nil
}

// cmdQuery answers a conjunctive query over relations loaded from TSV
// files named <relation>.tsv in the given directory. The query comes from
// -q (inline) or -f (file); evaluation runs the parallel context-aware
// Yannakakis engine in a frame like the decomposition commands'.
func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	queryText := fs.String("q", "", "query text, e.g. 'ans(X,Z) :- r(X,Y), s(Y,Z).'")
	queryFile := fs.String("f", "", "read the query from this file instead of -q")
	method := fs.String("method", "minfill", "decomposition algorithm: "+htd.MethodNames(false))
	seed := fs.Int64("seed", 1, "random seed")
	jobs := fs.Int("jobs", 0, "max concurrent evaluation workers (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget, e.g. 500ms (0 = none); on expiry evaluation aborts")
	boolOnly := fs.Bool("boolean", false, "decide satisfiability only (stops after the full reducer, no answers materialized)")
	batchMode := fs.Bool("batch", false, "batch mode: the query source holds one query per line, evaluated with shared base-relation interning (default min-fill plan per shape)")
	watchFile := fs.String("watch", "", "incremental mode: after answering, apply the delta stream from this file (+rel\\tv1\\tv2 inserts, -rel\\t... deletes) through a standing query")
	of := addObsFlags(fs)
	fs.Parse(args)
	if (*queryText == "") == (*queryFile == "") || fs.NArg() != 1 {
		return fmt.Errorf("query: usage: htd query (-q 'ans(X) :- r(X,Y).' | -f query.cq) datadir")
	}
	if *batchMode && (*boolOnly || *watchFile != "") {
		return fmt.Errorf("query: -batch is exclusive with -boolean and -watch")
	}
	if *watchFile != "" && *boolOnly {
		return fmt.Errorf("query: -watch is exclusive with -boolean")
	}
	text := *queryText
	if *queryFile != "" {
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		text = string(data)
	}
	var deltas []byte
	if *watchFile != "" {
		var err error
		if deltas, err = os.ReadFile(*watchFile); err != nil {
			return err
		}
	}
	db, err := loadQueryDatabase(fs.Arg(0))
	if err != nil {
		return err
	}
	m, err := htd.ParseMethod(*method)
	if err != nil {
		return err
	}
	if *batchMode {
		return runQueryBatch(text, db, fs.Arg(0), *jobs, *timeout, of)
	}
	q, err := htd.ParseQuery(text)
	if err != nil {
		return err
	}
	h := q.Hypergraph()
	fmt.Printf("query hypergraph: %d variables, %d atoms, acyclic: %v\n",
		h.NumVertices(), h.NumEdges(), h.IsAcyclic())
	cmd := "query"
	if *watchFile != "" {
		cmd = "query-watch"
	}
	var rows [][]string
	var sat bool
	applied := 0
	f := frame{cmd: cmd, instance: fs.Arg(0), method: m.String(), noun: "answers", timeout: *timeout, flags: of}
	wall, err := f.run(func(ctx context.Context, s *obsSession) (outcome, error) {
		opt := s.options(htd.Options{Method: m, Seed: *seed, Jobs: *jobs})
		d, err := htd.DecomposeCtx(ctx, h, opt)
		if err != nil {
			return outcome{}, err
		}
		fmt.Printf("decomposition: method %s, ghw upper bound %d, %d nodes\n",
			m, d.GHWidth(), d.NumNodes())
		switch {
		case *watchFile != "":
			rows, applied, err = watchDeltas(ctx, q, db, d, opt, *watchFile, string(deltas))
		case *boolOnly:
			sat, err = htd.BooleanQueryWithCtx(ctx, q, db, d, opt)
		default:
			rows, err = htd.AnswerQueryWithCtx(ctx, q, db, d, opt)
		}
		return outcome{width: float64(d.GHWidth()), final: true}, err
	})
	if err != nil {
		return err
	}
	switch {
	case *watchFile != "":
		fmt.Printf("%d answers after %d deltas (%s)\n", len(rows), applied, wall.Round(time.Millisecond))
	case sat:
		fmt.Printf("SATISFIABLE (%s)\n", wall.Round(time.Millisecond))
	case *boolOnly:
		fmt.Printf("UNSATISFIABLE (%s)\n", wall.Round(time.Millisecond))
	default:
		fmt.Printf("%d answers (%s)\n", len(rows), wall.Round(time.Millisecond))
	}
	printRows(rows)
	return nil
}

// runQueryBatch evaluates a multi-query source (one query per line, blank
// lines and # comments skipped) in one shared-base batch: hashed base
// relations are interned once and shape-identical queries reuse one
// decomposition.
func runQueryBatch(text string, db *htd.Database, datadir string, jobs int, timeout time.Duration, of *obsFlags) error {
	var qs []*htd.Query
	err := records(text, func(ln int, line string) error {
		q, err := htd.ParseQuery(line)
		if err != nil {
			return fmt.Errorf("query: line %d: %w", ln, err)
		}
		qs = append(qs, q)
		return nil
	})
	if err != nil {
		return err
	}
	if len(qs) == 0 {
		return fmt.Errorf("query: -batch source holds no queries")
	}
	var results [][][]string
	f := frame{cmd: "query-batch", instance: datadir, method: "minfill", noun: "answers", timeout: timeout, flags: of}
	wall, err := f.run(func(ctx context.Context, s *obsSession) (outcome, error) {
		var err error
		results, err = htd.AnswerQueryBatchCtx(ctx, qs, db, s.options(htd.Options{Jobs: jobs}))
		return outcome{final: true}, err
	})
	if err != nil {
		return err
	}
	total := 0
	for i, rows := range results {
		fmt.Printf("-- %s\n%d answers\n", qs[i], len(rows))
		printRows(rows)
		total += len(rows)
	}
	fmt.Printf("batch: %d queries, %d answers (%s)\n", len(qs), total, wall.Round(time.Millisecond))
	return nil
}

// watchDeltas serves q incrementally: it opens a standing query over db,
// then applies the delta stream text read from the file name — one delta
// per line, "+rel\tv1\tv2" inserting and "-rel\tv1\tv2" deleting a tuple
// — re-answering after each via delta propagation. Blank lines and #
// comments are skipped. It returns the final answers and the number of
// deltas applied.
func watchDeltas(ctx context.Context, q *htd.Query, db *htd.Database, d *htd.Decomposition, opt htd.Options, name, text string) ([][]string, int, error) {
	sq, err := htd.OpenStandingQueryWith(ctx, q, db, d, opt)
	if err != nil {
		return nil, 0, err
	}
	fmt.Printf("standing: %d answers initially\n", len(sq.Answers()))
	applied := 0
	err = records(text, func(ln int, line string) error {
		op := line[0]
		if op != '+' && op != '-' {
			return fmt.Errorf("query: %s:%d: delta must start with + or -", name, ln)
		}
		parts := strings.Split(line[1:], "\t")
		if parts[0] == "" {
			return fmt.Errorf("query: %s:%d: missing relation name", name, ln)
		}
		rel, tuple := parts[0], parts[1:]
		apply := sq.Insert
		if op == '-' {
			apply = sq.Delete
		}
		if err := apply(ctx, rel, tuple...); err != nil {
			return fmt.Errorf("query: %s:%d: %w", name, ln, err)
		}
		applied++
		fmt.Printf("delta %c%s(%s): %d answers\n", op, rel, strings.Join(tuple, ", "), len(sq.Answers()))
		return nil
	})
	return sq.Answers(), applied, err
}

// loadQueryDatabase reads every <relation>.tsv of dir into a CQ database:
// one tuple per line, tab-separated, # comments and blank lines skipped.
func loadQueryDatabase(dir string) (*htd.Database, error) {
	db := htd.NewDatabase()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".tsv") {
			continue
		}
		data, err := os.ReadFile(dir + "/" + e.Name())
		if err != nil {
			return nil, err
		}
		rel := strings.TrimSuffix(e.Name(), ".tsv")
		records(string(data), func(_ int, line string) error {
			db.Add(rel, strings.Split(line, "\t")...)
			return nil
		})
	}
	return db, nil
}

// records calls fn with each line of text that is neither blank nor a #
// comment, trimmed, and its 1-based line number; it stops at fn's first
// error.
func records(text string, fn func(ln int, line string) error) error {
	for i, line := range strings.Split(text, "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			if err := fn(i+1, line); err != nil {
				return err
			}
		}
	}
	return nil
}

func printRows(rows [][]string) {
	for _, r := range rows {
		fmt.Println(strings.Join(r, "\t"))
	}
}

// genArgs are the size and randomness flags of `htd gen`.
type genArgs struct {
	n, m int
	p    float64
	seed int64
}

// mOr returns the -m flag, or d when it is unset (0).
func (a genArgs) mOr(d int) int {
	if a.m == 0 {
		return d
	}
	return a.m
}

// genFamilies are the instance families of `htd gen`, in -list order. A
// graph family, written as DIMACS, sets graph; a hypergraph family,
// written as TU-Wien text, sets hyper.
var genFamilies = []struct {
	name  string
	graph func(genArgs) *hypergraph.Graph
	hyper func(genArgs) *hypergraph.Hypergraph
}{
	{name: "queen", graph: func(a genArgs) *hypergraph.Graph { return gen.Queen(a.n) }},
	{name: "mycielski", graph: func(a genArgs) *hypergraph.Graph { return gen.Mycielski(a.n) }},
	{name: "grid2d", graph: func(a genArgs) *hypergraph.Graph { return gen.Grid2D(a.n, a.mOr(a.n)) }},
	{name: "grid3d", graph: func(a genArgs) *hypergraph.Graph { return gen.Grid3D(a.n, a.n, a.n) }},
	{name: "clique", graph: func(a genArgs) *hypergraph.Graph { return gen.Clique(a.n) }},
	{name: "dsjc", graph: func(a genArgs) *hypergraph.Graph { return gen.ErdosRenyi(a.n, a.p, a.seed) }},
	{name: "geometric", graph: func(a genArgs) *hypergraph.Graph { return gen.RandomGeometric(a.n, a.p, a.seed) }},
	{name: "kpartite", graph: func(a genArgs) *hypergraph.Graph { return gen.KPartite(a.n, a.mOr(5), a.p, a.seed) }},
	{name: "adder", hyper: func(a genArgs) *hypergraph.Hypergraph { return gen.Adder(a.n) }},
	{name: "bridge", hyper: func(a genArgs) *hypergraph.Hypergraph { return gen.Bridge(a.n) }},
	{name: "cliquehg", hyper: func(a genArgs) *hypergraph.Hypergraph { return gen.CliqueHypergraph(a.n) }},
	{name: "grid2dhg", hyper: func(a genArgs) *hypergraph.Hypergraph { return gen.Grid2DHypergraph(a.n, a.mOr(a.n)) }},
	{name: "chain", hyper: func(a genArgs) *hypergraph.Hypergraph { return gen.Chain(a.n, 4, 2) }},
	{name: "circuit", hyper: func(a genArgs) *hypergraph.Hypergraph { return gen.Circuit(a.n, a.mOr(5*a.n), 4, a.seed) }},
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	family := fs.String("family", "", "instance family")
	n := fs.Int("n", 10, "size parameter")
	m := fs.Int("m", 0, "secondary size parameter (family-specific)")
	p := fs.Float64("p", 0.2, "edge probability (random families)")
	seed := fs.Int64("seed", 1, "random seed")
	list := fs.Bool("list", false, "list families")
	fs.Parse(args)
	if *list || *family == "" {
		var graphs, hypers []string
		for _, f := range genFamilies {
			if f.graph != nil {
				graphs = append(graphs, f.name)
			} else {
				hypers = append(hypers, f.name)
			}
		}
		fmt.Println("graph families (DIMACS output): " + strings.Join(graphs, ", "))
		fmt.Println("hypergraph families (TU-Wien output): " + strings.Join(hypers, ", "))
		return nil
	}
	a := genArgs{n: *n, m: *m, p: *p, seed: *seed}
	for _, f := range genFamilies {
		if f.name != strings.ToLower(*family) {
			continue
		}
		if f.graph != nil {
			return hypergraph.WriteDIMACS(os.Stdout, f.graph(a))
		}
		return hypergraph.WriteHypergraph(os.Stdout, f.hyper(a))
	}
	return fmt.Errorf("gen: unknown family %q", *family)
}
