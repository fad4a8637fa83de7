// Command htd is the command-line front end of the hypertree decomposition
// toolkit.
//
// Usage:
//
//	htd decompose -method bb [-seed N] [-maxnodes N] [-timeout D] [-v] [-pprof :6060] file.hg
//	htd bounds file.hg
//	htd validate file.hg
//	htd gen -family adder -n 20 > adder_20.hg
//	htd tw -method portfolio -timeout 5s -v file.col
//
// Hypergraph files use the TU-Wien "edge(v1,…)," format; graph files use
// DIMACS .col. `htd gen -list` shows the instance families.
//
// Observability: on decompose, tw, hw, and fhw, -v streams structured
// progress (anytime incumbents, method phases, portfolio worker outcomes
// and a final counter summary) to stderr, -pprof ADDR serves
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
	"context"
	"errors"
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
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "decompose":
		err = cmdDecompose(os.Args[2:])
	case "tw":
		err = cmdTreewidth(os.Args[2:])
	case "hw":
		err = cmdHypertreeWidth(os.Args[2:])
	case "fhw":
		err = cmdFractional(os.Args[2:])
	case "bounds":
		err = cmdBounds(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "solve":
		err = cmdSolve(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "htd: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "htd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `htd — tree and generalized hypertree decompositions

commands:
  decompose  compute a GHD of a hypergraph file (-method %s)
  tw         compute the treewidth of a DIMACS or PACE graph file
  hw         compute the exact hypertree width via det-k-decomp
  fhw        anytime fractional hypertree width upper bound (-timeout/-jobs/-rounds)
  bounds     print fast lower/upper bounds (tw and ghw) of a hypergraph
  validate   parse and sanity-check a hypergraph file
  gen        generate benchmark instances (-list for families)
  solve      solve a CSP instance (JSON) via decomposition (-count for #CSP)
  query      answer a conjunctive query (-q "ans(X):-r(X,Y)" or -f file) over TSV
             relations, with -method/-jobs/-timeout and -boolean (satisfiability only)
  explain    run a decomposition with full cost attribution and print a diagnosis
             report (phase clocks, prune-rule efficiency, bound quality; -json)
  report     render a post-mortem bundle (from -postmortem) as a readable summary

observability (decompose, tw, hw, fhw, query):
  -v            stream progress (incumbents, phases, portfolio workers) to stderr
  -pprof :6060  serve net/http/pprof + expvar search counters (/debug/vars) +
                Prometheus text-format metrics (/metrics)
  -trace f.json write the run timeline as Chrome trace-event JSON (open in Perfetto)
  -ledger f.jsonl append a one-line JSON run record (append-only run ledger)
  -postmortem d arm the flight recorder: on deadline, cancellation, or panic, dump a
                post-mortem bundle (trace, stats, heap, goroutines) into directory d
`, htd.MethodNames(false))
}

func loadHypergraph(path string) (*htd.Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return htd.ParseHypergraph(f)
}

// loadGraph reads a graph file, auto-detecting DIMACS "p edge" and PACE
// "p tw" headers.
func loadGraph(path string) (*htd.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.Contains(string(data), "p tw") {
		return hypergraph.ParsePACE(strings.NewReader(string(data)))
	}
	return htd.ParseDIMACS(strings.NewReader(string(data)))
}

func cmdDecompose(args []string) error {
	fs := flag.NewFlagSet("decompose", flag.ExitOnError)
	method := fs.String("method", "bb", "algorithm: "+htd.MethodNames(false))
	seed := fs.Int64("seed", 1, "random seed")
	maxNodes := fs.Int64("maxnodes", 0, "search node budget (0 = unbounded)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget, e.g. 500ms or 10s (0 = none); on expiry the best decomposition found so far is returned")
	jobs := fs.Int("jobs", 0, "max concurrent portfolio workers (0 = one per method); -method balsep is sequential and ignores it")
	approx := fs.Int("approx", 0, "balsep width slack: each level k may spend up to k+N separator edges before declaring failure (results beyond the level are flagged inexact); other methods ignore it")
	fracBound := fs.Bool("fracbound", false, "prune bb/astar with the fractional (LP) residual lower bound — same widths, fewer nodes on tightly covered instances")
	show := fs.Bool("print", false, "print the decomposition tree")
	dotOut := fs.String("dot", "", "write the decomposition as Graphviz DOT to this file")
	tdOut := fs.String("td", "", "write the decomposition in PACE .td format to this file")
	of := addObsFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("decompose: need exactly one hypergraph file")
	}
	h, err := loadHypergraph(fs.Arg(0))
	if err != nil {
		return err
	}
	m, err := htd.ParseMethod(*method)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	s := of.start()
	defer s.flight.HandlePanic()
	s.arm(ctx, "decompose", fs.Arg(0), m.String())
	start := time.Now()
	d, err := htd.DecomposeCtx(ctx, h, htd.Options{
		Method: m, Seed: *seed, MaxNodes: *maxNodes, Jobs: *jobs, FracBound: *fracBound,
		Approx: *approx, Stats: s.stats, Observer: s.obs, Trace: s.trace,
	})
	wall := time.Since(start)
	if err != nil {
		s.finish("decompose", fs.Arg(0), m.String(), 0, htd.Result{}, err, wall)
		// Deadline exit semantics: a context error here means no
		// decomposition was produced at all — only then is the exit
		// nonzero. A deadline that merely cut a search short still yields
		// the anytime incumbent below (exit 0, with a note).
		if isCtxErr(err) {
			return fmt.Errorf("no decomposition produced before the deadline (%w)", err)
		}
		return err
	}
	if err := s.finish("decompose", fs.Arg(0), m.String(), float64(d.GHWidth()), htd.Result{}, nil, wall); err != nil {
		return err
	}
	s.summarize(htd.Result{})
	// Compare wall clock, not ctx.Err(): the searches stop on their own
	// deadline polls, which can beat the context timer's delivery.
	if *timeout > 0 && time.Since(start) >= *timeout {
		fmt.Fprintln(os.Stderr, "htd: deadline expired; reporting the best decomposition found before it")
	}
	fmt.Printf("instance: %s (%d vertices, %d hyperedges, acyclic: %v)\n",
		fs.Arg(0), h.NumVertices(), h.NumEdges(), h.IsAcyclic())
	fmt.Printf("method: %s, ghw upper bound: %d, tree width: %d, nodes: %d, time: %s\n",
		m, d.GHWidth(), d.Width(), d.NumNodes(), time.Since(start).Round(time.Millisecond))
	if *show {
		fmt.Print(d.String())
	}
	if *dotOut != "" {
		if err := writeFile(*dotOut, d.WriteDOT); err != nil {
			return err
		}
	}
	if *tdOut != "" {
		if err := writeFile(*tdOut, d.WriteTD); err != nil {
			return err
		}
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
	if fs.NArg() != 1 {
		return fmt.Errorf("hw: need exactly one hypergraph file")
	}
	h, err := loadHypergraph(fs.Arg(0))
	if err != nil {
		return err
	}
	ctx := context.Background()
	s := of.start()
	defer s.flight.HandlePanic()
	s.arm(ctx, "hw", fs.Arg(0), "detk")
	start := time.Now()
	w, d, err := htd.HypertreeWidthCtx(ctx, h, *maxK, s.stats, s.trace)
	wall := time.Since(start)
	res := htd.Result{Width: w, LowerBound: w, Exact: w >= 0}
	if ferr := s.finish("hw", fs.Arg(0), "detk", float64(w), res, err, wall); ferr != nil {
		return ferr
	}
	if err != nil {
		return err
	}
	s.summarize(res)
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
	if fs.NArg() != 1 {
		return fmt.Errorf("fhw: need exactly one hypergraph file")
	}
	h, err := loadHypergraph(fs.Arg(0))
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	s := of.start()
	defer s.flight.HandlePanic()
	s.arm(ctx, "fhw", fs.Arg(0), "fhw")
	start := time.Now()
	res, err := htd.FHWCtx(ctx, h, htd.Options{
		Seed: *seed, MaxNodes: *rounds, Jobs: *jobs,
		Stats: s.stats, Observer: s.obs, Trace: s.trace,
	})
	wall := time.Since(start)
	if err != nil {
		s.finish("fhw", fs.Arg(0), "fhw", 0, htd.Result{}, err, wall)
		// Nonzero exit only when the deadline left us with no incumbent at
		// all; a cut-short local search reports its anytime bound below.
		if isCtxErr(err) {
			return fmt.Errorf("no fractional width bound produced before the deadline (%w)", err)
		}
		return err
	}
	if err := s.finish("fhw", fs.Arg(0), "fhw", res.Width, htd.Result{FracWidth: res.Width}, nil, wall); err != nil {
		return err
	}
	s.summarize(htd.Result{})
	// Wall clock, not ctx.Err(): see cmdDecompose.
	if *timeout > 0 && !res.Complete && time.Since(start) >= *timeout {
		fmt.Fprintln(os.Stderr, "htd: deadline expired; reporting the best bound found before it")
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
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	s := of.start()
	defer s.flight.HandlePanic()
	s.arm(ctx, "tw", fs.Arg(0), m.String())
	start := time.Now()
	res, err := htd.TreewidthCtx(ctx, g, htd.Options{
		Method: m, Seed: *seed, MaxNodes: *maxNodes, Jobs: *jobs,
		Stats: s.stats, Observer: s.obs, Trace: s.trace,
	})
	wall := time.Since(start)
	if err != nil {
		s.finish("tw", fs.Arg(0), m.String(), 0, htd.Result{}, err, wall)
		// Nonzero exit only when the deadline left us with no incumbent at
		// all; a cut-short search reports its anytime bounds below.
		if isCtxErr(err) {
			return fmt.Errorf("no width bounds produced before the deadline (%w)", err)
		}
		return err
	}
	if err := s.finish("tw", fs.Arg(0), m.String(), float64(res.Width), res, nil, wall); err != nil {
		return err
	}
	s.summarize(res)
	// Wall clock, not ctx.Err(): see cmdDecompose.
	if *timeout > 0 && !res.Exact && time.Since(start) >= *timeout {
		fmt.Fprintln(os.Stderr, "htd: deadline expired; reporting the best bounds found before it")
	}
	fmt.Printf("instance: %s (%d vertices, %d edges)\n", fs.Arg(0), g.NumVertices(), g.NumEdges())
	fmt.Printf("method: %s, width: %d, lower bound: %d, exact: %v, nodes: %d, time: %s\n",
		m, res.Width, res.LowerBound, res.Exact, res.Nodes, time.Since(start).Round(time.Millisecond))
	if m == htd.MethodPortfolio && res.Winner != "" {
		line := fmt.Sprintf("winner: %s", res.Winner)
		if res.LowerBoundBy != "" {
			line += fmt.Sprintf(", lower bound by: %s", res.LowerBoundBy)
		}
		fmt.Println(line)
	}
	return nil
}

// isCtxErr reports whether err is a deadline or cancellation error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

func cmdBounds(args []string) error {
	fs := flag.NewFlagSet("bounds", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("bounds: need exactly one hypergraph file")
	}
	h, err := loadHypergraph(fs.Arg(0))
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
	if fs.NArg() != 1 {
		return fmt.Errorf("validate: need exactly one hypergraph file")
	}
	h, err := loadHypergraph(fs.Arg(0))
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
// Yannakakis engine with the same observability flags as the
// decomposition subcommands.
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
	db, err := loadQueryDatabase(fs.Arg(0))
	if err != nil {
		return err
	}
	m, err := htd.ParseMethod(*method)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *batchMode {
		return runQueryBatch(ctx, text, db, fs.Arg(0), *jobs, of)
	}
	q, err := htd.ParseQuery(text)
	if err != nil {
		return err
	}
	h := q.Hypergraph()
	fmt.Printf("query hypergraph: %d variables, %d atoms, acyclic: %v\n",
		h.NumVertices(), h.NumEdges(), h.IsAcyclic())
	s := of.start()
	defer s.flight.HandlePanic()
	s.arm(ctx, "query", fs.Arg(0), m.String())
	opt := htd.Options{
		Method: m, Seed: *seed, Jobs: *jobs,
		Stats: s.stats, Observer: s.obs, Trace: s.trace,
	}
	start := time.Now()
	d, err := htd.DecomposeCtx(ctx, h, opt)
	if err != nil {
		s.finish("query", fs.Arg(0), m.String(), 0, htd.Result{}, err, time.Since(start))
		return err
	}
	fmt.Printf("decomposition: method %s, ghw upper bound %d, %d nodes\n",
		m, d.GHWidth(), d.NumNodes())
	if *watchFile != "" {
		return runQueryWatch(ctx, q, db, d, *watchFile, opt, s, fs.Arg(0), m.String(), start)
	}
	var rows [][]string
	var sat bool
	if *boolOnly {
		sat, err = htd.BooleanQueryWithCtx(ctx, q, db, d, opt)
	} else {
		rows, err = htd.AnswerQueryWithCtx(ctx, q, db, d, opt)
	}
	wall := time.Since(start)
	if ferr := s.finish("query", fs.Arg(0), m.String(), float64(d.GHWidth()), htd.Result{}, err, wall); ferr != nil {
		return ferr
	}
	if err != nil {
		return err
	}
	s.summarize(htd.Result{})
	if *boolOnly {
		if sat {
			fmt.Printf("SATISFIABLE (%s)\n", wall.Round(time.Millisecond))
		} else {
			fmt.Printf("UNSATISFIABLE (%s)\n", wall.Round(time.Millisecond))
		}
		return nil
	}
	fmt.Printf("%d answers (%s)\n", len(rows), wall.Round(time.Millisecond))
	for _, r := range rows {
		fmt.Println(strings.Join(r, "\t"))
	}
	return nil
}

// runQueryBatch evaluates a multi-query source (one query per line, blank
// lines and # comments skipped) in one shared-base batch: hashed base
// relations are interned once and shape-identical queries reuse one
// decomposition.
func runQueryBatch(ctx context.Context, text string, db *htd.Database, datadir string, jobs int, of *obsFlags) error {
	var qs []*htd.Query
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := htd.ParseQuery(line)
		if err != nil {
			return fmt.Errorf("query: line %d: %w", ln+1, err)
		}
		qs = append(qs, q)
	}
	if len(qs) == 0 {
		return fmt.Errorf("query: -batch source holds no queries")
	}
	s := of.start()
	defer s.flight.HandlePanic()
	s.arm(ctx, "query-batch", datadir, "minfill")
	opt := htd.Options{Jobs: jobs, Stats: s.stats, Observer: s.obs, Trace: s.trace}
	start := time.Now()
	results, err := htd.AnswerQueryBatchCtx(ctx, qs, db, opt)
	wall := time.Since(start)
	if ferr := s.finish("query-batch", datadir, "minfill", 0, htd.Result{}, err, wall); ferr != nil {
		return ferr
	}
	if err != nil {
		return err
	}
	s.summarize(htd.Result{})
	total := 0
	for i, rows := range results {
		fmt.Printf("-- %s\n%d answers\n", qs[i], len(rows))
		for _, r := range rows {
			fmt.Println(strings.Join(r, "\t"))
		}
		total += len(rows)
	}
	fmt.Printf("batch: %d queries, %d answers (%s)\n", len(qs), total, wall.Round(time.Millisecond))
	return nil
}

// runQueryWatch serves the query incrementally: it opens a standing query
// over the loaded database, then applies the delta stream from watchFile —
// one delta per line, "+rel\tv1\tv2" inserting and "-rel\tv1\tv2" deleting
// a tuple — re-answering after each via delta propagation. Blank lines and
// # comments are skipped. The final answer set is printed at the end.
func runQueryWatch(ctx context.Context, q *htd.Query, db *htd.Database, d *htd.Decomposition, watchFile string, opt htd.Options, s *obsSession, datadir, method string, start time.Time) error {
	data, err := os.ReadFile(watchFile)
	if err != nil {
		return err
	}
	sq, err := htd.OpenStandingQueryWith(ctx, q, db, d, opt)
	finishWatch := func(runErr error) error {
		wall := time.Since(start)
		if ferr := s.finish("query-watch", datadir, method, float64(d.GHWidth()), htd.Result{}, runErr, wall); ferr != nil {
			return ferr
		}
		return runErr
	}
	if err != nil {
		return finishWatch(err)
	}
	fmt.Printf("standing: %d answers initially\n", len(sq.Answers()))
	applied := 0
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		op := line[0]
		if op != '+' && op != '-' {
			return finishWatch(fmt.Errorf("query: %s:%d: delta must start with + or -", watchFile, ln+1))
		}
		parts := strings.Split(line[1:], "\t")
		if len(parts) < 1 || parts[0] == "" {
			return finishWatch(fmt.Errorf("query: %s:%d: missing relation name", watchFile, ln+1))
		}
		rel, tuple := parts[0], parts[1:]
		if op == '+' {
			err = sq.Insert(ctx, rel, tuple...)
		} else {
			err = sq.Delete(ctx, rel, tuple...)
		}
		if err != nil {
			return finishWatch(fmt.Errorf("query: %s:%d: %w", watchFile, ln+1, err))
		}
		applied++
		fmt.Printf("delta %c%s(%s): %d answers\n", op, rel, strings.Join(tuple, ", "), len(sq.Answers()))
	}
	if err := finishWatch(nil); err != nil {
		return err
	}
	s.summarize(htd.Result{})
	rows := sq.Answers()
	fmt.Printf("%d answers after %d deltas (%s)\n", len(rows), applied, time.Since(start).Round(time.Millisecond))
	for _, r := range rows {
		fmt.Println(strings.Join(r, "\t"))
	}
	return nil
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
		rel := strings.TrimSuffix(e.Name(), ".tsv")
		data, err := os.ReadFile(dir + "/" + e.Name())
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			db.Add(rel, strings.Split(line, "\t")...)
		}
	}
	return db, nil
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
		fmt.Println("graph families (DIMACS output): queen, mycielski, grid2d, grid3d, clique, dsjc, geometric, kpartite")
		fmt.Println("hypergraph families (TU-Wien output): adder, bridge, cliquehg, grid2dhg, chain, circuit")
		return nil
	}
	switch strings.ToLower(*family) {
	case "queen":
		return hypergraph.WriteDIMACS(os.Stdout, gen.Queen(*n))
	case "mycielski":
		return hypergraph.WriteDIMACS(os.Stdout, gen.Mycielski(*n))
	case "grid2d":
		cols := *m
		if cols == 0 {
			cols = *n
		}
		return hypergraph.WriteDIMACS(os.Stdout, gen.Grid2D(*n, cols))
	case "grid3d":
		return hypergraph.WriteDIMACS(os.Stdout, gen.Grid3D(*n, *n, *n))
	case "clique":
		return hypergraph.WriteDIMACS(os.Stdout, gen.Clique(*n))
	case "dsjc":
		return hypergraph.WriteDIMACS(os.Stdout, gen.ErdosRenyi(*n, *p, *seed))
	case "geometric":
		return hypergraph.WriteDIMACS(os.Stdout, gen.RandomGeometric(*n, *p, *seed))
	case "kpartite":
		parts := *m
		if parts == 0 {
			parts = 5
		}
		return hypergraph.WriteDIMACS(os.Stdout, gen.KPartite(*n, parts, *p, *seed))
	case "adder":
		return hypergraph.WriteHypergraph(os.Stdout, gen.Adder(*n))
	case "bridge":
		return hypergraph.WriteHypergraph(os.Stdout, gen.Bridge(*n))
	case "cliquehg":
		return hypergraph.WriteHypergraph(os.Stdout, gen.CliqueHypergraph(*n))
	case "grid2dhg":
		cols := *m
		if cols == 0 {
			cols = *n
		}
		return hypergraph.WriteHypergraph(os.Stdout, gen.Grid2DHypergraph(*n, cols))
	case "chain":
		return hypergraph.WriteHypergraph(os.Stdout, gen.Chain(*n, 4, 2))
	case "circuit":
		gates := *m
		if gates == 0 {
			gates = 5 * *n
		}
		return hypergraph.WriteHypergraph(os.Stdout, gen.Circuit(*n, gates, 4, *seed))
	}
	return fmt.Errorf("gen: unknown family %q", *family)
}
