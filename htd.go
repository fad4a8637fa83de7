// Package htd is a toolkit for structural decomposition of constraint
// satisfaction problems and conjunctive queries: tree decompositions
// (treewidth) and generalized hypertree decompositions (generalized
// hypertree width), together with the full heuristic-method suite of
// Schafhauser's "New Heuristic Methods for Tree Decompositions and
// Generalized Hypertree Decompositions" (TU Wien, 2006) — greedy ordering
// heuristics, genetic algorithms, a self-adaptive island GA, branch and
// bound, and A* — plus the CSP machinery to put decompositions to work
// (acyclic solving, join-tree clustering).
//
// # Quick start
//
//	h, _ := htd.ParseHypergraph(strings.NewReader("a(x,y), b(y,z), c(z,x)."))
//	d, _ := htd.Decompose(h, htd.Options{Method: htd.MethodBB})
//	fmt.Println(d.GHWidth()) // generalized hypertree width
//
// Vertices and hyperedges are dense integer indices with attached names;
// see Hypergraph. All algorithms are deterministic for a fixed Options.Seed.
//
// # Timeouts and the portfolio method
//
// Every entry point has a context-aware variant (DecomposeCtx, GHWCtx,
// TreewidthCtx) with an anytime contract: when the deadline fires
// mid-search the best valid incumbent found so far is returned with
// Exact=false, together with the strongest lower bound proven; only when
// cancellation strikes before any incumbent exists is the context error
// returned. MethodPortfolio races a configurable method set concurrently
// (Options.Portfolio, Options.Jobs). The proving seats (min-fill and the
// exact searches) start first; those that can only improve an incumbent
// (GA, SAIGA, fhw, balsep) wait until every proving seat has returned
// without a proof, or for a 50ms grace. The worker that proves the optimum cancels the race
// itself, so nothing starts after a proof. The winning width is
// deterministic for a fixed Seed: smallest width first, ties preferring
// exact results and then the earlier portfolio slot.
//
//	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
//	defer cancel()
//	d, err := htd.DecomposeCtx(ctx, h, htd.Options{Method: htd.MethodPortfolio})
package htd

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"hypertree/internal/astar"
	"hypertree/internal/bb"
	"hypertree/internal/bitset"
	"hypertree/internal/cover"
	"hypertree/internal/cq"
	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/detk"
	"hypertree/internal/elim"
	"hypertree/internal/frac"
	"hypertree/internal/ga"
	"hypertree/internal/heur"
	"hypertree/internal/hypergraph"
	"hypertree/internal/interrupt"
	"hypertree/internal/order"
	"hypertree/internal/search"
	"hypertree/internal/setcover"
	"hypertree/internal/telemetry"
)

// Core data types, re-exported from the internal packages.
type (
	// Hypergraph is an immutable hypergraph; build one with NewBuilder,
	// FromEdges, or the parsers.
	Hypergraph = hypergraph.Hypergraph
	// Graph is a simple undirected graph.
	Graph = hypergraph.Graph
	// Builder accumulates named vertices and hyperedges.
	Builder = hypergraph.Builder
	// Decomposition is a tree decomposition, optionally with λ labels
	// making it a generalized hypertree decomposition.
	Decomposition = decomp.Decomposition
	// Node is a decomposition node with χ and λ labels.
	Node = decomp.Node
	// Ordering is an elimination ordering; index 0 is eliminated first.
	Ordering = order.Ordering
	// Result reports a width search outcome (width, bounds, ordering).
	Result = search.Result
	// CSP is a constraint satisfaction problem.
	CSP = csp.CSP
	// Constraint is a scope + relation pair.
	Constraint = csp.Constraint
	// Relation is a finite relation over variable indices.
	Relation = csp.Relation
	// GAConfig holds genetic-algorithm control parameters.
	GAConfig = ga.Config
	// GAResult reports a WeightedTriangulation run.
	GAResult = ga.FloatResult
	// SAIGAConfig configures the self-adaptive island GA.
	SAIGAConfig = ga.SAIGAConfig
)

// Constructors and parsers.
var (
	// NewBuilder returns an empty hypergraph builder.
	NewBuilder = hypergraph.NewBuilder
	// NewGraph returns an edgeless graph with n vertices.
	NewGraph = hypergraph.NewGraph
	// FromEdges builds a hypergraph over n vertices from edge lists.
	FromEdges = hypergraph.FromEdges
	// FromGraph converts a graph to a binary-edge hypergraph.
	FromGraph = hypergraph.FromGraph
	// ParseHypergraph reads the TU-Wien "edge(v1,…)," format.
	ParseHypergraph = hypergraph.ParseHypergraph
	// ParseDIMACS reads a DIMACS graph-colouring file.
	ParseDIMACS = hypergraph.ParseDIMACS
	// WriteHypergraph writes the TU-Wien format.
	WriteHypergraph = hypergraph.WriteHypergraph
	// WriteDIMACS writes DIMACS format.
	WriteDIMACS = hypergraph.WriteDIMACS
	// NewRelation builds a CSP relation over a scope.
	NewRelation = csp.NewRelation
	// BuildJoinTree attempts to build a join tree (acyclic CSPs only): a
	// width-1 GHD that SolveCSPFromDecomposition solves.
	BuildJoinTree = csp.BuildJoinTree
	// IsAcyclic reports whether a CSP has a join tree.
	IsAcyclic = csp.IsAcyclic
)

// Method selects a decomposition algorithm.
type Method int

const (
	// MethodMinFill builds one decomposition from the min-fill ordering —
	// fast, no optimality guarantee.
	MethodMinFill Method = iota
	// MethodGA runs the genetic algorithm (GA-tw / GA-ghw).
	MethodGA
	// MethodSAIGA runs the self-adaptive island genetic algorithm.
	MethodSAIGA
	// MethodBB runs branch and bound (exact given budget).
	MethodBB
	// MethodAStar runs A* (exact given budget; anytime lower bounds).
	MethodAStar
	// MethodPortfolio races several methods concurrently (Options.Portfolio,
	// or the per-problem default portfolio when empty) and returns the best
	// answer. GA, SAIGA, fhw and balsep seats start only once the other
	// seats have returned without a proof, or after a 50ms grace; the
	// worker whose result is exact cancels the rest. Combine with
	// DecomposeCtx / GHWCtx / TreewidthCtx and a deadline for anytime
	// behaviour.
	MethodPortfolio
	// MethodFHW runs the anytime fractional-hypertree-width local search and
	// scores its best ordering with exact integral covers, so it can race in
	// the GHW portfolio on equal terms (Result.Width is the integral ghw of
	// the ordering; Result.FracWidth carries the fractional objective). GHW
	// and Decompose only; not valid for treewidth.
	MethodFHW
	// MethodBalSep runs the BalancedGo-style balanced-separator search
	// (Gottlob–Okulmus–Pichler) as an anytime engine: iterative deepening
	// from the tw-ksc lower bound, each level one sequential search with
	// separator enumeration fed by the run's shared cover oracle, and a
	// min-fill incumbent as the anytime fallback. Options.Approx trades
	// width slack for speed; Options.Jobs does not apply. GHW and
	// Decompose only; not valid for treewidth.
	MethodBalSep
)

// methods declares every method once, indexed by Method: the name the CLI
// tools and Method.String use, whether only ghw has it (fhw and balsep
// search no treewidth), and whether a portfolio holds its seat back until
// the proving seats have had their turn (the seats that, on the instances
// the exact searches close, can only improve an incumbent; see portfolio).
var methods = [...]struct {
	name    string
	ghwOnly bool
	held    bool
}{
	MethodMinFill:   {"minfill", false, false},
	MethodGA:        {"ga", false, true},
	MethodSAIGA:     {"saiga", false, true},
	MethodBB:        {"bb", false, false},
	MethodAStar:     {"astar", false, false},
	MethodPortfolio: {"portfolio", false, false},
	MethodFHW:       {"fhw", true, true},
	MethodBalSep:    {"balsep", true, true},
}

// MethodNames lists the method names in declaration order, joined by "|"
// for usage lines: every method, or with treewidth only those Treewidth
// accepts.
func MethodNames(treewidth bool) string {
	var names []string
	for _, m := range methods {
		if !treewidth || !m.ghwOnly {
			names = append(names, m.name)
		}
	}
	return strings.Join(names, "|")
}

// String names the method.
func (m Method) String() string {
	if m >= 0 && int(m) < len(methods) {
		return methods[m].name
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod parses a method name as used by the CLI tools.
func ParseMethod(s string) (Method, error) {
	for m, d := range methods {
		if d.name == s {
			return Method(m), nil
		}
	}
	return 0, fmt.Errorf("htd: unknown method %q (%s)", s, MethodNames(false))
}

// check reports why m cannot search the measure ms: an undeclared method,
// or a ghw-only one under treewidth.
func (m Method) check(ms search.Measure) error {
	if m < 0 || int(m) >= len(methods) {
		return fmt.Errorf("htd: unknown method %v", m)
	}
	if methods[m].ghwOnly && ms.H == nil {
		return fmt.Errorf("htd: %v is not a treewidth method", m)
	}
	return nil
}

// held reports whether a portfolio holds m's seat back until its proving
// seats have had their turn.
func (m Method) held() bool { return methods[m].held }

// Options configures Decompose and the width functions.
type Options struct {
	// Method selects the algorithm; MethodMinFill by default.
	Method Method
	// Seed drives all randomised components.
	Seed int64
	// MaxNodes bounds exact searches (0 = unbounded).
	MaxNodes int64
	// GA overrides the genetic algorithm parameters (nil = tuned
	// defaults scaled to the instance).
	GA *GAConfig
	// SAIGA overrides the island GA parameters.
	SAIGA *SAIGAConfig
	// Portfolio lists the methods MethodPortfolio races, in tie-break
	// priority order. Empty means DefaultPortfolio. MethodPortfolio itself
	// is not allowed as an entry.
	Portfolio []Method
	// Jobs caps how many portfolio workers run concurrently (≤ 0 = one per
	// method). Queued workers that a deadline or an exact answer overtakes
	// never start. Jobs=1 runs the methods sequentially, the proving seats
	// in slot order and then the held ones (see MethodPortfolio), which
	// makes the whole portfolio result — witness ordering and Nodes
	// included — reproducible for a fixed Seed. MethodBalSep is one
	// sequential search and ignores Jobs.
	Jobs int
	// Approx is MethodBalSep's width slack (the CLI's -approx N): each
	// deepening level k may spend up to k+Approx separator edges before
	// declaring failure, and levels advance by Approx+1. Witnesses whose
	// width exceeds the level that found them report Exact=false. Ignored
	// by every other method.
	Approx int
	// FracBound turns on the fractional residual lower bound in the exact
	// GHW searches (BB-ghw, A*-ghw): residual states additionally pay
	// ⌈ρ*(χ_v)⌉ for their cheapest next elimination, a bound at least as
	// strong as the default k-set-cover one. Widths and orderings are
	// identical with the knob on or off — only node counts change (an LP per
	// novel residual bag buys extra pruning). Ignored by treewidth and the
	// heuristic methods.
	FracBound bool
	// DisableCoverCache turns off the shared cover-oracle memo table the
	// GHW engines use (min-fill width evaluation, BB-ghw, A*-ghw, the final
	// λ-materialization, and every portfolio worker, which otherwise share
	// one table). The cache is invisible in results — everything it
	// memoizes is computed deterministically, so cached and uncached runs
	// return identical answers — making this knob useful only for
	// benchmarking cache effectiveness and bounding memory.
	DisableCoverCache bool
	// Stats, when non-nil, accumulates live telemetry: search counters
	// (nodes expanded, prunes by rule, GA progress, restarts) and the
	// anytime incumbent trace. Portfolio runs fold every worker's counters
	// into it and share its trace. Attaching Stats never changes the
	// computed decomposition; when both Stats and Observer are nil the
	// engines pay one nil check per instrumentation point.
	Stats *Stats
	// Observer, when non-nil, receives progress callbacks: incumbent
	// improvements, method phase transitions, and portfolio worker
	// outcomes. Hooks are invoked synchronously — from portfolio worker
	// goroutines under MethodPortfolio, so they must be safe for concurrent
	// use and cheap. Attaching an Observer never changes the computed
	// decomposition for a fixed Seed.
	Observer *Observer
	// Trace, when non-nil, records a structured timeline of the run into a
	// bounded event ring: method phase spans, sampled search-node batches,
	// GA generation ticks, cover-cache pulses, and incumbent instants —
	// one track per portfolio worker. Export it with Trace.WriteChrome
	// (Perfetto / chrome://tracing). Like Stats and Observer, tracing is
	// result-invisible: a nil Trace costs one nil check per point and
	// attaching one never changes the decomposition for a fixed Seed.
	Trace *Trace
}

func (o Options) gaConfig(n int) ga.Config {
	if o.GA != nil {
		c := *o.GA
		c.Seed = o.Seed
		return c
	}
	c := ga.DefaultConfig()
	// Scale the thesis's 2000×2000 defaults down for interactive use.
	c.PopulationSize = 100
	c.Generations = 150
	if n > 200 {
		c.Generations = 80
	}
	c.Seed = o.Seed
	return c
}

func (o Options) saigaConfig() ga.SAIGAConfig {
	if o.SAIGA != nil {
		c := *o.SAIGA
		c.Seed = o.Seed
		return c
	}
	c := ga.DefaultSAIGAConfig()
	c.IslandPop = 50
	c.Epochs = 10
	c.EpochLength = 10
	c.Seed = o.Seed
	return c
}

// Decompose computes a generalized hypertree decomposition of h with the
// selected method. The returned decomposition is validated and carries λ
// labels from exact set covers of the final ordering.
func Decompose(h *Hypergraph, opt Options) (*Decomposition, error) {
	return DecomposeCtx(context.Background(), h, opt)
}

// DecomposeCtx is Decompose under a context: pass a deadline (or cancel)
// to bound the run. When the context expires mid-search the best valid
// decomposition found so far is returned; only when cancellation strikes
// before any incumbent exists does DecomposeCtx return the context error.
// See the "Timeouts and the portfolio method" section of the README.
func DecomposeCtx(ctx context.Context, h *Hypergraph, opt Options) (*Decomposition, error) {
	d, _, err := ExplainCtx(ctx, h, opt)
	return d, err
}

// ExplainCtx is DecomposeCtx returning the search Result alongside the
// decomposition: the Result carries exactness, the strongest lower bound
// proven, and the portfolio winner, which the decomposition alone does
// not. It exists for diagnosis reporting (`htd explain`) but is a stable
// API like any other entry point.
func ExplainCtx(ctx context.Context, h *Hypergraph, opt Options) (*Decomposition, Result, error) {
	res, orc, err := widthRun(ctx, search.GHW(h), opt)
	if err != nil {
		return nil, res, err
	}
	// Materialize λ through the same oracle the search used: the exact
	// covers of the final ordering's χ-sets are usually already memoized.
	// The window, the witness's validation included, is λ-materialization
	// phase time; cover probes fired inside self-attribute and are
	// subtracted by AttributeSince.
	mark := opt.Stats.MarkPhase()
	d := order.GHD(h, res.Ordering, nil, true, orc)
	err = d.ValidateGHD()
	opt.Stats.AttributeSince(telemetry.PhaseLambda, mark)
	foldCover(opt.Stats, orc)
	if err != nil {
		return nil, res, fmt.Errorf("htd: internal error: produced invalid decomposition: %w", err)
	}
	return d, res, nil
}

// GHW computes (bounds on) the generalized hypertree width of h.
func GHW(h *Hypergraph, opt Options) (Result, error) {
	return GHWCtx(context.Background(), h, opt)
}

// GHWCtx is GHW under a context; see DecomposeCtx for the cancellation
// contract. Cancelled exact searches report their incumbent with
// Exact=false and the best lower bound proven so far.
func GHWCtx(ctx context.Context, h *Hypergraph, opt Options) (Result, error) {
	res, orc, err := widthRun(ctx, search.GHW(h), opt)
	foldCover(opt.Stats, orc)
	return res, err
}

// Treewidth computes (bounds on) the treewidth of g.
func Treewidth(g *Graph, opt Options) (Result, error) {
	return TreewidthCtx(context.Background(), g, opt)
}

// TreewidthCtx is Treewidth under a context; see DecomposeCtx for the
// cancellation contract.
func TreewidthCtx(ctx context.Context, g *Graph, opt Options) (Result, error) {
	res, _, err := widthRun(ctx, search.Treewidth(g), opt)
	return res, err
}

// widthRun runs opt's method, or its portfolio, for the measure m. For ghw
// it also returns the run's shared cover oracle, so the caller can reuse
// its memoized covers (ExplainCtx) and fold its cache counters into the
// run's Stats exactly once; treewidth covers nothing and gets nil.
func widthRun(ctx context.Context, m search.Measure, opt Options) (Result, *cover.Oracle, error) {
	if m.G.NumVertices() == 0 {
		return Result{Exact: true, Ordering: []int{}}, nil, nil
	}
	var orc *cover.Oracle
	if m.H != nil {
		orc = newOracle(m.H, opt)
	}
	if opt.Method == MethodPortfolio {
		res, err := portfolio(ctx, m, opt, orc)
		return res, orc, err
	}
	res, err := runMethod(ctx, m, opt, newScope(opt), orc)
	return res, orc, err
}

// newOracle builds a run's shared cover oracle. It is timed only under a
// Stats: foldCover is the only reader of its latency histograms, and
// without a Stats it reads nothing, so an untimed run reads no clock per
// probe.
func newOracle(h *Hypergraph, opt Options) *cover.Oracle {
	return cover.New(h, cover.Options{Disabled: opt.DisableCoverCache, Trace: opt.Trace, Timed: opt.Stats != nil})
}

// foldCover adds the oracle's cache counters to st (both may be nil).
// Called once per run at the facade level — the oracle is shared across
// portfolio workers, so per-worker snapshots carry zero cover counters and
// the totals are folded here instead.
func foldCover(st *Stats, orc *cover.Oracle) {
	if st == nil || orc == nil {
		return
	}
	c := orc.Counters()
	probe, solve, frac := orc.LatencySnapshots()
	st.AddSnapshot(StatsSnapshot{
		CoverHits: c.Hits, CoverMisses: c.Misses, CoverEvictions: c.Evictions,
		CoverProbeNs: probe, CoverSolveNs: solve, CoverFracNs: frac,
	})
}

// runMethod runs a single (non-portfolio) method for the measure m under
// ctx, reporting counters, incumbents and phases into sc (nil = telemetry
// disabled). orc is the run's shared cover oracle (nil = let each ghw
// engine build a private one).
func runMethod(ctx context.Context, m search.Measure, opt Options, sc *scope, orc *cover.Oracle) (Result, error) {
	if err := opt.Method.check(m); err != nil {
		return Result{}, err
	}
	sc.phase("start")
	defer sc.phase("done")
	var res Result
	switch opt.Method {
	case MethodMinFill:
		// The whole run, the ghw scoring of its ordering included, is
		// heuristic-seed phase time; the greedy construction's own clock
		// inside the window is subtracted by AttributeSince.
		st := sc.engineStats()
		mark := st.MarkPhase()
		ord, w, err := heur.MinFillCtxStats(ctx, elim.New(m.G), rand.New(rand.NewSource(opt.Seed)), st)
		if err != nil {
			return Result{}, err
		}
		if m.H != nil {
			w = order.GHWidth(m.H, ord, nil, true, orc)
		}
		st.AttributeSince(telemetry.PhaseHeurSeed, mark)
		if hook := sc.incumbentHook(); hook != nil {
			hook(w)
		}
		res = Result{Width: w, Ordering: ord}
	case MethodGA:
		cfg := opt.gaConfig(m.G.NumVertices())
		cfg.Stats = sc.engineStats()
		cfg.OnIncumbent = sc.incumbentHook()
		cfg.Trace = sc.traceRef()
		cfg.Track = sc.trackID()
		r := ga.Search(ctx, m, cfg)
		res = Result{Width: r.Width, Ordering: r.Ordering}
	case MethodSAIGA:
		cfg := opt.saigaConfig()
		cfg.Stats = sc.engineStats()
		cfg.OnIncumbent = sc.incumbentHook()
		cfg.Trace = sc.traceRef()
		cfg.Track = sc.trackID()
		r := ga.SAIGA(ctx, m, cfg)
		res = Result{Width: r.Width, Ordering: r.Ordering}
	case MethodBB:
		so := sc.searchOptions(opt)
		so.Cover = orc
		res = bb.Search(ctx, m, so)
	case MethodAStar:
		so := sc.searchOptions(opt)
		so.Cover = orc
		res = astar.Search(ctx, m, so)
	case MethodFHW:
		r, err := frac.SearchCtx(ctx, m.H, fracOptions(opt, sc, orc))
		if err != nil {
			return Result{}, err
		}
		// Score the fractional winner with exact integral covers so it
		// competes in the integral race on equal terms; the fractional
		// objective rides along in FracWidth. The scoring covers the
		// winner's bags as λ materialisation does, so its window is λ
		// phase time, less what the oracle's probes claim for themselves.
		st := sc.engineStats()
		mark := st.MarkPhase()
		w := order.GHWidth(m.H, r.Ordering, nil, true, orc)
		st.AttributeSince(telemetry.PhaseLambda, mark)
		if hook := sc.incumbentHook(); hook != nil {
			hook(w)
		}
		res = Result{Width: w, Ordering: r.Ordering, FracWidth: r.Width}
	case MethodBalSep:
		var err error
		res, err = balsepGHW(ctx, m.H, opt, sc, orc)
		if err != nil {
			return Result{}, err
		}
	}
	// A nil ordering on a non-empty instance means cancellation struck
	// before the method's initial heuristic produced an incumbent.
	if res.Ordering == nil {
		if err := interrupt.Cause(ctx); err != nil {
			return Result{}, err
		}
		return Result{}, fmt.Errorf("htd: method %v produced no ordering", opt.Method)
	}
	res.Winner = opt.Method.String()
	if res.LowerBound > 0 {
		res.LowerBoundBy = opt.Method.String()
	}
	return res, nil
}

// TreewidthBounds returns fast heuristic lower and upper bounds on the
// treewidth of g (minor-min-width ∨ minor-γ_R, and min-fill).
func TreewidthBounds(g *Graph, seed int64) (lb, ub int) {
	e := elim.New(g)
	rng := rand.New(rand.NewSource(seed))
	lb = heur.LowerBound(e, rng)
	_, ub = heur.MinFill(e, rng)
	return lb, ub
}

// GHWLowerBound returns the tw-ksc-width lower bound on the generalized
// hypertree width of h (§8.1).
func GHWLowerBound(h *Hypergraph, seed int64) int {
	return ghwLowerBound(context.Background(), h, h.PrimalGraph(), seed)
}

// ghwLowerBound is GHWLowerBound over h's primal graph g under ctx: a
// cancelled run returns a weaker bound, still admissible.
func ghwLowerBound(ctx context.Context, h *Hypergraph, g *Graph, seed int64) int {
	tw := heur.LowerBoundCtx(ctx, elim.New(g), rand.New(rand.NewSource(seed)))
	return setcover.TwKscLowerBound(h, tw)
}

// DecomposeOrdering materialises the generalized hypertree decomposition a
// given elimination ordering induces (bucket elimination + exact covers).
func DecomposeOrdering(h *Hypergraph, o Ordering) (*Decomposition, error) {
	if err := o.Validate(h.NumVertices()); err != nil {
		return nil, err
	}
	return order.GHD(h, o, nil, true, nil), nil
}

// SolveCSP solves a CSP through a decomposition of its constraint
// hypergraph built with the given options, returning one solution (or
// ok=false when unsatisfiable). SolveCSP is SolveCSPCtx without
// cancellation.
func SolveCSP(c *CSP, opt Options) (solution []int, ok bool, err error) {
	return SolveCSPCtx(context.Background(), c, opt)
}

// SolveCSPCtx is SolveCSP under a context: it decomposes c with
// DecomposeCtx and solves it on the query engine's dataflow, with the
// parallelism and telemetry of opt. On cancellation it returns the
// context's error and no solution.
func SolveCSPCtx(ctx context.Context, c *CSP, opt Options) ([]int, bool, error) {
	d, err := cspPlan(ctx, c, nil, opt)
	if err != nil {
		return nil, false, err
	}
	return cq.SolveCSP(ctx, c, d, evalOptions(opt))
}

// SolveCSPFromDecomposition solves c using an existing decomposition of
// its constraint hypergraph: a GHD, join tree (BuildJoinTree) included,
// joins each node's λ constraints; any other tree decomposition is solved
// by join-tree clustering, each node enumerating its bag.
func SolveCSPFromDecomposition(c *CSP, d *Decomposition) ([]int, bool, error) {
	d, err := cspPlan(context.Background(), c, d, Options{})
	if err != nil {
		return nil, false, err
	}
	return cq.SolveCSP(context.Background(), c, d, cq.EvalOptions{})
}

// CountCSP counts the complete consistent assignments of c through a
// decomposition built with the given options (#CSP via the join-tree
// dynamic program — polynomial for bounded width, unlike enumeration). It
// returns an error when the count overflows int. CountCSP is CountCSPCtx
// without cancellation.
func CountCSP(c *CSP, opt Options) (int, error) {
	return CountCSPCtx(context.Background(), c, opt)
}

// CountCSPCtx is CountCSP under a context. On cancellation it returns the
// context's error and no count.
func CountCSPCtx(ctx context.Context, c *CSP, opt Options) (int, error) {
	d, err := cspPlan(ctx, c, nil, opt)
	if err != nil {
		return 0, err
	}
	return cq.CountCSP(ctx, c, d, evalOptions(opt))
}

// cspPlan is the one entry of every CSP path: it validates c, then returns
// d, or when d is nil the decomposition opt builds for c's constraint
// hypergraph.
func cspPlan(ctx context.Context, c *CSP, d *Decomposition, opt Options) (*Decomposition, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if d != nil {
		return d, nil
	}
	return DecomposeCtx(ctx, c.Hypergraph(), opt)
}

// HypertreeWidthCtx computes the exact hypertree width hw(H) with
// det-k-decomp, together with a witnessing hypertree decomposition
// (satisfying the descendant condition). maxK caps the search, so maxK = k
// decides hw(H) ≤ k: deciding it is polynomial for fixed k, the
// tractability frontier the PODS survey centres on. Pass 0 for no cap;
// width −1 means hw(H) > maxK. The edgeless hypergraph has width 0.
//
// det-k-decomp's guess counters and phase attribution land in st, and tr
// receives one span per width-k attempt and sampled component recursion
// instants (either may be nil; attaching them never changes the
// decomposition). Cancellation or a deadline aborts det-k-decomp at the
// next poll and returns the context error with width −1 (hypertree width
// has no anytime incumbent — a truncated run proves nothing in either
// direction).
func HypertreeWidthCtx(ctx context.Context, h *Hypergraph, maxK int, st *Stats, tr *Trace) (int, *Decomposition, error) {
	return detk.Width(ctx, h, maxK, detk.Options{Trace: tr, Stats: st})
}

// FractionalCover returns ρ*(target): the minimum total weight of a
// fractional edge cover of the target vertex set, with the optimal edge
// weights. The LP is always feasible and bounded, so a non-nil error
// signals numerical trouble in the simplex, not a property of the input.
func FractionalCover(h *Hypergraph, target []int) (float64, map[int]float64, error) {
	set := bitset.FromSlice(target)
	return frac.Cover(h, set)
}

// FHWResult reports an anytime fractional-hypertree-width run: the best
// fractional width found, its witnessing elimination ordering, and whether
// the round budget ran to completion (Complete=false after a deadline).
type FHWResult = frac.Result

// FHW computes an anytime upper bound on the fractional hypertree width
// fhw(H): min-fill seeding plus parallel insertion-move local search over
// elimination orderings, with all fractional covers solved exactly by the
// sparse simplex and memoized in a shared oracle. See FHWCtx.
func FHW(h *Hypergraph, opt Options) (FHWResult, error) {
	return FHWCtx(context.Background(), h, opt)
}

// FHWCtx is FHW under a context, with the repo-wide anytime contract: on
// deadline or cancellation the best incumbent found so far is returned
// with Complete=false and a nil error; only when cancellation strikes
// before the first incumbent exists is the context error returned.
// Options.Jobs sets the local-search worker count (sharing one frac memo),
// Options.MaxNodes caps the per-worker round budget, and Stats/Observer/
// Trace attach exactly as for GHWCtx. The result is deterministic for a
// fixed Seed and Jobs value.
func FHWCtx(ctx context.Context, h *Hypergraph, opt Options) (FHWResult, error) {
	opt.Method = MethodFHW
	sc := newScope(opt)
	sc.phase("start")
	defer sc.phase("done")
	orc := newOracle(h, opt)
	res, err := frac.SearchCtx(ctx, h, fracOptions(opt, sc, orc))
	foldCover(opt.Stats, orc)
	return res, err
}

// fracOptions maps the facade options onto the frac engine's, attaching
// the scope's telemetry and the run's shared cover oracle.
func fracOptions(opt Options, sc *scope, orc *cover.Oracle) frac.Options {
	fo := frac.Options{
		Seed:   opt.Seed,
		Jobs:   opt.Jobs,
		Oracle: orc,
		Stats:  sc.engineStats(),
		Trace:  sc.traceRef(),
		Track:  sc.trackID(),
	}
	if opt.MaxNodes > 0 {
		fo.Rounds = int(opt.MaxNodes)
	}
	return fo
}

// FHWUpperBound returns an upper bound on the fractional hypertree width
// fhw(H): the fractional width of a min-fill ordering improved by local
// search, together with the ordering.
func FHWUpperBound(h *Hypergraph, seed int64) (float64, Ordering) {
	w, o := frac.MinFillUpperBound(h, seed)
	if h.NumVertices() <= 1 {
		return w, o
	}
	w2, o2 := frac.LocalSearch(h, o, 50, seed+1)
	if w2 < w {
		return w2, o2
	}
	return w, o
}

// FractionalWidth returns the fractional width of an elimination ordering
// (the max ρ* over its χ-sets).
func FractionalWidth(h *Hypergraph, o Ordering) float64 {
	return frac.Width(h, o)
}

// IsAcyclicHypergraph reports α-acyclicity via GYO reduction — equivalent
// to ghw(H) = 1 and to the existence of a join tree.
func IsAcyclicHypergraph(h *Hypergraph) bool { return h.IsAcyclic() }

// WeightedTriangulation runs the genetic algorithm with the
// Bayesian-network objective of thesis §4.5 (minimise log₂ total clique
// state space); states gives the number of states per variable.
func WeightedTriangulation(h *Hypergraph, states []int, cfg GAConfig) GAResult {
	return ga.WeightedTreewidth(h, states, cfg)
}

// WeightedWidth evaluates the §4.5 objective of one ordering: log₂ of the
// total clique state space of the induced tree decomposition.
func WeightedWidth(h *Hypergraph, states []int, o Ordering) float64 {
	return ga.WeightedWidth(h, states, o)
}

// Conjunctive-query types, re-exported from internal/cq.
type (
	// Query is a conjunctive query in Datalog notation.
	Query = cq.Query
	// Database maps relation names to tuples of constants.
	Database = cq.Database
)

// Conjunctive-query functions.
var (
	// ParseQuery reads "ans(X,Z) :- r(X,Y), s(Y,Z)." notation.
	ParseQuery = cq.Parse
	// NewDatabase returns an empty CQ database.
	NewDatabase = cq.NewDatabase
	// AnswerQuery evaluates a conjunctive query through a GHD of its query
	// hypergraph (Yannakakis; output-polynomial for bounded ghw).
	AnswerQuery = cq.Evaluate
	// AnswerQueryWith evaluates using a caller-supplied decomposition.
	AnswerQueryWith = cq.EvaluateWith
	// BooleanQuery decides satisfiability of a Boolean query.
	BooleanQuery = cq.Boolean
)

// QueryEvalOptions configures the context-aware query evaluator directly;
// see AnswerQueryWithCtx.
type QueryEvalOptions = cq.EvalOptions

// evalOptions threads the facade options' parallelism and telemetry sinks
// into the query engine.
func evalOptions(opt Options) cq.EvalOptions {
	return cq.EvalOptions{Jobs: opt.Jobs, Stats: opt.Stats, Trace: opt.Trace}
}

// AnswerQueryCtx evaluates a conjunctive query under a context: it builds
// a decomposition of the query hypergraph with opt's Method/Seed (see
// DecomposeCtx), then runs the parallel Yannakakis engine over it with
// opt.Jobs workers and opt's Stats/Trace sinks attached. On cancellation
// it returns the context's error and no partial answers.
func AnswerQueryCtx(ctx context.Context, q *Query, db *Database, opt Options) ([][]string, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	d, err := DecomposeCtx(ctx, q.Hypergraph(), opt)
	if err != nil {
		return nil, err
	}
	return cq.EvaluateWithCtx(ctx, q, db, d, evalOptions(opt))
}

// AnswerQueryWithCtx is AnswerQueryCtx over a caller-supplied
// decomposition of q.Hypergraph().
func AnswerQueryWithCtx(ctx context.Context, q *Query, db *Database, d *Decomposition, opt Options) ([][]string, error) {
	return cq.EvaluateWithCtx(ctx, q, db, d, evalOptions(opt))
}

// BooleanQueryCtx decides satisfiability of a Boolean query under a
// context. It stops after the bottom-up full reducer — no top-down sweep,
// no output join pass, no answer materialization.
func BooleanQueryCtx(ctx context.Context, q *Query, db *Database, opt Options) (bool, error) {
	if err := q.Validate(); err != nil {
		return false, err
	}
	d, err := DecomposeCtx(ctx, q.Hypergraph(), opt)
	if err != nil {
		return false, err
	}
	return cq.BooleanWithCtx(ctx, q, db, d, evalOptions(opt))
}

// BooleanQueryWithCtx is BooleanQueryCtx over a caller-supplied
// decomposition of q.Hypergraph().
func BooleanQueryWithCtx(ctx context.Context, q *Query, db *Database, d *Decomposition, opt Options) (bool, error) {
	return cq.BooleanWithCtx(ctx, q, db, d, evalOptions(opt))
}

// AnswerQueryBatchCtx evaluates many conjunctive queries over one database,
// interning the hashed base relations once for the whole batch and sharing
// decompositions between shape-identical queries. Answers are bit-identical
// to calling AnswerQueryCtx per query at every Jobs value; on cancellation
// it returns the context's error and no partial result set.
func AnswerQueryBatchCtx(ctx context.Context, qs []*Query, db *Database, opt Options) ([][][]string, error) {
	return cq.EvaluateBatchCtx(ctx, qs, db, evalOptions(opt))
}

// StandingQuery is an incrementally maintained conjunctive query: it
// re-answers after every Insert/Delete by delta propagation along the
// affected paths of its semijoin-reduced join tree instead of a full
// re-evaluation. See OpenStandingQuery.
type StandingQuery = cq.StandingQuery

// OpenStandingQuery builds a standing evaluator for q over the current
// contents of db (captured once; later mutations go through the handle's
// Insert/Delete). Answers() stays bit-identical to AnswerQueryCtx over the
// mutated database at every Jobs value.
func OpenStandingQuery(ctx context.Context, q *Query, db *Database, opt Options) (*StandingQuery, error) {
	return cq.NewStandingQuery(ctx, q, db, nil, evalOptions(opt))
}

// OpenStandingQueryWith is OpenStandingQuery over a caller-supplied
// decomposition of q.Hypergraph().
func OpenStandingQueryWith(ctx context.Context, q *Query, db *Database, d *Decomposition, opt Options) (*StandingQuery, error) {
	return cq.NewStandingQuery(ctx, q, db, d, evalOptions(opt))
}
