package ga

import (
	"context"
	"math"
	"math/rand"

	"hypertree/internal/elim"
	"hypertree/internal/heur"
	"hypertree/internal/hypergraph"
	"hypertree/internal/interrupt"
	"hypertree/internal/order"
	"hypertree/internal/search"
	"hypertree/internal/telemetry"
)

// Config holds the control parameters of GA-tw / GA-ghw (Fig. 6.1). The
// thesis's tuned defaults (§6.3.5) are provided by DefaultConfig. Every
// completed generation ends by reinjecting the best individual seen over
// the worst one (elitism, a standard GA safeguard).
type Config struct {
	PopulationSize int         // n
	CrossoverRate  float64     // p_c: fraction of the population recombined
	MutationRate   float64     // p_m: per-individual mutation probability
	TournamentSize int         // s: group size for tournament selection
	Generations    int         // max_iterations
	Crossover      CrossoverOp // POS performed best in Table 6.1
	Mutation       MutationOp  // ISM performed best in Table 6.2
	Seed           int64
	// HeuristicSeeds injects this many min-fill orderings (with random
	// tie-breaking) into the initial population. §4.3 allows "randomly or
	// heuristically created individuals"; seeding compensates for budgets
	// far below the thesis's 4·10⁶ evaluations. 0 = pure random
	// initialization as in ch. 6.
	HeuristicSeeds int
	// Stats, when non-nil, receives live telemetry: fitness evaluations,
	// generations completed, and heuristic-seed steps. Attaching it never
	// changes the evolution for a fixed Seed.
	Stats *telemetry.Stats
	// OnIncumbent, when non-nil, is invoked with each strict improvement
	// of the best width found. For real-valued objectives (weighted
	// triangulation) the value is truncated toward zero. Called
	// synchronously on the evolution path; must be cheap and non-blocking.
	OnIncumbent func(width int)
	// Trace, when non-nil, receives one "ga.generation" instant per
	// completed generation on the Track timeline. Nil costs one nil check;
	// attaching never changes the evolution for a fixed Seed.
	Trace *telemetry.Trace
	// Track is the trace timeline this run emits on (worker slot+1 in a
	// portfolio, 0 otherwise).
	Track int
}

// DefaultConfig returns the parameter set the thesis settled on after the
// tuning experiments of §6.3: population 2000, 100% crossover (POS), 30%
// mutation (ISM), tournament size 3. Generations defaults to 2000.
func DefaultConfig() Config {
	return Config{
		PopulationSize: 2000,
		CrossoverRate:  1.0,
		MutationRate:   0.3,
		TournamentSize: 3,
		Generations:    2000,
		Crossover:      POS,
		Mutation:       ISM,
	}
}

// Result reports the outcome of a GA run.
type Result struct {
	// Width is the best width found (an upper bound on tw or ghw).
	Width int
	// Ordering achieves Width.
	Ordering order.Ordering
	// Evaluations counts fitness evaluations performed.
	Evaluations int64
	// History holds the best width after each generation (index 0 = after
	// initialization), for convergence reporting.
	History []int
}

// FloatResult reports a GA run under a real-valued objective.
type FloatResult struct {
	// Weight is the best objective value found (smaller is fitter).
	Weight float64
	// Ordering achieves Weight.
	Ordering order.Ordering
	// Evaluations counts fitness evaluations performed.
	Evaluations int64
	// History holds the best value after each generation.
	History []float64
}

// Search runs the genetic algorithm over the elimination orderings of m.G
// and returns an upper bound on m's width: GA-tw (Fig. 6.1) for treewidth,
// GA-ghw (§7.1) for ghw, whose individuals are scored with the greedy
// set-cover heuristic (Fig. 7.1/7.2) with random tie-breaking.
// Cancellation is checked between fitness evaluations and the best
// individual found so far is returned (the first individual is always
// evaluated, so a non-empty instance always yields an incumbent).
func Search(ctx context.Context, m search.Measure, cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	seeds := heuristicSeeds(ctx, m.G, cfg, rng)
	fl := evolve(ctx, m.G.NumVertices(), cfg, rng, widthFitness(m, cfg.Seed+1), seeds)
	hist := make([]int, len(fl.History))
	for i, v := range fl.History {
		hist[i] = int(v)
	}
	return Result{
		Width:       int(fl.Weight),
		Ordering:    fl.Ordering,
		Evaluations: fl.Evaluations,
		History:     hist,
	}
}

// heuristicSeeds produces the configured number of min-fill orderings,
// stopping early (with fewer seeds) when ctx is cancelled.
func heuristicSeeds(ctx context.Context, g *hypergraph.Graph, cfg Config, rng *rand.Rand) []order.Ordering {
	if cfg.HeuristicSeeds <= 0 {
		return nil
	}
	e := elim.New(g)
	seeds := make([]order.Ordering, 0, cfg.HeuristicSeeds)
	for i := 0; i < cfg.HeuristicSeeds; i++ {
		o, _, err := heur.MinFillCtxStats(ctx, e, rng, cfg.Stats)
		if err != nil {
			break
		}
		seeds = append(seeds, o)
	}
	return seeds
}

// widthFitness scores an ordering by its width under m's evaluator, whose
// greedy covers break ties from their own stream drawn from seed.
func widthFitness(m search.Measure, seed int64) func(order.Ordering) float64 {
	ev := m.Evaluator(rand.New(rand.NewSource(seed)))
	return func(o order.Ordering) float64 { return float64(ev.Width(o)) }
}

// evolve runs GA-tw/GA-ghw (Fig. 6.1) under cfg's fixed parameters: one
// population over permutations of n vertices, started from the seed
// orderings, with elitism, history and trace on top of each generation.
// Fitness is any real-valued objective (smaller is fitter). The whole run
// is branch-expansion phase time (fitness evaluations are the GA's
// analogue of node expansion); any finer-grained clock fired inside is
// subtracted by the closing AttributeSince. A stop ends the run with the
// best individual seen, which the first evaluation always provides.
func evolve(ctx context.Context, n int, cfg Config, rng *rand.Rand, fitness func(order.Ordering) float64, seeds []order.Ordering) FloatResult {
	mark := cfg.Stats.MarkPhase()
	defer cfg.Stats.AttributeSince(telemetry.PhaseBranch, mark)
	// Stride 1: a fitness evaluation costs orders of magnitude more than a
	// wall-clock poll, so checking at every evaluation is free.
	p := &population{rng: rng, fitness: fitness, chk: interrupt.New(ctx, 1), stats: cfg.Stats}
	if cfg.OnIncumbent != nil {
		p.improved = func(w float64) { cfg.OnIncumbent(int(w)) }
	}
	p.populate(max(cfg.PopulationSize, 2), n, seeds)
	par := Params{Pc: cfg.CrossoverRate, Pm: cfg.MutationRate, Crossover: cfg.Crossover, Mutation: cfg.Mutation}
	history := make([]float64, 1, cfg.Generations+1)
	history[0] = p.bestW
	for gen := 0; gen < cfg.Generations && p.generation(par, cfg.TournamentSize); gen++ {
		if cfg.Trace != nil {
			cfg.Trace.Instant(cfg.Track, "ga.generation",
				telemetry.Arg{Key: "gen", Val: int64(gen)},
				telemetry.Arg{Key: "best", Val: int64(p.bestW)},
				telemetry.Arg{Key: "evals", Val: p.evals})
		}
		p.keepBest()
		history = append(history, p.bestW)
	}
	return FloatResult{Weight: p.bestW, Ordering: p.bestO, Evaluations: p.evals, History: history}
}

// population is one run of the Fig. 6.1 loop over permutations: the
// individuals and their fitness, the best individual seen, and the random
// stream, fitness function and stop poller that drive them. Fitness +Inf
// marks an individual not yet evaluated: one a generation changed, or one
// a stop left unevaluated.
type population struct {
	ind   []order.Ordering
	fit   []float64
	bestW float64
	bestO order.Ordering
	evals int64

	rng     *rand.Rand
	fitness func(order.Ordering) float64 // smaller is fitter
	chk     *interrupt.Checker
	stats   *telemetry.Stats
	// improved, when non-nil, is called with each strict improvement of
	// bestW.
	improved func(w float64)

	next    []order.Ordering // selection buffers, swapped with ind and fit
	nextFit []float64
}

// populate draws the initial population of size individuals over n
// vertices: the seed orderings first, then random ones, each evaluated as
// it is drawn, with a poll after each. Once a poll (of this population or
// of another sharing its checker) has stopped, the rest are drawn but stay
// unevaluated.
func (p *population) populate(size, n int, seeds []order.Ordering) {
	p.ind = make([]order.Ordering, size)
	p.fit = make([]float64, size)
	p.next = make([]order.Ordering, size)
	p.nextFit = make([]float64, size)
	p.bestW = math.Inf(1)
	for i := range p.ind {
		if i < len(seeds) {
			p.ind[i] = seeds[i]
		} else {
			p.ind[i] = order.Random(n, p.rng)
		}
		p.fit[i] = math.Inf(1)
		if !p.chk.Stopped() {
			p.evaluate(i)
			p.chk.Stop() // a stop seen here leaves the rest unevaluated
		}
	}
}

func (p *population) evaluate(i int) {
	p.fit[i] = p.fitness(p.ind[i])
	p.evals++
	p.stats.Add(telemetry.GAEvaluations, 1)
	p.note(i)
}

// note records individual i as the best seen if it is strictly fitter.
func (p *population) note(i int) {
	if p.fit[i] < p.bestW {
		p.bestW = p.fit[i]
		p.bestO = p.ind[i].Clone()
		if p.improved != nil {
			p.improved(p.bestW)
		}
	}
}

// generation runs one generation of Fig. 6.1 under par: tournament
// selection in groups of the given size, crossover of a par.Pc share of
// the population in consecutive pairs, mutation of each individual with
// probability par.Pm, and evaluation of the changed individuals with a
// poll before each. It reports whether the generation completed: after a
// stop it does nothing and reports false, and a stop during the
// evaluations leaves the remaining changed individuals at +Inf.
func (p *population) generation(par Params, tournament int) bool {
	if p.chk.Stopped() {
		return false
	}
	size := len(p.ind)
	for i := range p.next {
		winner := p.rng.Intn(size)
		for k := 1; k < tournament; k++ {
			if c := p.rng.Intn(size); p.fit[c] < p.fit[winner] {
				winner = c
			}
		}
		p.next[i], p.nextFit[i] = p.ind[winner].Clone(), p.fit[winner]
	}
	p.ind, p.next = p.next, p.ind
	p.fit, p.nextFit = p.nextFit, p.fit

	pairs := int(float64(size) * par.Pc / 2)
	for q := 0; q < pairs && 2*q+1 < size; q++ {
		a, b := 2*q, 2*q+1
		p.ind[a], p.ind[b] = Crossover(par.Crossover, p.ind[a], p.ind[b], p.rng)
		p.fit[a], p.fit[b] = math.Inf(1), math.Inf(1)
	}
	for i, o := range p.ind {
		if p.rng.Float64() < par.Pm {
			Mutate(par.Mutation, o, p.rng)
			p.fit[i] = math.Inf(1)
		}
	}
	for i, f := range p.fit {
		if math.IsInf(f, 1) {
			if p.chk.Stop() {
				return false
			}
			p.evaluate(i)
		}
	}
	p.stats.Add(telemetry.GAGenerations, 1)
	return true
}

// keepBest reinjects the best individual seen over the worst one
// (elitism).
func (p *population) keepBest() {
	worst := 0
	for i := 1; i < len(p.fit); i++ {
		if p.fit[i] > p.fit[worst] {
			worst = i
		}
	}
	if p.fit[worst] > p.bestW {
		p.ind[worst] = p.bestO.Clone()
		p.fit[worst] = p.bestW
	}
}
