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
// thesis's tuned defaults (§6.3.5) are provided by DefaultConfig.
type Config struct {
	PopulationSize int         // n
	CrossoverRate  float64     // p_c: fraction of the population recombined
	MutationRate   float64     // p_m: per-individual mutation probability
	TournamentSize int         // s: group size for tournament selection
	Generations    int         // max_iterations
	Crossover      CrossoverOp // POS performed best in Table 6.1
	Mutation       MutationOp  // ISM performed best in Table 6.2
	Seed           int64
	// Elitism keeps the best individual of each generation (a standard GA
	// safeguard; the thesis tracks the best-seen fitness globally, which
	// Result.Width reports either way).
	Elitism bool
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
		Elitism:        true,
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

// Search runs the genetic algorithm over the elimination orderings of m.G
// and returns an upper bound on m's width: GA-tw (Fig. 6.1) for treewidth,
// GA-ghw (§7.1) for ghw, whose individuals are scored with the greedy
// set-cover heuristic (Fig. 7.1/7.2) with random tie-breaking.
// Cancellation is checked between fitness evaluations and the best
// individual found so far is returned (the first individual is always
// evaluated, so a non-empty instance always yields an incumbent).
func Search(ctx context.Context, m search.Measure, cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ev := m.Evaluator(rand.New(rand.NewSource(cfg.Seed + 1)))
	return evolve(ctx, m.G.NumVertices(), cfg, rng, ev.Width, heuristicSeeds(ctx, m.G, cfg, rng))
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

// evolve is the generic GA loop of Fig. 6.1 over permutations of n
// vertices with integer width fitness; it wraps the float-fitness engine.
func evolve(ctx context.Context, n int, cfg Config, rng *rand.Rand, width func(order.Ordering) int, seeds []order.Ordering) Result {
	fl := evolveFloat(ctx, n, cfg, rng, func(o order.Ordering) float64 { return float64(width(o)) }, seeds...)
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

// evolveFloat is the generic GA loop of Fig. 6.1 over permutations of n
// vertices; fitness is any real-valued objective (smaller is fitter).
// The whole loop is branch-expansion phase time (fitness evaluations are
// the GA's analogue of node expansion); any finer-grained clock fired
// inside is subtracted by the closing AttributeSince.
// Optional seed orderings replace the first individuals of the initial
// population. Cancellation is polled between fitness evaluations and at
// generation boundaries; the best-so-far individual is returned either
// way. The first individual is evaluated before the first poll, so the
// result always carries an incumbent.
func evolveFloat(ctx context.Context, n int, cfg Config, rng *rand.Rand, weight func(order.Ordering) float64, seeds ...order.Ordering) FloatResult {
	mark := cfg.Stats.MarkPhase()
	defer cfg.Stats.AttributeSince(telemetry.PhaseBranch, mark)
	if cfg.PopulationSize < 2 {
		cfg.PopulationSize = 2
	}
	if cfg.TournamentSize < 1 {
		cfg.TournamentSize = 1
	}
	// Stride 1: a fitness evaluation costs orders of magnitude more than a
	// wall-clock poll, so checking after every evaluation is free.
	chk := interrupt.New(ctx, 1)
	pop := make([]order.Ordering, cfg.PopulationSize)
	fit := make([]float64, cfg.PopulationSize)
	dirty := make([]bool, cfg.PopulationSize)
	var evals int64

	evaluate := func(i int) {
		fit[i] = weight(pop[i])
		dirty[i] = false
		evals++
		cfg.Stats.Add(telemetry.GAEvaluations, 1)
	}

	bestW := math.Inf(1)
	var bestO order.Ordering
	noteBest := func(i int) {
		if fit[i] < bestW {
			bestW = fit[i]
			bestO = pop[i].Clone()
			if cfg.OnIncumbent != nil {
				cfg.OnIncumbent(int(bestW))
			}
		}
	}

	// Initialize population(0): optional heuristic seeds, then random
	// individuals. On cancellation the remaining slots are filled without
	// evaluation (fitness +Inf) and the loop below is skipped.
	cancelled := false
	for i := range pop {
		if i < len(seeds) && len(seeds[i]) == n {
			pop[i] = seeds[i].Clone()
		} else {
			pop[i] = order.Random(n, rng)
		}
		if cancelled {
			fit[i] = math.Inf(1)
			continue
		}
		evaluate(i)
		noteBest(i)
		if chk.Stop() {
			cancelled = true
		}
	}
	history := make([]float64, 0, cfg.Generations+1)
	history = append(history, bestW)

	next := make([]order.Ordering, cfg.PopulationSize)
	nextFit := make([]float64, cfg.PopulationSize)

	for gen := 0; gen < cfg.Generations && !cancelled; gen++ {
		// Selection: tournament of size s, repeated n times.
		for i := range next {
			winner := rng.Intn(cfg.PopulationSize)
			for k := 1; k < cfg.TournamentSize; k++ {
				c := rng.Intn(cfg.PopulationSize)
				if fit[c] < fit[winner] {
					winner = c
				}
			}
			next[i] = pop[winner].Clone()
			nextFit[i] = fit[winner]
		}
		pop, next = next, pop
		fit, nextFit = nextFit, fit
		for i := range dirty {
			dirty[i] = false
		}

		// Recombination: p_c of the population, in consecutive pairs.
		pairs := int(float64(cfg.PopulationSize) * cfg.CrossoverRate / 2)
		for p := 0; p < pairs; p++ {
			a, b := 2*p, 2*p+1
			if b >= cfg.PopulationSize {
				break
			}
			c1, c2 := Crossover(cfg.Crossover, pop[a], pop[b], rng)
			pop[a], pop[b] = c1, c2
			dirty[a], dirty[b] = true, true
		}

		// Mutation: each individual with probability p_m.
		for i := range pop {
			if rng.Float64() < cfg.MutationRate {
				Mutate(cfg.Mutation, pop[i], rng)
				dirty[i] = true
			}
		}

		// Evaluation of changed individuals.
		for i := range pop {
			if dirty[i] {
				if chk.Stop() {
					cancelled = true
					break
				}
				evaluate(i)
			}
			noteBest(i)
		}
		if cancelled {
			break
		}

		cfg.Stats.Add(telemetry.GAGenerations, 1)
		if cfg.Trace != nil {
			cfg.Trace.Instant(cfg.Track, "ga.generation",
				telemetry.Arg{Key: "gen", Val: int64(gen)},
				telemetry.Arg{Key: "best", Val: int64(bestW)},
				telemetry.Arg{Key: "evals", Val: evals})
		}

		// Elitism: reinject the global best over the worst individual.
		if cfg.Elitism {
			worst := 0
			for i := 1; i < cfg.PopulationSize; i++ {
				if fit[i] > fit[worst] {
					worst = i
				}
			}
			if fit[worst] > bestW {
				pop[worst] = bestO.Clone()
				fit[worst] = bestW
			}
		}

		history = append(history, bestW)
	}

	return FloatResult{Weight: bestW, Ordering: bestO, Evaluations: evals, History: history}
}
