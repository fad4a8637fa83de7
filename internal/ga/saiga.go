package ga

import (
	"context"
	"math"
	"math/rand"

	"hypertree/internal/interrupt"
	"hypertree/internal/order"
	"hypertree/internal/search"
	"hypertree/internal/telemetry"
)

// SAIGAConfig configures the self-adaptive island genetic algorithm
// SAIGA-ghw (thesis §7.2, after Eiben et al.): several islands evolve
// independently, each with its own control-parameter vector; the vectors
// themselves mutate, and islands reorient their parameters toward
// better-performing ring neighbours (§7.2.5), removing the need for the
// manual tuning experiments of ch. 6.
type SAIGAConfig struct {
	Islands        int // number of islands on the migration ring
	IslandPop      int // subpopulation size per island
	Epochs         int // number of epoch rounds
	EpochLength    int // generations per epoch between adaptation steps
	TournamentSize int
	Seed           int64
	// MigrationSize individuals migrate to the next ring island per epoch.
	MigrationSize int
	// Stats, when non-nil, receives live telemetry: fitness evaluations
	// and island generations, and one Restart per epoch boundary (the
	// parameter self-adaptation step). Attaching it never changes the
	// evolution for a fixed Seed.
	Stats *telemetry.Stats
	// OnIncumbent, when non-nil, is invoked with each strict improvement
	// of the cross-island best width, observed at initialization and at
	// epoch boundaries. Must be cheap and non-blocking.
	OnIncumbent func(width int)
	// Trace, when non-nil, receives one "saiga.epoch" instant per epoch
	// boundary on the Track timeline. Attaching it never changes the
	// evolution for a fixed Seed.
	Trace *telemetry.Trace
	// Track is the trace timeline this run emits on.
	Track int
}

// DefaultSAIGAConfig returns a modest default: 4 islands × 250 individuals.
func DefaultSAIGAConfig() SAIGAConfig {
	return SAIGAConfig{
		Islands:        4,
		IslandPop:      250,
		Epochs:         20,
		EpochLength:    25,
		TournamentSize: 3,
		MigrationSize:  5,
	}
}

// Params is a control-parameter vector of the Fig. 6.1 loop: crossover
// rate, mutation rate and the operators they apply. GA-tw/GA-ghw run under
// the fixed vector of their Config; each SAIGA island self-adapts its own
// (§7.2.2).
type Params struct {
	Pc, Pm    float64
	Crossover CrossoverOp
	Mutation  MutationOp
}

// mutate perturbs a parameter vector (§7.2.4): rates move by Gaussian
// steps clipped to sane ranges; operators are re-rolled with small
// probability.
func (p Params) mutate(rng *rand.Rand) Params {
	q := p
	q.Pc = clip01(q.Pc + rng.NormFloat64()*0.1)
	q.Pm = clip01(q.Pm + rng.NormFloat64()*0.1)
	if rng.Float64() < 0.15 {
		q.Crossover = AllCrossoverOps[rng.Intn(len(AllCrossoverOps))]
	}
	if rng.Float64() < 0.15 {
		q.Mutation = AllMutationOps[rng.Intn(len(AllMutationOps))]
	}
	return q
}

// orient moves the vector a third of the way toward a better neighbour's
// vector (§7.2.5) and adopts the neighbour's operators with probability ½.
func (p Params) orient(toward Params, rng *rand.Rand) Params {
	q := p
	q.Pc = clip01(q.Pc + (toward.Pc-q.Pc)/3)
	q.Pm = clip01(q.Pm + (toward.Pm-q.Pm)/3)
	if rng.Intn(2) == 0 {
		q.Crossover = toward.Crossover
	}
	if rng.Intn(2) == 0 {
		q.Mutation = toward.Mutation
	}
	return q
}

func clip01(x float64) float64 {
	return math.Max(0.01, math.Min(1.0, x))
}

// randomParams draws an initial parameter vector (§7.2.3).
func randomParams(rng *rand.Rand) Params {
	return Params{
		Pc:        0.5 + rng.Float64()*0.5,
		Pm:        rng.Float64() * 0.5,
		Crossover: AllCrossoverOps[rng.Intn(len(AllCrossoverOps))],
		Mutation:  AllMutationOps[rng.Intn(len(AllMutationOps))],
	}
}

// island is one SAIGA subpopulation and the parameter vector it evolves
// under.
type island struct {
	population
	par Params
}

// SAIGAResult extends Result with the parameter vectors the islands
// converged to, for inspection.
type SAIGAResult struct {
	Result
	// FinalParams reports each island's parameter vector at the end of
	// the run.
	FinalParams []Params
}

// SAIGA runs the self-adaptive island scheme over the elimination
// orderings of m.G and returns an upper bound on m's width: SAIGA-ghw for
// ghw, and for treewidth the same scheme with the treewidth fitness (an
// extension the thesis mentions as applicable). The islands evolve in
// turn, each owning its rand source and evaluator. Cancellation is polled
// between fitness evaluations and at epoch boundaries, and the best
// individual across all islands found so far is returned; the very first
// individual is evaluated before the first poll, so there is always an
// incumbent.
func SAIGA(ctx context.Context, m search.Measure, cfg SAIGAConfig) SAIGAResult {
	// As in evolve, the whole run is branch-expansion phase time.
	mark := cfg.Stats.MarkPhase()
	defer cfg.Stats.AttributeSince(telemetry.PhaseBranch, mark)
	n := m.G.NumVertices()
	if cfg.Islands < 2 {
		cfg.Islands = 2
	}
	if cfg.IslandPop < 2 {
		cfg.IslandPop = 2
	}
	if cfg.MigrationSize > cfg.IslandPop/2 {
		cfg.MigrationSize = cfg.IslandPop / 2
	}
	adaptRng := rand.New(rand.NewSource(cfg.Seed))
	// One checker for all islands: once any island's poll stops, the
	// islands after it neither evaluate nor evolve.
	chk := interrupt.New(ctx, 1)
	islands := make([]*island, cfg.Islands)
	for i := range islands {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		isl := &island{population: population{
			rng:     rng,
			fitness: widthFitness(m, cfg.Seed+1000+int64(i)),
			chk:     chk,
			stats:   cfg.Stats,
		}}
		isl.par = randomParams(rng)
		isl.populate(cfg.IslandPop, n, nil)
		islands[i] = isl
	}

	history := []int{int(globalBest(islands))}
	incumbent := math.Inf(1)
	noteGlobal := func() {
		if w := globalBest(islands); w < incumbent {
			incumbent = w
			if cfg.OnIncumbent != nil {
				cfg.OnIncumbent(int(w))
			}
		}
	}
	noteGlobal()

	for epoch := 0; epoch < cfg.Epochs && !chk.Stopped(); epoch++ {
		// Evolve each island with its own parameters; islands share no
		// mutable state between migrations.
		for _, isl := range islands {
			for gen := 0; gen < cfg.EpochLength; gen++ {
				if !isl.generation(isl.par, cfg.TournamentSize) {
					break
				}
			}
		}
		if chk.Now() {
			break
		}

		// Migration: best MigrationSize individuals replace the worst of
		// the next ring island.
		migrate(islands, cfg.MigrationSize)

		// Neighbour orientation and parameter self-mutation: each island
		// compares with its ring neighbours; if a neighbour's best fitness
		// is strictly better, orient toward it, then mutate.
		nextParams := make([]Params, len(islands))
		for i, isl := range islands {
			left := islands[(i+len(islands)-1)%len(islands)]
			right := islands[(i+1)%len(islands)]
			best := isl.par
			if left.bestW < isl.bestW || right.bestW < isl.bestW {
				better := left
				if right.bestW < left.bestW {
					better = right
				}
				best = isl.par.orient(better.par, adaptRng)
			}
			nextParams[i] = best.mutate(adaptRng)
		}
		for i, isl := range islands {
			isl.par = nextParams[i]
		}
		cfg.Stats.Add(telemetry.Restarts, 1)
		if cfg.Trace != nil {
			cfg.Trace.Instant(cfg.Track, "saiga.epoch",
				telemetry.Arg{Key: "epoch", Val: int64(epoch)},
				telemetry.Arg{Key: "best", Val: int64(globalBest(islands))})
		}
		noteGlobal()

		history = append(history, int(globalBest(islands)))
	}

	// Collect final answer. Islands a stop left without an evaluation have
	// no incumbent (bestW +Inf) and are skipped.
	res := SAIGAResult{}
	best := math.Inf(1)
	for _, isl := range islands {
		if isl.bestW < best {
			best = isl.bestW
			res.Ordering = isl.bestO
		}
		res.Evaluations += isl.evals
		res.FinalParams = append(res.FinalParams, isl.par)
	}
	res.Width = int(best)
	res.History = history
	return res
}

func globalBest(islands []*island) float64 {
	best := islands[0].bestW
	for _, isl := range islands[1:] {
		if isl.bestW < best {
			best = isl.bestW
		}
	}
	return best
}

// migrate copies each island's k best individuals over the worst
// individuals of the next island on the ring.
func migrate(islands []*island, k int) {
	if k <= 0 {
		return
	}
	type migrant struct {
		o order.Ordering
		f float64
	}
	outgoing := make([][]migrant, len(islands))
	for i, isl := range islands {
		for _, j := range bestIndices(isl.fit, k) {
			outgoing[i] = append(outgoing[i], migrant{isl.ind[j].Clone(), isl.fit[j]})
		}
	}
	for i, isl := range islands {
		in := outgoing[(i+len(islands)-1)%len(islands)]
		for m, j := range worstIndices(isl.fit, len(in)) {
			isl.ind[j], isl.fit[j] = in[m].o, in[m].f
			isl.note(j)
		}
	}
}

func bestIndices(fit []float64, k int) []int {
	return extremeIndices(fit, k, func(a, b float64) bool { return a < b })
}

func worstIndices(fit []float64, k int) []int {
	return extremeIndices(fit, k, func(a, b float64) bool { return a > b })
}

// extremeIndices returns the indices of the k most extreme fitness values
// under less (selection by simple partial sort; k is small).
func extremeIndices(fit []float64, k int, less func(a, b float64) bool) []int {
	idx := make([]int, len(fit))
	for i := range idx {
		idx[i] = i
	}
	if k > len(idx) {
		k = len(idx)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if less(fit[idx[j]], fit[idx[best]]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}
