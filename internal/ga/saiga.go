package ga

import (
	"context"
	"math"
	"math/rand"
	"sync"

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
	// Parallel evolves the islands concurrently (one goroutine per
	// island). Results are deterministic either way: every island owns its
	// random generator, and fitness evaluators are cloned per island.
	Parallel bool
	// Stats, when non-nil, receives live telemetry: fitness evaluations
	// and island generations (from island goroutines when Parallel), and
	// one Restart per epoch boundary (the parameter self-adaptation
	// step). Attaching it never changes the evolution for a fixed Seed.
	Stats *telemetry.Stats
	// OnIncumbent, when non-nil, is invoked from the coordinator with
	// each strict improvement of the cross-island best width, observed at
	// initialization and at epoch boundaries. Must be cheap and
	// non-blocking.
	OnIncumbent func(width int)
	// Trace, when non-nil, receives one "saiga.epoch" instant per epoch
	// boundary on the Track timeline (emitted from the coordinator, never
	// from island goroutines). Attaching it never changes the evolution
	// for a fixed Seed.
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

// params is an island's self-adaptive parameter vector (§7.2.2): crossover
// rate, mutation rate, and the operator choices.
type params struct {
	pc, pm    float64
	crossover CrossoverOp
	mutation  MutationOp
}

// mutateParams perturbs a parameter vector (§7.2.4): rates move by Gaussian
// steps clipped to sane ranges; operators are re-rolled with small
// probability.
func (p params) mutate(rng *rand.Rand) params {
	q := p
	q.pc = clip01(q.pc + rng.NormFloat64()*0.1)
	q.pm = clip01(q.pm + rng.NormFloat64()*0.1)
	if rng.Float64() < 0.15 {
		q.crossover = AllCrossoverOps[rng.Intn(len(AllCrossoverOps))]
	}
	if rng.Float64() < 0.15 {
		q.mutation = AllMutationOps[rng.Intn(len(AllMutationOps))]
	}
	return q
}

// orient moves the vector a third of the way toward a better neighbour's
// vector (§7.2.5) and adopts the neighbour's operators with probability ½.
func (p params) orient(toward params, rng *rand.Rand) params {
	q := p
	q.pc = clip01(q.pc + (toward.pc-q.pc)/3)
	q.pm = clip01(q.pm + (toward.pm-q.pm)/3)
	if rng.Intn(2) == 0 {
		q.crossover = toward.crossover
	}
	if rng.Intn(2) == 0 {
		q.mutation = toward.mutation
	}
	return q
}

func clip01(x float64) float64 {
	return math.Max(0.01, math.Min(1.0, x))
}

// randomParams draws an initial parameter vector (§7.2.3).
func randomParams(rng *rand.Rand) params {
	return params{
		pc:        0.5 + rng.Float64()*0.5,
		pm:        rng.Float64() * 0.5,
		crossover: AllCrossoverOps[rng.Intn(len(AllCrossoverOps))],
		mutation:  AllMutationOps[rng.Intn(len(AllMutationOps))],
	}
}

type island struct {
	pop   []order.Ordering
	fit   []int
	par   params
	bestW int
	bestO order.Ordering
	rng   *rand.Rand
	eval  func(order.Ordering) int
	evals int64
}

// SAIGAResult extends Result with the parameter vectors the islands
// converged to, for inspection.
type SAIGAResult struct {
	Result
	// FinalParams reports (pc, pm, crossover, mutation) per island.
	FinalParams []struct {
		Pc, Pm    float64
		Crossover CrossoverOp
		Mutation  MutationOp
	}
}

// SAIGA runs the self-adaptive island scheme over the elimination
// orderings of m.G and returns an upper bound on m's width: SAIGA-ghw for
// ghw, and for treewidth the same scheme with the treewidth fitness (an
// extension the thesis mentions as applicable). Cancellation is polled
// between fitness evaluations and at epoch boundaries, and the best
// individual across all islands found so far is returned. Each island owns
// its rand source and evaluator, so cancellation of a Parallel run is
// race-free.
func SAIGA(ctx context.Context, m search.Measure, cfg SAIGAConfig) SAIGAResult {
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
	chk := interrupt.New(ctx, 1)

	// Island initialization. On cancellation the remaining individuals are
	// filled without evaluation (fitness n+1, never better than any
	// evaluated width since widths are ≤ n). The very first individual is
	// evaluated before the first poll, so there is always an incumbent.
	cancelled := false
	islands := make([]*island, cfg.Islands)
	for i := range islands {
		isl := &island{
			pop:   make([]order.Ordering, cfg.IslandPop),
			fit:   make([]int, cfg.IslandPop),
			bestW: n + 1,
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			eval:  m.Evaluator(rand.New(rand.NewSource(cfg.Seed + 1000 + int64(i)))).Width,
		}
		isl.par = randomParams(isl.rng)
		for j := range isl.pop {
			isl.pop[j] = order.Random(n, isl.rng)
			if cancelled {
				isl.fit[j] = n + 1
				continue
			}
			isl.fit[j] = isl.eval(isl.pop[j])
			isl.evals++
			cfg.Stats.Add(telemetry.GAEvaluations, 1)
			if isl.fit[j] < isl.bestW {
				isl.bestW = isl.fit[j]
				isl.bestO = isl.pop[j].Clone()
			}
			if chk.Stop() {
				cancelled = true
			}
		}
		islands[i] = isl
	}

	history := []int{globalBest(islands)}
	incumbent := n + 2 // sentinel above any reachable width
	noteGlobal := func() {
		if w := globalBest(islands); w < incumbent {
			incumbent = w
			if cfg.OnIncumbent != nil && w <= n {
				cfg.OnIncumbent(w)
			}
		}
	}
	noteGlobal()

	for epoch := 0; epoch < cfg.Epochs && !cancelled; epoch++ {
		// Evolve each island with its own parameters — concurrently when
		// configured; islands share no mutable state between migrations.
		// Each goroutine polls ctx through its own interrupt.Checker.
		if cfg.Parallel {
			var wg sync.WaitGroup
			for _, isl := range islands {
				wg.Add(1)
				go func(isl *island) {
					defer wg.Done()
					evolveIsland(ctx, isl, cfg)
				}(isl)
			}
			wg.Wait()
		} else {
			for _, isl := range islands {
				evolveIsland(ctx, isl, cfg)
			}
		}
		if chk.Now() {
			break
		}

		// Migration: best MigrationSize individuals replace the worst of
		// the next ring island.
		migrate(islands, cfg)

		// Neighbour orientation and parameter self-mutation: each island
		// compares with its ring neighbours; if a neighbour's best fitness
		// is strictly better, orient toward it, then mutate.
		nextParams := make([]params, len(islands))
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

		history = append(history, globalBest(islands))
	}

	// Collect final answer. Islands cancelled before their first
	// evaluation have no incumbent (bestO nil) and are skipped.
	res := SAIGAResult{}
	res.Width = n + 1
	for _, isl := range islands {
		if isl.bestO != nil && isl.bestW < res.Width {
			res.Width = isl.bestW
			res.Ordering = isl.bestO
		}
		res.Evaluations += isl.evals
		res.FinalParams = append(res.FinalParams, struct {
			Pc, Pm    float64
			Crossover CrossoverOp
			Mutation  MutationOp
		}{isl.par.pc, isl.par.pm, isl.par.crossover, isl.par.mutation})
	}
	res.History = history
	return res
}

func globalBest(islands []*island) int {
	best := islands[0].bestW
	for _, isl := range islands[1:] {
		if isl.bestW < best {
			best = isl.bestW
		}
	}
	return best
}

// evolveIsland runs EpochLength generations of the Fig. 6.1 loop on one
// island with its current parameter vector, using only island-local state.
// It polls ctx between fitness evaluations through an island-local checker
// (interrupt.Checker is not concurrency-safe) and returns early when
// cancelled, leaving the island's incumbent intact.
func evolveIsland(ctx context.Context, isl *island, cfg SAIGAConfig) {
	chk := interrupt.New(ctx, 1)
	popSize := len(isl.pop)
	rng := isl.rng
	next := make([]order.Ordering, popSize)
	nextFit := make([]int, popSize)
	for gen := 0; gen < cfg.EpochLength; gen++ {
		for i := range next {
			winner := rng.Intn(popSize)
			for k := 1; k < cfg.TournamentSize; k++ {
				c := rng.Intn(popSize)
				if isl.fit[c] < isl.fit[winner] {
					winner = c
				}
			}
			next[i] = isl.pop[winner].Clone()
			nextFit[i] = isl.fit[winner]
		}
		isl.pop, next = next, isl.pop
		isl.fit, nextFit = nextFit, isl.fit

		pairs := int(float64(popSize) * isl.par.pc / 2)
		for p := 0; p < pairs; p++ {
			a, b := 2*p, 2*p+1
			if b >= popSize {
				break
			}
			c1, c2 := Crossover(isl.par.crossover, isl.pop[a], isl.pop[b], rng)
			isl.pop[a], isl.pop[b] = c1, c2
			isl.fit[a], isl.fit[b] = -1, -1
		}
		for i := range isl.pop {
			if rng.Float64() < isl.par.pm {
				Mutate(isl.par.mutation, isl.pop[i], rng)
				isl.fit[i] = -1
			}
		}
		cancelled := false
		for i := range isl.pop {
			if isl.fit[i] < 0 {
				if !cancelled && chk.Stop() {
					cancelled = true
				}
				if cancelled {
					// Unevaluated after cancellation: assign a fitness no
					// real width (≤ n) can lose to, so selection and
					// migration never propagate the -1 marker.
					isl.fit[i] = len(isl.pop[i]) + 1
					continue
				}
				isl.fit[i] = isl.eval(isl.pop[i])
				isl.evals++
				cfg.Stats.Add(telemetry.GAEvaluations, 1)
			}
			if isl.fit[i] < isl.bestW {
				isl.bestW = isl.fit[i]
				isl.bestO = isl.pop[i].Clone()
			}
		}
		if cancelled {
			return
		}
		cfg.Stats.Add(telemetry.GAGenerations, 1)
	}
}

// migrate copies each island's best individuals over the worst individuals
// of the next island on the ring.
func migrate(islands []*island, cfg SAIGAConfig) {
	k := cfg.MigrationSize
	if k <= 0 {
		return
	}
	type migrant struct {
		o order.Ordering
		f int
	}
	outgoing := make([][]migrant, len(islands))
	for i, isl := range islands {
		idx := bestIndices(isl.fit, k)
		for _, j := range idx {
			outgoing[i] = append(outgoing[i], migrant{isl.pop[j].Clone(), isl.fit[j]})
		}
	}
	for i, isl := range islands {
		in := outgoing[(i+len(islands)-1)%len(islands)]
		idx := worstIndices(isl.fit, len(in))
		for m, j := range idx {
			isl.pop[j] = in[m].o
			isl.fit[j] = in[m].f
			if in[m].f < isl.bestW {
				isl.bestW = in[m].f
				isl.bestO = in[m].o.Clone()
			}
		}
	}
}

func bestIndices(fit []int, k int) []int {
	return extremeIndices(fit, k, func(a, b int) bool { return a < b })
}

func worstIndices(fit []int, k int) []int {
	return extremeIndices(fit, k, func(a, b int) bool { return a > b })
}

// extremeIndices returns the indices of the k most extreme fitness values
// under less (selection by simple partial sort; k is small).
func extremeIndices(fit []int, k int, less func(a, b int) bool) []int {
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
