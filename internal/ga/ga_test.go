package ga

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hypertree/internal/bb"
	"hypertree/internal/hypergraph"
	"hypertree/internal/order"
	"hypertree/internal/search"
)

func gridHypergraph(n int) *hypergraph.Hypergraph {
	var edges [][]int
	at := func(r, c int) int { return r*n + c }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				edges = append(edges, []int{at(r, c), at(r, c+1)})
			}
			if r+1 < n {
				edges = append(edges, []int{at(r, c), at(r+1, c)})
			}
		}
	}
	return hypergraph.FromEdges(n*n, edges)
}

func cliqueHypergraph(n int) *hypergraph.Hypergraph {
	var edges [][]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, []int{i, j})
		}
	}
	return hypergraph.FromEdges(n, edges)
}

func randomHypergraph(n, m, maxArity int, seed int64) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][]int, 0, m+n)
	for e := 0; e < m; e++ {
		sz := 2 + rng.Intn(maxArity-1)
		edges = append(edges, rng.Perm(n)[:sz])
	}
	covered := make([]bool, n)
	for _, e := range edges {
		for _, v := range e {
			covered[v] = true
		}
	}
	for v := 0; v < n; v++ {
		if !covered[v] {
			edges = append(edges, []int{v, (v + 1) % n})
		}
	}
	return hypergraph.FromEdges(n, edges)
}

func smallConfig(seed int64) Config {
	return Config{
		PopulationSize: 40,
		CrossoverRate:  1.0,
		MutationRate:   0.3,
		TournamentSize: 2,
		Generations:    60,
		Crossover:      POS,
		Mutation:       ISM,
		Seed:           seed,
	}
}

func TestGATreewidthFindsGridOptimum(t *testing.T) {
	h := gridHypergraph(4) // tw = 4
	res := Search(context.Background(), search.Treewidth(h.PrimalGraph()), smallConfig(1))
	if res.Width != 4 {
		t.Fatalf("GA-tw on grid4 = %d, want 4", res.Width)
	}
	// Ordering must reproduce the width.
	if got := order.NewTWEvaluator(h.PrimalGraph()).Width(res.Ordering); got != res.Width {
		t.Fatalf("ordering width %d != reported %d", got, res.Width)
	}
}

func TestGAWidthIsUpperBound(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		h := randomHypergraph(12, 9, 4, seed)
		exact := bb.Search(context.Background(), search.Treewidth(h.PrimalGraph()), search.Options{Seed: seed})
		if !exact.Exact {
			t.Fatalf("seed %d: reference BB did not finish", seed)
		}
		res := Search(context.Background(), search.Treewidth(h.PrimalGraph()), smallConfig(seed))
		if res.Width < exact.Width {
			t.Fatalf("seed %d: GA width %d below exact %d", seed, res.Width, exact.Width)
		}
	}
}

func TestGAGHWOnClique(t *testing.T) {
	h := cliqueHypergraph(8) // ghw = 4
	res := Search(context.Background(), search.GHW(h), smallConfig(2))
	if res.Width < 4 {
		t.Fatalf("GA-ghw on K8 = %d, below optimum 4", res.Width)
	}
	if res.Width > 5 {
		t.Fatalf("GA-ghw on K8 = %d, implausibly weak", res.Width)
	}
	// Reported ordering must reproduce ≤ the reported width with exact covers.
	if got := order.GHWidth(h, res.Ordering, nil, true, nil); got > res.Width {
		t.Fatalf("ordering exact ghw %d > reported %d", got, res.Width)
	}
}

func TestGAHistoryMonotone(t *testing.T) {
	h := gridHypergraph(4)
	res := Search(context.Background(), search.Treewidth(h.PrimalGraph()), smallConfig(3))
	if len(res.History) != 61 {
		t.Fatalf("history length %d, want generations+1", len(res.History))
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatalf("best-so-far history not monotone at %d: %v", i, res.History)
		}
	}
	if res.History[len(res.History)-1] != res.Width {
		t.Fatal("final history entry differs from result width")
	}
}

func TestGADeterministicForSeed(t *testing.T) {
	h := randomHypergraph(14, 10, 4, 7)
	a := Search(context.Background(), search.Treewidth(h.PrimalGraph()), smallConfig(42))
	b := Search(context.Background(), search.Treewidth(h.PrimalGraph()), smallConfig(42))
	if a.Width != b.Width || a.Evaluations != b.Evaluations {
		t.Fatalf("same seed diverged: %v vs %v", a.Width, b.Width)
	}
}

func TestGAAllOperatorCombinations(t *testing.T) {
	h := randomHypergraph(10, 8, 3, 11)
	for _, c := range AllCrossoverOps {
		for _, m := range AllMutationOps {
			cfg := smallConfig(5)
			cfg.PopulationSize = 10
			cfg.Generations = 5
			cfg.Crossover = c
			cfg.Mutation = m
			res := Search(context.Background(), search.Treewidth(h.PrimalGraph()), cfg)
			if res.Width <= 0 || res.Width > 10 {
				t.Fatalf("%v/%v produced width %d", c, m, res.Width)
			}
			if err := res.Ordering.Validate(10); err != nil {
				t.Fatalf("%v/%v produced invalid ordering: %v", c, m, err)
			}
		}
	}
}

func TestSAIGAGHWOnClique(t *testing.T) {
	h := cliqueHypergraph(8)
	cfg := SAIGAConfig{
		Islands: 3, IslandPop: 30, Epochs: 8, EpochLength: 10,
		TournamentSize: 2, MigrationSize: 3, Seed: 4,
	}
	res := SAIGA(context.Background(), search.GHW(h), cfg)
	if res.Width < 4 || res.Width > 5 {
		t.Fatalf("SAIGA-ghw on K8 = %d, want 4..5", res.Width)
	}
	if len(res.FinalParams) != 3 {
		t.Fatalf("FinalParams count = %d", len(res.FinalParams))
	}
	for _, p := range res.FinalParams {
		if p.Pc < 0.01 || p.Pc > 1 || p.Pm < 0.01 || p.Pm > 1 {
			t.Fatalf("adapted parameter out of range: %+v", p)
		}
	}
	if err := res.Ordering.Validate(8); err != nil {
		t.Fatal(err)
	}
}

func TestSAIGATreewidthGrid(t *testing.T) {
	h := gridHypergraph(4)
	cfg := SAIGAConfig{
		Islands: 3, IslandPop: 40, Epochs: 10, EpochLength: 10,
		TournamentSize: 2, MigrationSize: 4, Seed: 5,
	}
	res := SAIGA(context.Background(), search.Treewidth(h.PrimalGraph()), cfg)
	if res.Width != 4 {
		t.Fatalf("SAIGA-tw on grid4 = %d, want 4", res.Width)
	}
	// History covers initialization plus every epoch and never worsens.
	if len(res.History) != 11 {
		t.Fatalf("history length %d, want epochs+1", len(res.History))
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatal("SAIGA history not monotone")
		}
	}
}

func TestSAIGAConfigSanitizing(t *testing.T) {
	h := cliqueHypergraph(5)
	cfg := SAIGAConfig{Islands: 1, IslandPop: 1, Epochs: 2, EpochLength: 2, MigrationSize: 99, Seed: 6}
	res := SAIGA(context.Background(), search.GHW(h), cfg) // must not panic despite degenerate config
	if res.Width <= 0 {
		t.Fatalf("degenerate config result: %+v", res)
	}
}

// A context cancelled before the call stops both engines right after their
// first fitness evaluation, which still yields an incumbent.
func TestStopBeforeCallEvaluatesOne(t *testing.T) {
	g := randomHypergraph(12, 9, 4, 3).PrimalGraph()
	m := search.Treewidth(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallConfig(1)
	cfg.HeuristicSeeds = 2
	saiga := SAIGAConfig{
		Islands: 3, IslandPop: 10, Epochs: 4, EpochLength: 4,
		TournamentSize: 2, MigrationSize: 2, Seed: 1,
	}
	for _, run := range []struct {
		name string
		res  Result
	}{
		{"GA", Search(ctx, m, cfg)},
		{"SAIGA", SAIGA(ctx, m, saiga).Result},
	} {
		res := run.res
		if res.Evaluations != 1 {
			t.Errorf("%s: %d evaluations, want 1", run.name, res.Evaluations)
		}
		if err := res.Ordering.Validate(12); err != nil {
			t.Errorf("%s: %v", run.name, err)
			continue
		}
		if w := order.NewTWEvaluator(g).Width(res.Ordering); w != res.Width {
			t.Errorf("%s: reported width %d, ordering has width %d", run.name, res.Width, w)
		}
		if len(res.History) != 1 || res.History[0] != res.Width {
			t.Errorf("%s: history %v, want [%d]", run.name, res.History, res.Width)
		}
	}
}

// A context cancelled from OnIncumbent at a fixed improvement stops both
// engines at the same point on every run, and the reported width is the
// width of the reported ordering.
func TestStopFromIncumbentDeterministic(t *testing.T) {
	g := randomHypergraph(16, 14, 4, 9).PrimalGraph()
	m := search.Treewidth(g)
	stopAt := func(k int) (context.Context, func(int), func() int) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		seen := 0
		return ctx, func(int) {
			if seen++; seen == k {
				cancel()
			}
		}, func() int { return seen }
	}
	runGA := func() (Result, int) {
		ctx, hook, seen := stopAt(3)
		cfg := smallConfig(3)
		cfg.OnIncumbent = hook
		return Search(ctx, m, cfg), seen()
	}
	runSAIGA := func() (SAIGAResult, int) {
		ctx, hook, seen := stopAt(2)
		cfg := SAIGAConfig{
			Islands: 3, IslandPop: 12, Epochs: 6, EpochLength: 4,
			TournamentSize: 2, MigrationSize: 2, Seed: 3, OnIncumbent: hook,
		}
		return SAIGA(ctx, m, cfg), seen()
	}
	ga1, seen := runGA()
	ga2, _ := runGA()
	if seen < 3 || len(ga1.History) > 60 {
		t.Fatalf("GA run was not stopped from OnIncumbent (%d improvements, %d history entries)", seen, len(ga1.History))
	}
	sa1, seen := runSAIGA()
	sa2, _ := runSAIGA()
	if seen < 2 || len(sa1.History) > 6 {
		t.Fatalf("SAIGA run was not stopped from OnIncumbent (%d improvements, %d history entries)", seen, len(sa1.History))
	}
	if !reflect.DeepEqual(ga1, ga2) {
		t.Errorf("stopped GA runs differ:\n%+v\n%+v", ga1, ga2)
	}
	if !reflect.DeepEqual(sa1, sa2) {
		t.Errorf("stopped SAIGA runs differ:\n%+v\n%+v", sa1, sa2)
	}
	for _, res := range []Result{ga1, sa1.Result} {
		if w := order.NewTWEvaluator(g).Width(res.Ordering); w != res.Width {
			t.Errorf("reported width %d, ordering has width %d", res.Width, w)
		}
	}
}
