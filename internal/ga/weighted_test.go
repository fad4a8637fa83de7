package ga

import (
	"math"
	"testing"

	"hypertree/internal/hypergraph"
	"hypertree/internal/order"
)

func TestWeightedEvaluatorKnownValue(t *testing.T) {
	// Path a-b-c, all binary domains. Eliminating a,b,c yields cliques
	// {a,b}, {b,c}, {c}: w = log2(4 + 4 + 2) = log2(10).
	h := hypergraph.FromEdges(3, [][]int{{0, 1}, {1, 2}})
	ev := newWeightedEvaluator(h, []int{2, 2, 2})
	got := ev.weight(order.Ordering{0, 1, 2})
	want := math.Log2(10)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("weight = %v, want %v", got, want)
	}
}

func TestWeightedEvaluatorLargeDomainsNoOverflow(t *testing.T) {
	// Clique of 30 vertices with 1000 states each: 2^(30·log2 1000) ≈
	// 10^90 overflows float64 products but not the log-sum-exp path.
	var edges [][]int
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			edges = append(edges, []int{i, j})
		}
	}
	h := hypergraph.FromEdges(30, edges)
	states := make([]int, 30)
	for i := range states {
		states[i] = 1000
	}
	ev := newWeightedEvaluator(h, states)
	got := ev.weight(order.Identity(30))
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("weight overflowed: %v", got)
	}
	// Dominant term: the first clique has all 30 vertices → 30·log2(1000)
	// ≈ 298.97 bits; result must be just above that.
	if got < 298 || got > 301 {
		t.Fatalf("weight = %v, want ≈ 299", got)
	}
}

func TestWeightedGAPrefersSmallStateCliques(t *testing.T) {
	// Star with a huge-domain center plus a chain of small-domain
	// vertices: good orderings keep the big-domain variable out of large
	// cliques. Just assert the GA improves over the identity ordering.
	h := hypergraph.FromEdges(8, [][]int{
		{0, 1}, {0, 2}, {0, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
	})
	states := []int{50, 2, 2, 2, 2, 2, 2, 2}
	cfg := Config{
		PopulationSize: 30, CrossoverRate: 1, MutationRate: 0.3,
		TournamentSize: 2, Generations: 40, Crossover: POS, Mutation: ISM,
		Seed: 1,
	}
	res := WeightedTreewidth(h, states, cfg)
	ev := newWeightedEvaluator(h, states)
	identity := ev.weight(order.Identity(8))
	if res.Weight > identity+1e-9 {
		t.Fatalf("GA result %v worse than identity ordering %v", res.Weight, identity)
	}
	if got := ev.weight(res.Ordering); math.Abs(got-res.Weight) > 1e-9 {
		t.Fatalf("reported weight %v does not match ordering weight %v", res.Weight, got)
	}
	// History must be monotone non-increasing.
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]+1e-12 {
			t.Fatal("history not monotone")
		}
	}
}

func TestWeightedPanicsOnBadStates(t *testing.T) {
	h := hypergraph.FromEdges(2, [][]int{{0, 1}})
	for _, bad := range [][]int{{2}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("states %v accepted", bad)
				}
			}()
			WeightedTreewidth(h, bad, Config{PopulationSize: 4, Generations: 1})
		}()
	}
}
