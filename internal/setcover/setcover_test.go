package setcover

import (
	"math/rand"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/hypergraph"
)

func TestGreedyCoversTarget(t *testing.T) {
	h := hypergraph.FromEdges(6, [][]int{{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}})
	s := New(h, nil)
	target := bitset.FromSlice([]int{0, 1, 2, 3, 4, 5})
	cover := s.Greedy(target)
	covered := bitset.New(6)
	for _, e := range cover {
		covered.UnionWith(h.EdgeSet(e))
	}
	if !target.SubsetOf(covered) {
		t.Fatalf("greedy cover %v does not cover target", cover)
	}
}

func TestGreedyEmptyTarget(t *testing.T) {
	h := hypergraph.FromEdges(3, [][]int{{0, 1, 2}})
	s := New(h, nil)
	if got := s.Greedy(bitset.New(3)); len(got) != 0 {
		t.Fatalf("greedy on empty target = %v, want empty", got)
	}
}

func TestExactOptimal(t *testing.T) {
	// Classic greedy-suboptimal instance: greedy may take the big edge
	// first and then need two more; optimum is 2.
	h := hypergraph.FromEdges(8, [][]int{
		{0, 1, 2, 3}, // big bait
		{0, 1, 2, 4}, // optimal half 1 (plus 4)
		{3, 5, 6, 7}, // optimal half 2
		{4, 5},       // filler
	})
	s := New(h, nil)
	target := bitset.FromSlice([]int{0, 1, 2, 3, 4, 5, 6, 7})
	exact := s.Exact(target)
	if len(exact) != 2 {
		t.Fatalf("exact cover size = %d (%v), want 2", len(exact), exact)
	}
	covered := bitset.New(8)
	for _, e := range exact {
		covered.UnionWith(h.EdgeSet(e))
	}
	if !target.SubsetOf(covered) {
		t.Fatal("exact result is not a cover")
	}
}

func TestExactNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(12)
		m := 3 + rng.Intn(10)
		edges := make([][]int, 0, m)
		for e := 0; e < m; e++ {
			sz := 1 + rng.Intn(4)
			edge := make([]int, 0, sz)
			for len(edge) < sz {
				edge = append(edge, rng.Intn(n))
			}
			edges = append(edges, edge)
		}
		// Ensure coverage: add singleton edges for all vertices.
		for v := 0; v < n; v++ {
			edges = append(edges, []int{v})
		}
		h := hypergraph.FromEdges(n, edges)
		s := New(h, rand.New(rand.NewSource(int64(trial))))
		target := bitset.New(n)
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				target.Add(v)
			}
		}
		g := len(s.Greedy(target))
		ex := s.Exact(target)
		if len(ex) > g {
			t.Fatalf("trial %d: exact %d > greedy %d", trial, len(ex), g)
		}
		covered := bitset.New(n)
		for _, e := range ex {
			covered.UnionWith(h.EdgeSet(e))
		}
		if !target.SubsetOf(covered) {
			t.Fatalf("trial %d: exact result not a cover", trial)
		}
	}
}

// brute computes the true optimum by enumerating all edge subsets (small m).
func brute(h *hypergraph.Hypergraph, target *bitset.Set) int {
	m := h.NumEdges()
	best := m + 1
	for mask := 0; mask < 1<<m; mask++ {
		covered := bitset.New(h.NumVertices())
		cnt := 0
		for e := 0; e < m; e++ {
			if mask&(1<<e) != 0 {
				cnt++
				covered.UnionWith(h.EdgeSet(e))
			}
		}
		if cnt < best && target.SubsetOf(covered) {
			best = cnt
		}
	}
	return best
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(8)
		m := 2 + rng.Intn(7)
		edges := make([][]int, 0, m)
		for e := 0; e < m; e++ {
			sz := 1 + rng.Intn(n)
			edge := rng.Perm(n)[:sz]
			edges = append(edges, edge)
		}
		h := hypergraph.FromEdges(n, edges)
		// Target = subset of covered vertices only.
		all := bitset.New(n)
		for e := 0; e < h.NumEdges(); e++ {
			all.UnionWith(h.EdgeSet(e))
		}
		target := bitset.New(n)
		all.ForEach(func(v int) bool {
			if rng.Intn(2) == 0 {
				target.Add(v)
			}
			return true
		})
		s := New(h, nil)
		got := len(s.Exact(target))
		want := brute(h, target)
		if target.Empty() {
			want = 0
		}
		if got != want {
			t.Fatalf("trial %d: exact = %d, brute = %d (target %v)", trial, got, want, target)
		}
	}
}

func TestCoverLowerBound(t *testing.T) {
	h := hypergraph.FromEdges(9, [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8}, {0, 8}})
	// Sizes sorted: 4,3,2,2.
	cases := []struct{ size, want int }{
		{0, 0}, {1, 1}, {4, 1}, {5, 2}, {7, 2}, {8, 3}, {10, 4}, {12, 4},
	}
	for _, c := range cases {
		if got := SortedEdgeSizes(h).CoverLowerBound(c.size); got != c.want {
			t.Fatalf("CoverLowerBound(size=%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestTwKscLowerBound(t *testing.T) {
	// Clique hypergraph on 6 vertices as binary edges: tw = 5, every χ has
	// 6 vertices in the optimal TD, each binary edge covers 2 → ghw ≥ 3.
	var edges [][]int
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, []int{i, j})
		}
	}
	h := hypergraph.FromEdges(6, edges)
	if got := TwKscLowerBound(h, 5); got != 3 {
		t.Fatalf("TwKscLowerBound = %d, want 3", got)
	}
	// One big edge covering everything → bound collapses to 1.
	h2 := hypergraph.FromEdges(4, [][]int{{0, 1, 2, 3}, {0, 1}})
	if got := TwKscLowerBound(h2, 3); got != 1 {
		t.Fatalf("TwKscLowerBound big edge = %d, want 1", got)
	}
}

func TestGreedyRandomTieBreaking(t *testing.T) {
	// Two disjoint equal edges: with different seeds both should appear as
	// the first pick at least once.
	h := hypergraph.FromEdges(4, [][]int{{0, 1}, {2, 3}})
	target := bitset.FromSlice([]int{0, 1, 2, 3})
	firsts := map[int]bool{}
	for seed := int64(0); seed < 32; seed++ {
		s := New(h, rand.New(rand.NewSource(seed)))
		cover := s.Greedy(target)
		if len(cover) != 2 {
			t.Fatalf("cover size = %d, want 2", len(cover))
		}
		firsts[cover[0]] = true
	}
	if len(firsts) != 2 {
		t.Fatalf("random tie-breaking never varied first pick: %v", firsts)
	}
}
