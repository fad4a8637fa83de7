package detk

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/bb"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/search"
)

func TestAcyclicHasWidthOne(t *testing.T) {
	h := gen.Chain(6, 4, 2)
	d, ok := Decompose(h, 1, Options{})
	if !ok {
		t.Fatal("acyclic hypergraph has hw 1, det-1-decomp failed")
	}
	if err := d.ValidateGHD(); err != nil {
		t.Fatalf("invalid decomposition: %v", err)
	}
	if !CheckSpecial(d) {
		t.Fatal("descendant condition violated")
	}
	if d.GHWidth() > 1 {
		t.Fatalf("width %d > 1", d.GHWidth())
	}
}

func TestCycleNeedsWidthTwo(t *testing.T) {
	// A cycle of binary edges has hw = 2.
	h := hypergraph.FromGraph(gen.Cycle(7))
	if _, ok := Decompose(h, 1, Options{}); ok {
		t.Fatal("det-1-decomp succeeded on a cycle (hw = 2)")
	}
	d, ok := Decompose(h, 2, Options{})
	if !ok {
		t.Fatal("det-2-decomp failed on a cycle")
	}
	if err := d.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
	if !CheckSpecial(d) {
		t.Fatal("descendant condition violated")
	}
	w, _ := Width(h, 0, Options{})
	if w != 2 {
		t.Fatalf("hw(C7) = %d, want 2", w)
	}
}

func TestCliqueHypertreeWidth(t *testing.T) {
	// hw(K_2k as binary edges) = k: a single bag with a perfect matching.
	for _, n := range []int{4, 6} {
		h := gen.CliqueHypergraph(n)
		w, d := Width(h, 0, Options{})
		if w != n/2 {
			t.Fatalf("hw(K%d) = %d, want %d", n, w, n/2)
		}
		if err := d.ValidateGHD(); err != nil {
			t.Fatal(err)
		}
		if !CheckSpecial(d) {
			t.Fatal("descendant condition violated")
		}
	}
}

func TestAdderHypertreeWidth(t *testing.T) {
	h := gen.Adder(6)
	w, d := Width(h, 3, Options{})
	if w != 2 {
		t.Fatalf("hw(adder_6) = %d, want 2", w)
	}
	if err := d.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
	if !CheckSpecial(d) {
		t.Fatal("descendant condition violated")
	}
}

// ghw ≤ hw on random hypergraphs, and hw results are valid hypertree
// decompositions.
func TestHWAtLeastGHW(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		h := gen.RandomHypergraph(8, 6, 3, seed)
		ghw := bb.Search(context.Background(), search.GHW(h), search.Options{Seed: seed})
		if !ghw.Exact {
			t.Fatalf("seed %d: reference ghw not exact", seed)
		}
		hw, d := Width(h, 0, Options{})
		if hw < ghw.Width {
			t.Fatalf("seed %d: hw %d < ghw %d", seed, hw, ghw.Width)
		}
		if hw > 3*ghw.Width+1 {
			t.Fatalf("seed %d: hw %d implausibly above ghw %d", seed, hw, ghw.Width)
		}
		if err := d.ValidateGHD(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !CheckSpecial(d) {
			t.Fatalf("seed %d: descendant condition violated", seed)
		}
	}
}

// Completeness: whenever det-k-decomp says no, a larger k must succeed and
// brute-force ghw must exceed k (hw ≥ ghw, so ghw > k ⟹ hw > k is not
// usable directly; instead check monotonicity: success at k implies
// success at k+1).
func TestMonotoneInK(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		h := gen.RandomHypergraph(9, 7, 4, seed)
		prev := false
		for k := 1; k <= 4; k++ {
			_, ok := Decompose(h, k, Options{})
			if prev && !ok {
				t.Fatalf("seed %d: success at k=%d but failure at k=%d", seed, k-1, k)
			}
			prev = ok
		}
	}
}

func TestGuessBudget(t *testing.T) {
	h := gen.CliqueHypergraph(10)
	// With an absurdly small guess budget, width-5 search may fail…
	_, ok := Decompose(h, 5, Options{MaxGuesses: 1})
	_ = ok // either outcome is legal; the call must just terminate fast
	// …and k < hw must always fail regardless.
	if _, ok := Decompose(h, 2, Options{MaxGuesses: 100000}); ok {
		t.Fatal("det-2-decomp succeeded on K10 (hw = 5)")
	}
}

func TestWidthUnreachable(t *testing.T) {
	h := gen.CliqueHypergraph(8)
	if w, d := Width(h, 2, Options{}); w != -1 || d != nil {
		t.Fatalf("Width with maxK below hw returned %d", w)
	}
}

func TestRandomSeedsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_ = rng
	h := gen.RandomHypergraph(10, 8, 3, 77)
	w1, _ := Width(h, 0, Options{})
	w2, _ := Width(h, 0, Options{})
	if w1 != w2 {
		t.Fatalf("det-k-decomp nondeterministic: %d vs %d", w1, w2)
	}
}
