package detk

import (
	"context"
	"testing"

	"hypertree/internal/bb"
	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/search"
)

// decompose runs det-k at budget k under no deadline.
func decompose(t *testing.T, h *hypergraph.Hypergraph, k int, opt Options) Result {
	t.Helper()
	r, err := Decompose(context.Background(), h, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// width runs the det-k width search under no deadline.
func width(t *testing.T, h *hypergraph.Hypergraph, maxK int, opt Options) (int, *decomp.Decomposition) {
	t.Helper()
	w, d, err := Width(context.Background(), h, maxK, opt)
	if err != nil {
		t.Fatal(err)
	}
	return w, d
}

func TestAcyclicHasWidthOne(t *testing.T) {
	h := gen.Chain(6, 4, 2)
	d := decompose(t, h, 1, Options{}).Decomposition
	if d == nil {
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
	if decompose(t, h, 1, Options{}).Decomposition != nil {
		t.Fatal("det-1-decomp succeeded on a cycle (hw = 2)")
	}
	d := decompose(t, h, 2, Options{}).Decomposition
	if d == nil {
		t.Fatal("det-2-decomp failed on a cycle")
	}
	if err := d.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
	if !CheckSpecial(d) {
		t.Fatal("descendant condition violated")
	}
	if w, _ := width(t, h, 0, Options{}); w != 2 {
		t.Fatalf("hw(C7) = %d, want 2", w)
	}
}

func TestCliqueHypertreeWidth(t *testing.T) {
	// hw(K_2k as binary edges) = k: a single bag with a perfect matching.
	for _, n := range []int{4, 6} {
		h := gen.CliqueHypergraph(n)
		w, d := width(t, h, 0, Options{})
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
	w, d := width(t, h, 3, Options{})
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
		hw, d := width(t, h, 0, Options{})
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
			ok := decompose(t, h, k, Options{}).Decomposition != nil
			if prev && !ok {
				t.Fatalf("seed %d: success at k=%d but failure at k=%d", seed, k-1, k)
			}
			prev = ok
		}
	}
}

func TestGuessBudget(t *testing.T) {
	h := gen.CliqueHypergraph(10)
	// An absurdly small guess budget cuts the width-5 search short: the
	// failure is no proof.
	if r := decompose(t, h, 5, Options{MaxGuesses: 1}); r.Decomposition != nil || r.Complete {
		t.Fatalf("capped run: witness %v, complete %v; want an incomplete failure", r.Decomposition != nil, r.Complete)
	}
	// k < hw must always fail regardless.
	if decompose(t, h, 2, Options{MaxGuesses: 100000}).Decomposition != nil {
		t.Fatal("det-2-decomp succeeded on K10 (hw = 5)")
	}
}

// A capped width search stops at the first level the cap cuts short
// instead of reading the truncated level as a proof and reporting a
// larger width.
func TestCappedWidthUndecided(t *testing.T) {
	h := gen.RandomHypergraph(6, 4, 2, 200)
	if w, _ := width(t, h, 0, Options{}); w != 1 {
		t.Fatalf("hw = %d, want 1", w)
	}
	if w, d := width(t, h, 0, Options{MaxGuesses: 1}); w != -1 || d != nil {
		t.Fatalf("capped width search returned %d, want −1 (undecided)", w)
	}
}

// The edgeless hypergraph has width 0, witnessed by one empty node.
func TestEdgelessWidthZero(t *testing.T) {
	for _, n := range []int{0, 3} {
		h := hypergraph.FromEdges(n, nil)
		w, d := width(t, h, 0, Options{})
		if w != 0 || d == nil {
			t.Fatalf("%d vertices: width %d, witness %v; want 0 with a witness", n, w, d != nil)
		}
		if err := d.ValidateGHD(); err != nil {
			t.Fatal(err)
		}
		if d.NumNodes() != 1 || d.GHWidth() != 0 || !CheckSpecial(d) {
			t.Fatalf("%d vertices: %d nodes of width %d", n, d.NumNodes(), d.GHWidth())
		}
		r, err := DecomposeBalanced(context.Background(), h, 0, BalancedOptions{})
		if err != nil || r.Decomposition == nil || !r.Complete {
			t.Fatalf("%d vertices: balanced engine at k=0: %+v, %v", n, r, err)
		}
	}
	if r := decompose(t, gen.Chain(3, 2, 1), 0, Options{}); r.Decomposition != nil || !r.Complete {
		t.Fatal("a hypergraph with edges decomposed at width 0")
	}
}

func TestWidthUnreachable(t *testing.T) {
	h := gen.CliqueHypergraph(8)
	if w, d := width(t, h, 2, Options{}); w != -1 || d != nil {
		t.Fatalf("Width with maxK below hw returned %d", w)
	}
}

func TestRandomSeedsStable(t *testing.T) {
	h := gen.RandomHypergraph(10, 8, 3, 77)
	w1, _ := width(t, h, 0, Options{})
	w2, _ := width(t, h, 0, Options{})
	if w1 != w2 {
		t.Fatalf("det-k-decomp nondeterministic: %d vs %d", w1, w2)
	}
}

// TestMemo checks the memo's semantics: ordered pairs, a failure and a
// witness told apart from a miss, and the first entry for a pair kept.
func TestMemo(t *testing.T) {
	var m memo
	a := bitset.FromSlice([]int{1, 2, 3})
	b := bitset.FromSlice([]int{4, 5})
	if _, ok := m.get(a, b); ok {
		t.Fatal("fresh memo has an entry")
	}
	m.put(a, b, nil)
	win := &node{chi: bitset.New(6)}
	m.put(a, b, win) // the recorded failure stays
	if n, ok := m.get(a, b); !ok || n != nil {
		t.Fatalf("recorded failure read back as (%v, %v)", n, ok)
	}
	if _, ok := m.get(b, a); ok {
		t.Fatal("(b, a) aliases (a, b)")
	}
	if _, ok := m.get(a, a); ok {
		t.Fatal("(a, a) falsely recorded")
	}
	m.put(b, a, win)
	if n, ok := m.get(b, a); !ok || n != win {
		t.Fatal("recorded witness not returned")
	}
}

// TestMemoEviction fills a memo past its cap: a full memo starts over, so
// entries may be dropped (reporting a miss) but never invented.
func TestMemoEviction(t *testing.T) {
	var m memo
	// Pair i is (the bits of i plus vertex 20, {24}): small sets, one pair
	// per i < 2^20, and no component equals a connector.
	pair := func(i int) (*bitset.Set, *bitset.Set) {
		comp := bitset.FromSlice([]int{20})
		for v := 0; v < 20; v++ {
			if i>>v&1 == 1 {
				comp.Add(v)
			}
		}
		return comp, bitset.FromSlice([]int{24})
	}
	total := maxMemoEntries + 500
	for i := 0; i < total; i++ {
		comp, conn := pair(i)
		m.put(comp, conn, nil)
	}
	if m.n != total-maxMemoEntries {
		t.Fatalf("memo holds %d entries after %d puts, want %d", m.n, total, total-maxMemoEntries)
	}
	check := func(i int) {
		comp, conn := pair(i)
		if _, ok := m.get(conn, comp); ok {
			t.Fatalf("swapped pair %d falsely recorded", i)
		}
		if _, ok := m.get(comp, conn); ok != (i >= maxMemoEntries) {
			t.Fatalf("pair %d: recorded=%v after the memo started over", i, ok)
		}
	}
	for i := 0; i < 500; i++ {
		check(i) // dropped when the memo started over
	}
	for i := total - 1000; i < total; i++ {
		check(i) // straddles the restart
	}
}
