package frac

import (
	"math"
	"math/rand"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/order"
	"hypertree/internal/setcover"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestCoverTriangle(t *testing.T) {
	// K3 as binary edges: fractional cover of all three vertices is 3/2
	// (weight ½ on each edge), strictly below the integral 2.
	h := gen.CliqueHypergraph(3)
	all := bitset.FromSlice([]int{0, 1, 2})
	w, weights, err := Cover(h, all)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(w, 1.5) {
		t.Fatalf("ρ*(K3) = %v, want 1.5", w)
	}
	total := 0.0
	covered := make([]float64, 3)
	for e, x := range weights {
		total += x
		for _, v := range h.Edge(e) {
			covered[v] += x
		}
	}
	if !approx(total, 1.5) {
		t.Fatalf("weights sum %v", total)
	}
	for v, c := range covered {
		if c < 1-1e-6 {
			t.Fatalf("vertex %d covered only %v", v, c)
		}
	}
}

func TestCoverKnownValues(t *testing.T) {
	// ρ*(K_n, all vertices) = n/2 for binary-edge cliques.
	for _, n := range []int{4, 5, 6} {
		h := gen.CliqueHypergraph(n)
		all := bitset.New(n)
		for v := 0; v < n; v++ {
			all.Add(v)
		}
		w, _, err := Cover(h, all)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(w, float64(n)/2) {
			t.Fatalf("ρ*(K%d) = %v, want %v", n, w, float64(n)/2)
		}
	}
}

func TestCoverEmptyAndUnconstrained(t *testing.T) {
	h := gen.CliqueHypergraph(3)
	if w, _, _ := Cover(h, bitset.New(3)); w != 0 {
		t.Fatalf("empty target cover = %v", w)
	}
	// Vertex 5 does not exist in any edge of a padded hypergraph.
	h2 := gen.Chain(2, 3, 1)
	target := bitset.New(h2.NumVertices())
	target.Add(0)
	w, _, err := Cover(h2, target)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(w, 1) {
		t.Fatalf("single-vertex cover = %v", w)
	}
}

// Fractional covers never exceed integral covers.
func TestFractionalAtMostIntegral(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		h := gen.RandomHypergraph(10, 8, 4, int64(trial))
		s := setcover.New(h, nil)
		target := bitset.New(10)
		for v := 0; v < 10; v++ {
			if rng.Intn(2) == 0 {
				target.Add(v)
			}
		}
		fw, _, err := Cover(h, target)
		if err != nil {
			t.Fatal(err)
		}
		iw := float64(s.ExactSize(target))
		if fw > iw+1e-6 {
			t.Fatalf("trial %d: fractional %v > integral %v", trial, fw, iw)
		}
	}
}

// fhw(σ) ≤ ghw(σ) for every ordering (pointwise relaxation).
func TestWidthAtMostGHWWidth(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		h := gen.RandomHypergraph(9, 7, 4, seed)
		o := order.Random(9, rand.New(rand.NewSource(seed)))
		fw := Width(h, o)
		gw := float64(order.GHWidth(h, o, nil, true, nil))
		if fw > gw+1e-6 {
			t.Fatalf("seed %d: fhw width %v > ghw width %v", seed, fw, gw)
		}
	}
}

func TestKnownFHW(t *testing.T) {
	// K5: fhw = 5/2 (single bag, weight ½ on all edges); ghw = 3.
	h := gen.CliqueHypergraph(5)
	if got := ExactSmall(h); !approx(got, 2.5) {
		t.Fatalf("fhw(K5) = %v, want 2.5", got)
	}
	// Acyclic chain: fhw = 1.
	if got := ExactSmall(gen.Chain(3, 3, 1)); !approx(got, 1) {
		t.Fatalf("fhw(chain) = %v, want 1", got)
	}
}

func TestMinFillUpperBound(t *testing.T) {
	h := gen.CliqueHypergraph(6)
	ub, o := MinFillUpperBound(h, 1)
	if err := o.Validate(6); err != nil {
		t.Fatal(err)
	}
	if !approx(ub, 3) {
		t.Fatalf("min-fill fhw ub on K6 = %v, want 3.0", ub)
	}
}

func TestLocalSearchNeverWorsens(t *testing.T) {
	h := gen.RandomHypergraph(10, 8, 4, 3)
	start := order.Random(10, rand.New(rand.NewSource(4)))
	w0 := Width(h, start)
	w1, o := LocalSearch(h, start, 40, 5)
	if w1 > w0+1e-9 {
		t.Fatalf("local search worsened: %v -> %v", w0, w1)
	}
	if !approx(Width(h, o), w1) {
		t.Fatal("reported width does not match returned ordering")
	}
}

// The ch. 3 transfer: the dca ordering of a leaf normal form has
// fractional width ≤ the maximum fractional cover of the source
// decomposition's χ labels (monotone-measure version of Theorem 2).
func TestLeafNormalFormTransfersToFractional(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h := gen.RandomHypergraph(9, 7, 3, seed)
		o := order.Random(9, rand.New(rand.NewSource(seed+50)))
		d := order.VertexElimination(h, o)
		orig := 0.0
		for _, n := range d.Nodes() {
			if w, _, err := Cover(h, n.Chi); err != nil {
				t.Fatal(err)
			} else if w > orig {
				orig = w
			}
		}
		lnf := decomp.TransformLeafNormalForm(d)
		sigma := lnf.EliminationOrdering()
		if got := Width(h, sigma); got > orig+1e-6 {
			t.Fatalf("seed %d: dca ordering fractional width %v > source %v", seed, got, orig)
		}
	}
}
