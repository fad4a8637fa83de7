package decomp_test

import (
	"math/rand"
	"strings"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/order"
	"hypertree/internal/setcover"
)

func example5() *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	b.AddEdge("C1", "x1", "x2", "x3")
	b.AddEdge("C2", "x1", "x5", "x6")
	b.AddEdge("C3", "x3", "x4", "x5")
	return b.Build()
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

// paperTD builds the width-2 tree decomposition of Example 5 / Fig. 2.6(b):
// root {x1,x3,x5} with children {x1,x2,x3}, {x3,x4,x5}, {x1,x5,x6}.
func paperTD(h *hypergraph.Hypergraph) *decomp.Decomposition {
	idx := func(names ...string) *bitset.Set {
		s := bitset.New(h.NumVertices())
		for _, n := range names {
			s.Add(h.VertexIndex(n))
		}
		return s
	}
	d := decomp.New(h)
	root := d.AddNode(idx("x1", "x3", "x5"), nil)
	d.AddNode(idx("x1", "x2", "x3"), root)
	d.AddNode(idx("x3", "x4", "x5"), root)
	d.AddNode(idx("x1", "x5", "x6"), root)
	return d
}

func TestPaperTDValid(t *testing.T) {
	h := example5()
	d := paperTD(h)
	if err := d.ValidateTD(); err != nil {
		t.Fatal(err)
	}
	if d.Width() != 2 {
		t.Fatalf("width = %d, want 2", d.Width())
	}
}

func TestValidateCatchesMissingEdge(t *testing.T) {
	h := example5()
	d := decomp.New(h)
	all := bitset.New(h.NumVertices())
	all.Add(h.VertexIndex("x1"))
	d.AddNode(all, nil)
	if err := d.ValidateTD(); err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Fatalf("ValidateTD = %v, want 'not covered' error", err)
	}
}

func TestValidateCatchesDisconnectedVertex(t *testing.T) {
	h := example5()
	d := paperTD(h)
	// Add x2 to a far leaf: x2 now appears in two non-adjacent nodes.
	leaf := d.Nodes()[3] // {x1,x5,x6}
	leaf.Chi.Add(h.VertexIndex("x4"))
	if err := d.ValidateTD(); err == nil || !strings.Contains(err.Error(), "connectedness") {
		t.Fatalf("ValidateTD = %v, want connectedness error", err)
	}
}

func TestValidateCatchesBadTree(t *testing.T) {
	h := example5()
	d := paperTD(h)
	// Orphan a node: break parent pointer consistency.
	d.Nodes()[1].Parent = d.Nodes()[2]
	if err := d.ValidateTD(); err == nil {
		t.Fatal("ValidateTD accepted inconsistent parent pointers")
	}
}

func TestGHDValidation(t *testing.T) {
	h := example5()
	d := paperTD(h)
	// Cover χ labels exactly.
	s := setcover.New(h, nil)
	w := d.CoverChi(s.Exact)
	if err := d.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
	if w != d.GHWidth() || w != 2 {
		t.Fatalf("ghw = %d (CoverChi %d), want 2", d.GHWidth(), w)
	}
	// Corrupt a λ: validation must fail.
	d.Nodes()[0].Lambda = nil
	if err := d.ValidateGHD(); err == nil {
		t.Fatal("ValidateGHD accepted empty λ on non-empty χ")
	}
}

func TestLeafNormalFormOnPaperTD(t *testing.T) {
	h := example5()
	d := paperTD(h)
	lnf := decomp.TransformLeafNormalForm(d)
	if err := lnf.ValidateTD(); err != nil {
		t.Fatalf("LNF not a valid TD: %v", err)
	}
	if !lnf.IsLeafNormalForm() {
		t.Fatalf("result not in leaf normal form:\n%s", lnf)
	}
	if !lnf.LabelsSubsetOf(d) {
		t.Fatal("LNF labels not subsets of original labels (Theorem 1)")
	}
	if lnf.Width() > d.Width() {
		t.Fatalf("LNF width %d > original %d", lnf.Width(), d.Width())
	}
}

// Invariant 5 (Theorems 1–2): for random hypergraphs and random valid TDs,
// the LNF transform yields a valid leaf normal form with subset labels, and
// the extracted dca ordering's exact-cover width does not exceed the
// exact-cover width of the original decomposition.
func TestLeafNormalFormAndOrderingProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		h := randomHypergraph(11, 8, 4, seed)
		rng := rand.New(rand.NewSource(seed + 1000))
		o := order.Random(h.NumVertices(), rng)
		d := order.VertexElimination(h, o)
		if err := d.ValidateTD(); err != nil {
			t.Fatalf("seed %d: source TD invalid: %v", seed, err)
		}

		lnf := decomp.TransformLeafNormalForm(d)
		if err := lnf.ValidateTD(); err != nil {
			t.Fatalf("seed %d: LNF invalid TD: %v", seed, err)
		}
		if !lnf.IsLeafNormalForm() {
			t.Fatalf("seed %d: transform did not reach leaf normal form", seed)
		}
		if !lnf.LabelsSubsetOf(d) {
			t.Fatalf("seed %d: Theorem 1 subset property violated", seed)
		}

		sigma := lnf.EliminationOrdering()
		if err := order.Ordering(sigma).Validate(h.NumVertices()); err != nil {
			t.Fatalf("seed %d: extracted ordering invalid: %v", seed, err)
		}
		// Lemma 13 ⇒ width(σ) ≤ width(d) for tree width…
		if got, want := order.TWWidth(h, sigma), d.Width(); got > want {
			t.Fatalf("seed %d: tw width of dca ordering %d > original %d", seed, got, want)
		}
		// …and Theorem 2 for generalized hypertree width with exact covers.
		s := setcover.New(h, nil)
		origGHW := d.CoverChi(s.Exact)
		if got := order.GHWidth(h, sigma, nil, true, nil); got > origGHW {
			t.Fatalf("seed %d: ghw of dca ordering %d > original cover width %d (Theorem 2)", seed, got, origGHW)
		}
	}
}

func TestCompletePanicsOnInvalid(t *testing.T) {
	h := example5()
	d := decomp.New(h)
	d.AddNode(bitset.New(h.NumVertices()), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Complete on invalid decomposition must panic")
		}
	}()
	d.Complete()
}

func TestStringRendering(t *testing.T) {
	h := example5()
	d := paperTD(h)
	s := setcover.New(h, nil)
	d.CoverChi(s.Exact)
	out := d.String()
	if !strings.Contains(out, "x1") || !strings.Contains(out, "λ=") {
		t.Fatalf("String output missing content:\n%s", out)
	}
}

func TestEmptyDecompositionValidation(t *testing.T) {
	h := example5()
	d := decomp.New(h)
	if err := d.ValidateTD(); err == nil {
		t.Fatal("empty decomposition must fail validation")
	}
}
