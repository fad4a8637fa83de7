package csp_test

import (
	"math/rand"
	"testing"

	"hypertree/internal/csp"
	"hypertree/internal/order"
)

// Model counting through decompositions must agree exactly with
// brute-force enumeration, for both TD and GHD semantics.
func TestCountMatchesBacktracking(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 50; trial++ {
		c := randomCSP(rng, 6, 5, 2, 3)
		want := c.CountSolutions()
		h := c.Hypergraph()
		o := order.Random(h.NumVertices(), rng)

		td := order.VertexElimination(h, o)
		got, err := count(c, td)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: TD count %d, brute %d", trial, got, want)
		}

		ghd := order.GHD(h, o, rng, true, nil)
		got2, err := count(c, ghd)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got2 != want {
			t.Fatalf("trial %d: GHD count %d, brute %d", trial, got2, want)
		}
	}
}

func TestCountAustralia(t *testing.T) {
	c := csp.Australia()
	h := c.Hypergraph()
	o := order.Random(h.NumVertices(), rand.New(rand.NewSource(2)))
	td := order.VertexElimination(h, o)
	got, err := count(c, td)
	if err != nil {
		t.Fatal(err)
	}
	if got != 18 {
		t.Fatalf("Australia 3-colourings = %d, want 18", got)
	}
	ghd := order.GHD(h, o, nil, true, nil)
	got2, err := count(c, ghd)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != 18 {
		t.Fatalf("Australia via GHD = %d, want 18", got2)
	}
}

func TestCountUnsat(t *testing.T) {
	neq := [][]int{{0, 1}, {1, 0}}
	c := &csp.CSP{
		VarNames: []string{"x", "y", "z"},
		Domains:  [][]int{{0, 1}, {0, 1}, {0, 1}},
		Constraints: []*csp.Constraint{
			{Name: "xy", Rel: csp.NewRelation([]int{0, 1}, clone2(neq))},
			{Name: "yz", Rel: csp.NewRelation([]int{1, 2}, clone2(neq))},
			{Name: "xz", Rel: csp.NewRelation([]int{0, 2}, clone2(neq))},
		},
	}
	h := c.Hypergraph()
	td := order.VertexElimination(h, order.Identity(3))
	if got, err := count(c, td); err != nil || got != 0 {
		t.Fatalf("unsat count = %d (%v), want 0", got, err)
	}
}

func TestCountUnconstrainedVariables(t *testing.T) {
	// One binary constraint plus two free variables with domain sizes 3
	// and 4: count = |R| × 12.
	c := &csp.CSP{
		VarNames: []string{"a", "b", "f1", "f2"},
		Domains:  [][]int{{0, 1}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}},
		Constraints: []*csp.Constraint{
			{Name: "ab", Rel: csp.NewRelation([]int{0, 1}, [][]int{{0, 0}, {1, 1}})},
		},
	}
	h := c.Hypergraph()
	td := order.VertexElimination(h, order.Identity(4))
	got, err := count(c, td)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*12 {
		t.Fatalf("count = %d, want 24", got)
	}
	ghd := order.GHD(h, order.Identity(4), nil, true, nil)
	got2, err := count(c, ghd)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != 24 {
		t.Fatalf("GHD count = %d, want 24", got2)
	}
}

func TestCountShapeMismatch(t *testing.T) {
	c := csp.Australia()
	other := example5CSP()
	td := order.VertexElimination(other.Hypergraph(), order.Identity(6))
	if _, err := count(c, td); err == nil {
		t.Fatal("mismatched decomposition accepted")
	}
}
