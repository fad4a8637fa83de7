package order

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// hgFromSeed deterministically derives a small random hypergraph and
// ordering from fuzz inputs.
func hgSeedConfig() *quick.Config {
	return &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(99))}
}

// Property: for every random hypergraph and ordering, vertex elimination
// yields a VALID tree decomposition whose width matches the fast
// evaluator (invariants 1–2 of DESIGN.md §7, quick-checked).
func TestQuickVertexEliminationValid(t *testing.T) {
	f := func(seed int64, orderSeed int64) bool {
		h := randomHypergraph(10, 7, 4, seed%1000)
		o := Random(h.NumVertices(), rand.New(rand.NewSource(orderSeed)))
		d := VertexElimination(h, o)
		if d.ValidateTD() != nil {
			return false
		}
		return NewTWEvaluator(h.PrimalGraph()).Width(o) == d.Width()
	}
	if err := quick.Check(f, hgSeedConfig()); err != nil {
		t.Fatal(err)
	}
}

// Property: bucket elimination produces the same labels as vertex
// elimination for every ordering.
func TestQuickBucketEqualsVertex(t *testing.T) {
	f := func(seed int64, orderSeed int64) bool {
		h := randomHypergraph(9, 6, 3, seed%1000)
		o := Random(h.NumVertices(), rand.New(rand.NewSource(orderSeed)))
		dv := VertexElimination(h, o)
		db := BucketElimination(h, o)
		for i, n := range dv.Nodes() {
			if !n.Chi.Equal(db.Nodes()[i].Chi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, hgSeedConfig()); err != nil {
		t.Fatal(err)
	}
}

// Property: ghw(σ) with exact covers never exceeds the tw width + 1 of the
// same ordering, and greedy covers never beat exact covers.
func TestQuickCoverOrderings(t *testing.T) {
	f := func(seed int64, orderSeed int64) bool {
		h := randomHypergraph(9, 6, 4, seed%1000)
		o := Random(h.NumVertices(), rand.New(rand.NewSource(orderSeed)))
		tw := NewTWEvaluator(h.PrimalGraph()).Width(o)
		exact := GHWidth(h, o, nil, true, nil)
		greedy := GHWidth(h, o, rand.New(rand.NewSource(orderSeed)), false, nil)
		return exact <= tw+1 && greedy >= exact
	}
	if err := quick.Check(f, hgSeedConfig()); err != nil {
		t.Fatal(err)
	}
}

// Property: Positions is the true inverse of the permutation.
func TestQuickPositionsInverse(t *testing.T) {
	f := func(seed int64) bool {
		n := 1 + int(seed%17+17)%17 + 1
		o := Random(n, rand.New(rand.NewSource(seed)))
		pos := o.Positions()
		for i, v := range o {
			if pos[v] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, hgSeedConfig()); err != nil {
		t.Fatal(err)
	}
}
