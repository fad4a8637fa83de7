package csp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func quickCfgCSP() *quick.Config {
	return &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(123))}
}

// relFromSeed builds a small random relation deterministically.
func relFromSeed(seed int64, scopeBase int) *Relation {
	rng := rand.New(rand.NewSource(seed))
	arity := 1 + rng.Intn(3)
	scope := make([]int, arity)
	perm := rng.Perm(5)
	for i := range scope {
		scope[i] = perm[i] + scopeBase
	}
	var tuples [][]int
	seen := map[string]bool{}
	for i := 0; i < rng.Intn(9); i++ {
		t := make([]int, arity)
		for j := range t {
			t[j] = rng.Intn(3)
		}
		k := refKey(&Relation{Scope: scope}, t, scope)
		if !seen[k] {
			seen[k] = true
			tuples = append(tuples, t)
		}
	}
	return NewRelation(scope, tuples)
}

// Property: semijoin result is always a subset of the left argument and
// idempotent: (a ⋉ b) ⋉ b = a ⋉ b.
func TestQuickSemijoinSubsetIdempotent(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := relFromSeed(s1, 0)
		b := relFromSeed(s2, 2) // overlapping variable ranges
		sj := Semijoin(a, b)
		if sj.Size() > a.Size() {
			return false
		}
		again := Semijoin(sj, b)
		if again.Size() != sj.Size() {
			return false
		}
		// Every surviving tuple must appear in a.
		inA := map[string]bool{}
		for _, ta := range rowsOf(a) {
			inA[refKey(a, ta, a.Scope)] = true
		}
		for _, ts := range rowsOf(sj) {
			if !inA[refKey(sj, ts, sj.Scope)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfgCSP()); err != nil {
		t.Fatal(err)
	}
}

// Property: |a ⋈ b| ≤ |a|·|b| and join with itself on identical scope is
// the relation itself (after dedup both ways).
func TestQuickJoinBounds(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := relFromSeed(s1, 0)
		b := relFromSeed(s2, 1)
		j := Join(a, b)
		if j.Size() > a.Size()*b.Size() {
			return false
		}
		self := Join(a, a)
		return self.Size() == a.Size()
	}
	if err := quick.Check(f, quickCfgCSP()); err != nil {
		t.Fatal(err)
	}
}

// Property: projection never increases cardinality and is idempotent.
func TestQuickProjectIdempotent(t *testing.T) {
	f := func(s1 int64, keepMask uint8) bool {
		a := relFromSeed(s1, 0)
		var keep []int
		for i, v := range a.Scope {
			if keepMask&(1<<uint(i%8)) != 0 {
				keep = append(keep, v)
			}
		}
		p := Project(a, keep)
		if p.Size() > a.Size() {
			return false
		}
		pp := Project(p, keep)
		return pp.Size() == p.Size()
	}
	if err := quick.Check(f, quickCfgCSP()); err != nil {
		t.Fatal(err)
	}
}
