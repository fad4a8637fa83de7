package csp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// This file pins the hashed kernels to the string-key implementations they
// replaced: refJoin/refSemijoin/refProject below are ports of the
// pre-integer-hash kernels, and the tests assert tuple-for-tuple agreement
// on randomized relations — including under a deliberately degenerate hash
// that forces every tuple into colliding buckets, proving the collision
// chains are verified by equality rather than trusted.

// Join returns the natural join a ⋈ b: a hash join on the shared
// variables, with b indexed once and a probing in row order, each probe
// meeting its matches in b's row order. The engine only ever projects its
// joins, so Join is test code: the reference that pins JoinProject(a, b,
// vars) to Project(Join(a, b), vars) row for row.
func Join(a, b *Relation) *Relation {
	shared := sharedVars(nil, a, b)
	// Output scope: a's scope followed by b's private variables.
	outScope := append([]int(nil), a.Scope...)
	var bPriv []int
	for p, v := range b.Scope {
		if a.pos(v) < 0 {
			outScope = append(outScope, v)
			bPriv = append(bPriv, p)
		}
	}
	aShared, bShared := a.positions(nil, shared), b.positions(nil, shared)
	var idx tupleIndex
	idx.build(b, bShared)
	out := &Relation{Scope: outScope}
	row := make([]int, len(outScope))
	for i := 0; i < a.Size(); i++ {
		ta := a.Row(i)
		for ti := idx.first(hashTuple(ta, aShared)); ti >= 0; ti = idx.next[ti] {
			tb := b.Row(int(ti))
			if !equalAt(ta, aShared, tb, bShared) {
				continue
			}
			copy(row, ta)
			for k, p := range bPriv {
				row[len(ta)+k] = tb[p]
			}
			out.AppendRow(row)
		}
	}
	return out
}

// refKey renders the values of tuple t (from relation r) at the given
// variables as a hashable string — the old kernel key function.
func refKey(r *Relation, t []int, vars []int) string {
	var b strings.Builder
	for _, v := range vars {
		fmt.Fprintf(&b, "%d,", t[r.pos(v)])
	}
	return b.String()
}

// refJoin is the old string-keyed natural join.
func refJoin(a, b *Relation) *Relation {
	shared := sharedVars(nil, a, b)
	outScope := append([]int(nil), a.Scope...)
	var bPrivate []int
	for _, v := range b.Scope {
		if a.pos(v) < 0 {
			outScope = append(outScope, v)
			bPrivate = append(bPrivate, v)
		}
	}
	index := make(map[string][][]int)
	for _, tb := range rowsOf(b) {
		k := refKey(b, tb, shared)
		index[k] = append(index[k], tb)
	}
	out := &Relation{Scope: outScope}
	for _, ta := range rowsOf(a) {
		k := refKey(a, ta, shared)
		for _, tb := range index[k] {
			row := make([]int, 0, len(outScope))
			row = append(row, ta...)
			for _, v := range bPrivate {
				row = append(row, tb[b.pos(v)])
			}
			out.AppendRow(row)
		}
	}
	return out
}

// refSemijoin is the old string-keyed semijoin.
func refSemijoin(a, b *Relation) *Relation {
	shared := sharedVars(nil, a, b)
	if len(shared) == 0 {
		if b.Size() == 0 {
			return &Relation{Scope: append([]int(nil), a.Scope...)}
		}
		return NewRelation(a.Scope, rowsOf(a))
	}
	seen := make(map[string]bool)
	for _, tb := range rowsOf(b) {
		seen[refKey(b, tb, shared)] = true
	}
	out := &Relation{Scope: append([]int(nil), a.Scope...)}
	for _, ta := range rowsOf(a) {
		if seen[refKey(a, ta, shared)] {
			out.AppendRow(ta)
		}
	}
	return out
}

// refProject is the old fmt.Sprint-deduped projection.
func refProject(r *Relation, vars []int) *Relation {
	var keep []int
	for _, v := range vars {
		if r.pos(v) >= 0 {
			keep = append(keep, v)
		}
	}
	out := &Relation{Scope: keep}
	seen := make(map[string]bool)
	for _, t := range rowsOf(r) {
		row := make([]int, len(keep))
		for i, v := range keep {
			row[i] = t[r.pos(v)]
		}
		k := fmt.Sprint(row)
		if !seen[k] {
			seen[k] = true
			out.AppendRow(row)
		}
	}
	return out
}

// refDiff is Diff by string keys: the rows of cur whose key over old's
// scope old lacks, then the rows of old whose key cur lacks. Relations
// over different variable sets share no key.
func refDiff(old, cur *Relation) (added, removed *Relation) {
	sameVars := len(old.Scope) == len(cur.Scope)
	for _, v := range old.Scope {
		sameVars = sameVars && cur.pos(v) >= 0
	}
	keys := func(r *Relation) map[string]bool {
		seen := map[string]bool{}
		for _, t := range rowsOf(r) {
			if sameVars {
				seen[refKey(r, t, old.Scope)] = true
			}
		}
		return seen
	}
	inOld, inCur := keys(old), keys(cur)
	added, removed = &Relation{Scope: append([]int(nil), cur.Scope...)}, &Relation{Scope: append([]int(nil), old.Scope...)}
	for _, t := range rowsOf(cur) {
		if !sameVars || !inOld[refKey(cur, t, old.Scope)] {
			added.AppendRow(t)
		}
	}
	for _, t := range rowsOf(old) {
		if !sameVars || !inCur[refKey(old, t, old.Scope)] {
			removed.AppendRow(t)
		}
	}
	return added, removed
}

// checkDiff asserts Diff against refDiff, row for row, on a duplicate-free
// old relation built from a and a cur that keeps some of its rows, adds
// others, and reorders its scope or, now and then, holds other variables.
func checkDiff(t *testing.T, rng *rand.Rand, a *Relation) {
	t.Helper()
	old := Project(a, a.Scope)
	perm := rng.Perm(old.Arity())
	scope := make([]int, len(perm))
	for i, p := range perm {
		scope[i] = old.Scope[p]
	}
	if rng.Intn(8) == 0 {
		scope[0] += 10
	}
	cur := &Relation{Scope: scope}
	row := make([]int, len(scope))
	for _, t := range rowsOf(old) {
		if rng.Intn(2) == 0 {
			for i, p := range perm {
				row[i] = t[p]
			}
			cur.AppendRow(row)
		}
	}
	for i := rng.Intn(6); i > 0; i-- {
		for j := range row {
			row[j] = rng.Intn(3)
		}
		cur.AppendRow(row)
	}
	cur = Project(cur, scope)
	gotA, gotR := Diff(old, cur)
	wantA, wantR := refDiff(old, cur)
	sameRows(t, "Diff added", gotA, wantA)
	sameRows(t, "Diff removed", gotR, wantR)
}

// randRelation builds a random relation whose scope is a random subset of
// universe variables and whose values come from a small domain (so joins
// actually match).
func randRelation(rng *rand.Rand, universe, maxArity, maxTuples, domain int) *Relation {
	arity := 1 + rng.Intn(maxArity)
	perm := rng.Perm(universe)
	scope := append([]int(nil), perm[:arity]...)
	r := &Relation{Scope: scope}
	for i := 0; i < rng.Intn(maxTuples+1); i++ {
		t := make([]int, arity)
		for j := range t {
			t[j] = rng.Intn(domain)
		}
		r.AppendRow(t)
	}
	return r
}

// sameRelation asserts equal scope and equal sorted tuple sets.
func sameRelation(t *testing.T, op string, got, want *Relation) {
	t.Helper()
	if !reflect.DeepEqual(got.Scope, want.Scope) {
		t.Fatalf("%s: scope %v, want %v", op, got.Scope, want.Scope)
	}
	gs, ws := got.Sorted(), want.Sorted()
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: tuples\n got %v\nwant %v", op, gs, ws)
	}
}

// rowsOf returns a copy of r's rows in order, each a non-nil slice.
func rowsOf(r *Relation) [][]int {
	out := make([][]int, r.Size())
	for i := range out {
		out[i] = append([]int{}, r.Row(i)...)
	}
	return out
}

// sameRows asserts equal scope and equal rows in the same order.
func sameRows(t *testing.T, op string, got, want *Relation) {
	t.Helper()
	if !reflect.DeepEqual(got.Scope, want.Scope) || !reflect.DeepEqual(rowsOf(got), rowsOf(want)) {
		t.Fatalf("%s: got %v %v\nwant %v %v", op, got.Scope, rowsOf(got), want.Scope, rowsOf(want))
	}
}

// checkJoinProject asserts the fused kernel's contract: JoinProject(a, b,
// vars) is Project(Join(a, b), vars) row for row.
func checkJoinProject(t *testing.T, a, b *Relation, vars []int) {
	t.Helper()
	sameRows(t, fmt.Sprintf("JoinProject %v", vars), JoinProject(a, b, vars), Project(Join(a, b), vars))
}

func testKernelsAgainstReference(t *testing.T, trials int) {
	rng := rand.New(rand.NewSource(7))
	// JoinProject's vars and Diff's inputs come from their own streams, so
	// the relations and keep lists the other checks draw are those they
	// always drew.
	varRng := rand.New(rand.NewSource(8))
	diffRng := rand.New(rand.NewSource(9))
	for trial := 0; trial < trials; trial++ {
		a := randRelation(rng, 6, 4, 24, 3)
		b := randRelation(rng, 6, 4, 24, 3)
		sameRelation(t, "Join", Join(a, b), refJoin(a, b))
		// Unsorted: the chained index must keep refJoin's probe order.
		sameRows(t, "Join order", Join(a, b), refJoin(a, b))
		sameRelation(t, "Semijoin", Semijoin(a, b), refSemijoin(a, b))
		var keep []int
		for _, v := range a.Scope {
			if rng.Intn(2) == 0 {
				keep = append(keep, v)
			}
		}
		keep = append(keep, 99) // out-of-scope vars must be ignored
		sameRelation(t, "Project", Project(a, keep), refProject(a, keep))
		var vars []int
		for _, v := range append(append([]int(nil), a.Scope...), b.Scope...) {
			if varRng.Intn(2) == 0 {
				vars = append(vars, v)
			}
		}
		varRng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
		checkJoinProject(t, a, b, append(vars, 99))
		checkDiff(t, diffRng, a)
	}
}

func TestKernelsMatchStringKeyReference(t *testing.T) {
	testKernelsAgainstReference(t, 300)
}

// withDegenerateHash runs f with the tuple-hash finisher collapsed to two
// buckets, so essentially every lookup walks an equality-verified collision
// chain. Not parallel-safe: it swaps a package-level seam.
func withDegenerateHash(t *testing.T, f func()) {
	t.Helper()
	orig := relHash
	relHash = func(h uint64) uint64 { return h & 1 }
	defer func() { relHash = orig }()
	f()
}

func TestKernelsSurviveForcedHashCollisions(t *testing.T) {
	withDegenerateHash(t, func() {
		testKernelsAgainstReference(t, 120)
	})
}

// TestKeysNumberFirstMet pins Keys against a map: ID numbers each new key
// densely in the order first met and returns the same number for it
// afterwards, read through any positions; Find agrees and writes nothing,
// so it reports −1 for a key never numbered. Both hash finishers.
func TestKeysNumberFirstMet(t *testing.T) {
	check := func() {
		rng := rand.New(rand.NewSource(12))
		for trial := 0; trial < 60; trial++ {
			r := randRelation(rng, 5, 4, 40, 3)
			pos := rng.Perm(r.Arity())[:rng.Intn(r.Arity()+1)]
			keys, ref := NewKeys(len(pos)), map[string]int{}
			for pass := 0; pass < 2; pass++ {
				for _, row := range rowsOf(r) {
					k := fmt.Sprint(valuesAt(row, pos))
					want, seen := ref[k]
					if !seen {
						want = len(ref)
					}
					if pass == 0 && !seen {
						if got := keys.Find(row, pos); got != -1 {
							t.Fatalf("trial %d: Find of a new key = %d, want -1", trial, got)
						}
						ref[k] = want
					}
					if got := keys.ID(row, pos); got != want {
						t.Fatalf("trial %d: ID = %d, want %d", trial, got, want)
					}
					if got := keys.Find(row, pos); got != want {
						t.Fatalf("trial %d: Find = %d, want %d", trial, got, want)
					}
				}
			}
		}
	}
	check()
	withDegenerateHash(t, check)
}

// valuesAt returns the values of row at pos.
func valuesAt(row, pos []int) []int {
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = row[p]
	}
	return out
}

func TestGroupSumsSurvivesForcedHashCollisions(t *testing.T) {
	check := func() {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 100; trial++ {
			child := randRelation(rng, 5, 3, 16, 3)
			parent := randRelation(rng, 5, 3, 16, 3)
			w := make([]int, child.Size())
			for i := range w {
				w[i] = 1 + rng.Intn(4)
			}
			shared := sharedVars(nil, child, parent)
			sums, ok := GroupSum(parent, child, w)
			if !ok {
				t.Fatalf("trial %d: GroupSum overflowed", trial)
			}
			pPos, cPos := parent.positions(nil, shared), child.positions(nil, shared)
			for pi, pt := range rowsOf(parent) {
				want := 0
				for ci, ct := range rowsOf(child) {
					if equalAt(pt, pPos, ct, cPos) {
						want += w[ci]
					}
				}
				if sums[pi] != want {
					t.Fatalf("trial %d: GroupSum = %d, want %d", trial, sums[pi], want)
				}
			}
		}
	}
	check()
	withDegenerateHash(t, check)
}

// TestGroupSumOverflow pins the counting kernel's overflow report: two
// weights whose sum passes math.MaxInt.
func TestGroupSumOverflow(t *testing.T) {
	a := NewRelation([]int{0}, [][]int{{1}})
	b := NewRelation([]int{0, 1}, [][]int{{1, 0}, {1, 1}})
	if _, ok := GroupSum(a, b, []int{math.MaxInt, 1}); ok {
		t.Fatal("GroupSum summed past math.MaxInt")
	}
	if sums, ok := GroupSum(a, b, []int{math.MaxInt - 1, 1}); !ok || sums[0] != math.MaxInt {
		t.Fatalf("GroupSum = %v, %v; want [MaxInt]", sums, ok)
	}
}

// TestOutputsSurviveScratchReuse pins the ownership contract: an output
// shares no memory with its inputs or with the scratch it was built in, so
// it keeps its rows after later kernel calls reuse that scratch.
func TestOutputsSurviveScratchReuse(t *testing.T) {
	a, b := benchRelations()
	outs := []*Relation{Semijoin(a, b), Project(a, []int{1, 2}), JoinProject(a, b, []int{0, 3})}
	want := make([][][]int, len(outs))
	for i, out := range outs {
		if out.Size() == 0 {
			t.Fatalf("output %d is empty", i)
		}
		want[i] = rowsOf(out)
	}
	if &outs[0].Row(0)[0] == &a.Row(0)[0] {
		t.Fatal("Semijoin shares its left input's store")
	}
	w := make([]int, a.Size())
	for k := 0; k < 3; k++ {
		Semijoin(b, a)
		Project(b, []int{3, 2})
		JoinProject(b, a, []int{3, 1, 0})
		GroupSum(b, a, w)
		SameSet(outs[1], outs[1])
	}
	for i, out := range outs {
		if !reflect.DeepEqual(rowsOf(out), want[i]) {
			t.Fatalf("output %d changed after later kernel calls", i)
		}
	}
}

// TestKernelOutputsSpanTableGrowth runs the kernels on outputs far larger
// than the tables they start with: JoinProject's set starts sized for its
// larger input and doubles as it fills. The rows must still match the
// references.
func TestKernelOutputsSpanTableGrowth(t *testing.T) {
	a, b := benchRelations()
	all := []int{0, 1, 2, 3}
	out := JoinProject(a, b, all)
	if out.Size() < 8*max(a.Size(), b.Size()) {
		t.Fatalf("%d rows: too few for several table doublings", out.Size())
	}
	sameRows(t, "JoinProject", out, Project(Join(a, b), all))
	sameRows(t, "Join", Join(a, b), refJoin(a, b))
	sameRelation(t, "Project", Project(a, a.Scope), refProject(a, a.Scope))
	checkJoinProject(t, a, b, []int{3, 0})
}

// benchRelations builds a pair of relations sized for the allocation
// benchmarks: 64-way key overlap so joins produce real output.
func benchRelations() (*Relation, *Relation) {
	rng := rand.New(rand.NewSource(42))
	a := &Relation{Scope: []int{0, 1, 2}}
	b := &Relation{Scope: []int{1, 2, 3}}
	for i := 0; i < 1000; i++ {
		a.AppendRow([]int{rng.Intn(50), rng.Intn(8), rng.Intn(8)})
		b.AppendRow([]int{rng.Intn(8), rng.Intn(8), rng.Intn(50)})
	}
	return a, b
}

func BenchmarkJoinHash(bm *testing.B) {
	a, b := benchRelations()
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		Join(a, b)
	}
}

func BenchmarkJoinProjectHash(bm *testing.B) {
	a, b := benchRelations()
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		JoinProject(a, b, []int{0, 3})
	}
}

func BenchmarkJoinStringKey(bm *testing.B) {
	a, b := benchRelations()
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		refJoin(a, b)
	}
}

func BenchmarkSemijoinHash(bm *testing.B) {
	a, b := benchRelations()
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		Semijoin(a, b)
	}
}

func BenchmarkSemijoinStringKey(bm *testing.B) {
	a, b := benchRelations()
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		refSemijoin(a, b)
	}
}

func BenchmarkProjectHash(bm *testing.B) {
	a, _ := benchRelations()
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		Project(a, []int{1, 2})
	}
}

func BenchmarkProjectStringKey(bm *testing.B) {
	a, _ := benchRelations()
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		refProject(a, []int{1, 2})
	}
}
