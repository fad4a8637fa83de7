package csp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestKernelsAllocateOnlyTheirOutput is the kernels' allocation gate: once
// their scratch is warm, each call allocates its output and nothing else —
// a Relation, its scope and its store; Diff two of them; GroupSum its
// sums; SameSet nothing.
// JoinProject over every variable fills its set far past the table it
// starts with, so its growth is gated too.
func TestKernelsAllocateOnlyTheirOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	a, b := benchRelations()
	w := make([]int, b.Size())
	for i := range w {
		w[i] = 1
	}
	p := Project(a, a.Scope)
	q := Semijoin(p, NewRelation([]int{1}, [][]int{{0}, {1}, {2}, {3}}))
	for _, k := range []struct {
		name   string
		allocs float64
		run    func()
	}{
		{"Semijoin", 3, func() { Semijoin(a, b) }},
		{"Project", 3, func() { Project(a, []int{2, 1}) }},
		{"JoinProject", 3, func() { JoinProject(a, b, []int{0, 3}) }},
		{"JoinProject/all", 3, func() { JoinProject(a, b, []int{0, 1, 2, 3}) }},
		{"SameSet", 0, func() { SameSet(p, p) }},
		{"Diff", 6, func() { Diff(p, q) }},
		{"GroupSum", 1, func() { GroupSum(a, b, w) }},
	} {
		k.run()
		k.run()
		if got := testing.AllocsPerRun(20, k.run); got > k.allocs {
			t.Errorf("%s: %v allocations per call, want at most %v", k.name, got, k.allocs)
		}
	}
}

// TestKernelsConcurrentMatchSequential runs every kernel from several
// goroutines at once on shared inputs. Each call must work in its own
// scratch and leave its inputs as they were, so every result equals the
// sequential one.
func TestKernelsConcurrentMatchSequential(t *testing.T) {
	type input struct {
		a, b *Relation
		vars []int
	}
	rng := rand.New(rand.NewSource(13))
	var inputs []input
	for i := 0; i < 40; i++ {
		a, b := randRelation(rng, 6, 4, 40, 3), randRelation(rng, 6, 4, 40, 3)
		inputs = append(inputs, input{a, b, append(append([]int(nil), b.Scope...), a.Scope[0])})
	}
	a, b := benchRelations()
	inputs = append(inputs, input{a, b, []int{0, 1, 2, 3}})
	results := func(in input) string {
		w := make([]int, in.b.Size())
		for i := range w {
			w[i] = i
		}
		sums, ok := GroupSum(in.a, in.b, w)
		jp, pa := JoinProject(in.a, in.b, in.vars), Project(in.a, in.a.Scope)
		added, removed := Diff(pa, Semijoin(pa, in.b))
		return fmt.Sprint(rowsOf(jp), rowsOf(Semijoin(in.a, in.b)), rowsOf(pa),
			sums, ok, SameSet(pa, Project(in.a, in.a.Scope)), SameSet(jp, pa),
			rowsOf(added), rowsOf(removed))
	}
	want := make([]string, len(inputs))
	for i, in := range inputs {
		want[i] = results(in)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range inputs {
				i := (k + g*len(inputs)/4) % len(inputs)
				if got := results(inputs[i]); got != want[i] {
					t.Errorf("goroutine %d, input %d: results differ from the sequential run", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}
