package frac

import (
	"context"
	"testing"

	"hypertree/internal/bb"
	"hypertree/internal/cover"
	"hypertree/internal/detk"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/search"
)

// consistencySuite is a small cross-section of the exp catalog's families
// (rebuilt here from gen to avoid an import cycle with internal/exp).
func consistencySuite() []struct {
	name  string
	build func() *hypergraph.Hypergraph
} {
	return []struct {
		name  string
		build func() *hypergraph.Hypergraph
	}{
		{"adder_10", func() *hypergraph.Hypergraph { return gen.Adder(10) }},
		{"bridge_10", func() *hypergraph.Hypergraph { return gen.Bridge(10) }},
		{"clique_8", func() *hypergraph.Hypergraph { return gen.CliqueHypergraph(8) }},
		{"chain_10", func() *hypergraph.Hypergraph { return gen.Chain(10, 4, 2) }},
		{"grid2d_5", func() *hypergraph.Hypergraph { return gen.Grid2DHypergraph(5, 5) }},
		{"random_12", func() *hypergraph.Hypergraph { return gen.RandomHypergraph(12, 10, 4, 7) }},
	}
}

// The frac memo is result-invisible: every memoized LP is computed
// deterministically, so the search returns bit-identical widths and
// orderings with the cache enabled and disabled.
func TestSearchCacheConsistency(t *testing.T) {
	for _, inst := range consistencySuite() {
		h := inst.build()
		on, err := SearchCtx(context.Background(), h, Options{
			Seed: 3, Rounds: 25,
			Oracle: cover.New(h, cover.Options{}),
		})
		if err != nil {
			t.Fatalf("%s (memo on): %v", inst.name, err)
		}
		off, err := SearchCtx(context.Background(), h, Options{
			Seed: 3, Rounds: 25,
			Oracle: cover.New(h, cover.Options{Disabled: true}),
		})
		if err != nil {
			t.Fatalf("%s (memo off): %v", inst.name, err)
		}
		if on.Width != off.Width { // bit-identical, no epsilon
			t.Errorf("%s: width %v with memo, %v without", inst.name, on.Width, off.Width)
		}
		if len(on.Ordering) != len(off.Ordering) {
			t.Fatalf("%s: ordering lengths differ", inst.name)
		}
		for i := range on.Ordering {
			if on.Ordering[i] != off.Ordering[i] {
				t.Fatalf("%s: orderings diverge at %d", inst.name, i)
			}
		}
	}
}

// Jobs=1 runs are fully reproducible for a fixed seed.
func TestSearchReproducible(t *testing.T) {
	h := gen.RandomHypergraph(14, 12, 4, 11)
	a, err := SearchCtx(context.Background(), h, Options{Seed: 5, Rounds: 40, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SearchCtx(context.Background(), h, Options{Seed: 5, Rounds: 40, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Width != b.Width || a.Rounds != b.Rounds {
		t.Fatalf("irreproducible: %+v vs %+v", a, b)
	}
	for i := range a.Ordering {
		if a.Ordering[i] != b.Ordering[i] {
			t.Fatalf("orderings diverge at %d", i)
		}
	}
}

// Parallel workers share one frac memo: worker 0 reuses the Jobs=1 rng
// stream, so the reduced width never exceeds the sequential one, the run
// is deterministic per Jobs value, and cross-worker reuse shows up as
// cache hits. Run under -race this also exercises the memo's sharding.
func TestSearchParallelSharedMemo(t *testing.T) {
	h := gen.RandomHypergraph(14, 12, 4, 11)
	seq, err := SearchCtx(context.Background(), h, Options{Seed: 5, Rounds: 30, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	orc := cover.New(h, cover.Options{})
	par, err := SearchCtx(context.Background(), h, Options{Seed: 5, Rounds: 30, Jobs: 3, Oracle: orc})
	if err != nil {
		t.Fatal(err)
	}
	if par.Width > seq.Width+1e-12 {
		t.Errorf("Jobs=3 width %v > Jobs=1 width %v (worker 0 replays the sequential stream)", par.Width, seq.Width)
	}
	if par.Workers != 3 {
		t.Errorf("Workers = %d, want 3", par.Workers)
	}
	if c := orc.Counters(); c.Hits == 0 {
		t.Error("no cross-worker frac-memo hits in a 3-worker run")
	}
	par2, err := SearchCtx(context.Background(), h, Options{Seed: 5, Rounds: 30, Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if par.Width != par2.Width {
		t.Errorf("Jobs=3 width irreproducible: %v vs %v", par.Width, par2.Width)
	}
}

// The width sandwich of the survey: fhw(H) ≤ ghw(H) ≤ hw(H), with the
// engine's anytime result an upper bound on fhw.
func TestWidthSandwich(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		h := gen.RandomHypergraph(7, 6, 3, seed)
		fhw := ExactSmall(h)
		ghw := bb.Search(context.Background(), search.GHW(h), search.Options{Seed: seed})
		if !ghw.Exact {
			t.Fatalf("seed %d: BB-ghw not exact on 7 vertices", seed)
		}
		hw, _, _ := detk.Width(context.Background(), h, 0, detk.Options{})
		if fhw > float64(ghw.Width)+1e-6 {
			t.Errorf("seed %d: fhw %v > ghw %d", seed, fhw, ghw.Width)
		}
		if ghw.Width > hw {
			t.Errorf("seed %d: ghw %d > hw %d", seed, ghw.Width, hw)
		}
		ub, err := SearchCtx(context.Background(), h, Options{Seed: seed, Rounds: 20})
		if err != nil {
			t.Fatal(err)
		}
		if ub.Width < fhw-1e-6 {
			t.Errorf("seed %d: anytime ub %v below exact fhw %v", seed, ub.Width, fhw)
		}
	}
}
