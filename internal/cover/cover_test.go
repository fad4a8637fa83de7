package cover

import (
	"math/rand"
	"sync"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/setcover"
	"hypertree/internal/telemetry"
)

// randomTargets returns deterministic pseudo-random vertex subsets of h,
// with repeats so cache hits occur.
func randomTargets(h *hypergraph.Hypergraph, count int, seed int64) []*bitset.Set {
	rng := rand.New(rand.NewSource(seed))
	n := h.NumVertices()
	out := make([]*bitset.Set, 0, count)
	for i := 0; i < count; i++ {
		if len(out) > 0 && rng.Intn(4) == 0 {
			out = append(out, out[rng.Intn(len(out))].Clone())
			continue
		}
		s := bitset.New(n)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				s.Add(v)
			}
		}
		out = append(out, s)
	}
	return out
}

func testInstances() map[string]*hypergraph.Hypergraph {
	return map[string]*hypergraph.Hypergraph{
		"adder_8":   gen.Adder(8),
		"bridge_6":  gen.Bridge(6),
		"chain_12":  gen.Chain(12, 4, 2),
		"random_20": gen.RandomHypergraph(20, 30, 4, 7),
	}
}

// TestOracleMatchesSolver checks that every oracle query agrees with a
// plain deterministic setcover.Solver — on first query (miss), repeat
// query (hit), and with the cache disabled.
func TestOracleMatchesSolver(t *testing.T) {
	for name, h := range testInstances() {
		t.Run(name, func(t *testing.T) {
			ref := setcover.New(h, nil)
			orc := New(h, Options{})
			off := New(h, Options{Disabled: true})
			for pass := 0; pass < 2; pass++ {
				for i, target := range randomTargets(h, 40, 11) {
					wantG := ref.GreedySize(target)
					wantE := ref.ExactSize(target)
					for oname, o := range map[string]*Oracle{"cached": orc, "disabled": off} {
						if got := o.GreedySize(target, nil); got != wantG {
							t.Fatalf("pass %d target %d: %s GreedySize=%d want %d", pass, i, oname, got, wantG)
						}
						if got := o.ExactSize(target, nil); got != wantE {
							t.Fatalf("pass %d target %d: %s ExactSize=%d want %d", pass, i, oname, got, wantE)
						}
						if cov := o.Greedy(target); len(cov) != wantG || !covers(h, cov, target) {
							t.Fatalf("pass %d target %d: %s Greedy invalid (len=%d want %d)", pass, i, oname, len(cov), wantG)
						}
						if cov := o.Exact(target); len(cov) != wantE || !covers(h, cov, target) {
							t.Fatalf("pass %d target %d: %s Exact invalid (len=%d want %d)", pass, i, oname, len(cov), wantE)
						}
					}
				}
			}
			c := orc.Counters()
			if c.Hits == 0 || c.Misses == 0 {
				t.Fatalf("cached oracle counters: %+v, want nonzero hits and misses", c)
			}
			if c := off.Counters(); c.Hits != 0 || c.Misses != 0 {
				t.Fatalf("disabled oracle counted %+v, want zeros", c)
			}
		})
	}
}

// covers reports whether the edges of cov cover target ∩ coverable.
func covers(h *hypergraph.Hypergraph, cov []int, target *bitset.Set) bool {
	covered := bitset.New(h.NumVertices())
	for _, e := range cov {
		covered.UnionWith(h.EdgeSet(e))
	}
	// Vertices in no hyperedge are never coverable; drop them like the
	// oracle's canonicalization does.
	rest := target.Clone()
	coverable := bitset.New(h.NumVertices())
	for e := 0; e < h.NumEdges(); e++ {
		coverable.UnionWith(h.EdgeSet(e))
	}
	rest.IntersectWith(coverable)
	return rest.SubsetOf(covered)
}

// TestOracleReturnsFreshSlices guards against aliasing: mutating a
// returned cover must not corrupt the memo.
func TestOracleReturnsFreshSlices(t *testing.T) {
	h := gen.Adder(6)
	orc := New(h, Options{})
	target := bitset.New(h.NumVertices())
	for v := 0; v < h.NumVertices(); v += 2 {
		target.Add(v)
	}
	a := orc.Exact(target)
	want := append([]int(nil), a...)
	for i := range a {
		a[i] = -1
	}
	if b := orc.Exact(target); !equalInts(b, want) {
		t.Fatalf("memo corrupted by caller mutation: got %v want %v", b, want)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGreedyNeverServedFromExact pins the determinism contract: a greedy
// query after an exact query of the same bag must return the greedy
// answer, not the (possibly smaller) cached exact cover.
func TestGreedyNeverServedFromExact(t *testing.T) {
	for name, h := range testInstances() {
		t.Run(name, func(t *testing.T) {
			ref := setcover.New(h, nil)
			orc := New(h, Options{})
			for _, target := range randomTargets(h, 30, 23) {
				orc.ExactSize(target, nil) // populate the exact side first
				if got, want := orc.GreedySize(target, nil), ref.GreedySize(target); got != want {
					t.Fatalf("greedy after exact: got %d want %d", got, want)
				}
			}
		})
	}
}

// TestOracleConcurrent hammers one oracle from several goroutines with
// greedy, exact and fractional queries on the same bags, which share one
// entry and one insert path; each worker starts on a different kind, so
// the kinds race to create and fill the entries. Run with -race this
// validates the locking discipline.
func TestOracleConcurrent(t *testing.T) {
	h := gen.RandomHypergraph(24, 36, 4, 3)
	ref := setcover.New(h, nil)
	fracRef := New(h, Options{Disabled: true})
	orc := New(h, Options{})
	targets := randomTargets(h, 60, 5)
	wantG := make([]int, len(targets))
	wantE := make([]int, len(targets))
	wantF := make([]float64, len(targets))
	for i, tg := range targets {
		wantG[i] = ref.GreedySize(tg)
		wantE[i] = ref.ExactSize(tg)
		var err error
		if wantF[i], err = fracRef.FracValue(tg, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, tg := range targets {
					for q := 0; q < 3; q++ {
						switch (w + q) % 3 {
						case 0:
							if got := orc.GreedySize(tg, nil); got != wantG[i] {
								t.Errorf("worker %d: GreedySize(%d)=%d want %d", w, i, got, wantG[i])
								return
							}
						case 1:
							if got := orc.ExactSize(tg, nil); got != wantE[i] {
								t.Errorf("worker %d: ExactSize(%d)=%d want %d", w, i, got, wantE[i])
								return
							}
						case 2:
							if got, err := orc.FracValue(tg, nil); err != nil || got != wantF[i] {
								t.Errorf("worker %d: FracValue(%d)=%v, %v want %v", w, i, got, err, wantF[i])
								return
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c := orc.Counters(); c.Hits == 0 {
		t.Fatalf("no cross-goroutine hits recorded: %+v", c)
	}
}

// TestOracleEviction forces eviction with a tiny table and checks results
// stay correct and evictions are counted.
func TestOracleEviction(t *testing.T) {
	h := gen.RandomHypergraph(30, 40, 5, 9)
	ref := setcover.New(h, nil)
	orc := New(h, Options{MaxEntries: numShards * 2}) // minimum per-shard cap
	targets := randomTargets(h, 300, 31)
	for pass := 0; pass < 2; pass++ {
		for i, tg := range targets {
			if got, want := orc.ExactSize(tg, nil), ref.ExactSize(tg); got != want {
				t.Fatalf("pass %d target %d: ExactSize=%d want %d", pass, i, got, want)
			}
		}
	}
	if c := orc.Counters(); c.Evictions == 0 {
		t.Fatalf("tiny table recorded no evictions: %+v", c)
	}
}

// TestOracleEmptyAndUncoverable checks the canonicalization edge cases:
// empty bags cost 0, and vertices in no hyperedge are ignored.
func TestOracleEmptyAndUncoverable(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddEdge("e0", "a", "b")
	b.Vertex("isolated")
	h := b.Build()
	orc := New(h, Options{})
	if got := orc.ExactSize(bitset.New(h.NumVertices()), nil); got != 0 {
		t.Fatalf("empty bag: ExactSize=%d want 0", got)
	}
	iso := h.VertexIndex("isolated")
	if iso < 0 {
		t.Fatalf("isolated vertex missing")
	}
	target := bitset.FromSlice([]int{iso})
	if got := orc.ExactSize(target, nil); got != 0 {
		t.Fatalf("uncoverable-only bag: ExactSize=%d want 0", got)
	}
	target.Add(h.VertexIndex("a"))
	if got := orc.ExactSize(target, nil); got != 1 {
		t.Fatalf("mixed bag: ExactSize=%d want 1", got)
	}
}

func TestHitRate(t *testing.T) {
	if r := (CounterSnapshot{}).HitRate(); r != 0 {
		t.Fatalf("zero counters HitRate=%v want 0", r)
	}
	if r := (CounterSnapshot{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Fatalf("HitRate=%v want 0.75", r)
	}
}

// Only a timed oracle fills its latency histograms: the untimed one reads
// no clock for a query that carries no Stats.
func TestOracleTimedHistograms(t *testing.T) {
	h := gen.Adder(8)
	for _, timed := range []bool{false, true} {
		orc := New(h, Options{Timed: timed})
		for _, target := range randomTargets(h, 20, 3) {
			orc.ExactSize(target, nil)
			orc.GreedySize(target, nil)
			if _, err := orc.FracValue(target, nil); err != nil {
				t.Fatal(err)
			}
		}
		probe, solve, frac := orc.LatencySnapshots()
		for name, hs := range map[string]telemetry.HistSnapshot{"probe": probe, "solve": solve, "frac": frac} {
			if filled := hs.Count > 0; filled != timed {
				t.Errorf("timed=%v: %s histogram holds %d samples", timed, name, hs.Count)
			}
		}
	}
}

// A warm hit of each kind allocates nothing, with and without a Stats and
// on a timed oracle too.
func TestOracleWarmHitsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	h := gen.Adder(8)
	target := randomTargets(h, 1, 13)[0]
	for _, timed := range []bool{false, true} {
		orc := New(h, Options{Timed: timed})
		kinds := map[string]func(*telemetry.Stats){
			"greedy": func(st *telemetry.Stats) { orc.GreedySize(target, st) },
			"exact":  func(st *telemetry.Stats) { orc.ExactSize(target, st) },
			"frac": func(st *telemetry.Stats) {
				if _, err := orc.FracValue(target, st); err != nil {
					t.Fatal(err)
				}
			},
		}
		for name, query := range kinds {
			query(nil) // the miss that fills the entry
			for _, st := range []*telemetry.Stats{nil, new(telemetry.Stats)} {
				if allocs := testing.AllocsPerRun(50, func() { query(st) }); allocs != 0 {
					t.Errorf("timed=%v %s hit (stats %v): %v allocations per run, want 0",
						timed, name, st != nil, allocs)
				}
			}
		}
		if c := orc.Counters(); c.Misses != int64(len(kinds)) {
			t.Errorf("timed=%v: %d misses, want one per kind", timed, c.Misses)
		}
	}
}

func BenchmarkOracleHit(b *testing.B) {
	h := gen.Adder(10)
	orc := New(h, Options{})
	targets := randomTargets(h, 32, 17)
	for _, tg := range targets {
		orc.ExactSize(tg, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orc.ExactSize(targets[i%len(targets)], nil)
	}
}

func BenchmarkOracleMissDisabled(b *testing.B) {
	h := gen.Adder(10)
	orc := New(h, Options{Disabled: true})
	targets := randomTargets(h, 32, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orc.ExactSize(targets[i%len(targets)], nil)
	}
}
