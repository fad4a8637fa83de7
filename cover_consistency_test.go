// Cache-consistency tests for the shared cover-oracle layer: the oracle
// only memoizes deterministically computed covers, so enabling, sharing,
// or disabling the cache must be invisible in every result. These tests
// pin that contract at the facade level across the exp catalog, and check
// that a concurrent portfolio actually shares the table (nonzero
// cross-worker hits) — the latter also runs under -race in CI.
package htd

import (
	"context"
	"testing"

	"hypertree/internal/exp"
)

// consistencyMethods are the deterministic GHW engines the oracle backs.
// Budgets are node counts, not deadlines, so cache-on and cache-off runs
// expand identical search trees.
var consistencyMethods = []Method{MethodMinFill, MethodBB, MethodAStar}

func sameOrdering(a, b Ordering) bool {
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

// TestCoverCacheConsistency runs every catalog hypergraph through every
// deterministic GHW method with the cover cache enabled and disabled and
// requires bit-identical results: width, bounds, exactness, and the
// witness ordering itself.
func TestCoverCacheConsistency(t *testing.T) {
	for _, inst := range exp.Hypergraphs(false) {
		h := inst.Build()
		for _, m := range consistencyMethods {
			for _, seed := range []int64{1, 7} {
				base := Options{Method: m, Seed: seed, MaxNodes: 2000}

				on := base
				res1, err1 := GHW(h, on)

				off := base
				off.DisableCoverCache = true
				res2, err2 := GHW(h, off)

				name := inst.Name + "/" + m.String()
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s seed %d: error mismatch: %v vs %v", name, seed, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if res1.Width != res2.Width || res1.LowerBound != res2.LowerBound || res1.Exact != res2.Exact {
					t.Fatalf("%s seed %d: cache changed result: on=(w=%d lb=%d exact=%v) off=(w=%d lb=%d exact=%v)",
						name, seed, res1.Width, res1.LowerBound, res1.Exact,
						res2.Width, res2.LowerBound, res2.Exact)
				}
				if !sameOrdering(res1.Ordering, res2.Ordering) {
					t.Fatalf("%s seed %d: cache changed witness ordering:\n on=%v\noff=%v",
						name, seed, res1.Ordering, res2.Ordering)
				}
			}
		}
	}
}

// TestCoverCacheDecomposeConsistency pins the same contract for full
// decompositions: λ-materialization through a warm shared oracle must
// produce the same decomposition as through no cache at all.
func TestCoverCacheDecomposeConsistency(t *testing.T) {
	for _, inst := range exp.Hypergraphs(false) {
		h := inst.Build()
		base := Options{Method: MethodBB, Seed: 3, MaxNodes: 2000}
		d1, err1 := Decompose(h, base)
		off := base
		off.DisableCoverCache = true
		d2, err2 := Decompose(h, off)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: decompose errors: %v / %v", inst.Name, err1, err2)
		}
		if w1, w2 := d1.GHWidth(), d2.GHWidth(); w1 != w2 {
			t.Fatalf("%s: cache changed decomposition width: %d vs %d", inst.Name, w1, w2)
		}
	}
}

// TestPortfolioJobs1CacheReproducible checks the strongest reproducibility
// claim: a Jobs=1 portfolio is bit-for-bit identical across repeated runs
// and across the cache toggle, even though all sequential workers share
// one oracle whose table the earlier workers warm for the later ones.
func TestPortfolioJobs1CacheReproducible(t *testing.T) {
	for _, inst := range exp.Hypergraphs(false) {
		h := inst.Build()
		base := Options{Method: MethodPortfolio, Seed: 5, Jobs: 1, MaxNodes: 1500}
		ref, err := GHW(h, base)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		for run := 0; run < 2; run++ {
			opt := base
			opt.DisableCoverCache = run == 1
			res, err := GHW(h, opt)
			if err != nil {
				t.Fatalf("%s run %d: %v", inst.Name, run, err)
			}
			if res.Width != ref.Width || res.Exact != ref.Exact || res.Winner != ref.Winner ||
				!sameOrdering(res.Ordering, ref.Ordering) {
				t.Fatalf("%s run %d (cache off=%v): portfolio not reproducible:\nref=(w=%d exact=%v winner=%s ord=%v)\ngot=(w=%d exact=%v winner=%s ord=%v)",
					inst.Name, run, opt.DisableCoverCache,
					ref.Width, ref.Exact, ref.Winner, ref.Ordering,
					res.Width, res.Exact, res.Winner, res.Ordering)
			}
		}
	}
}

// TestPortfolioSharedCoverHits proves the cross-worker sharing is real.
// A Jobs=1 {min-fill, BB} portfolio runs its slots in order, and min-fill
// never reports Exact, so BB always starts on an oracle min-fill has
// warmed: the portfolio must record more cover hits than its two workers
// record alone, with the same options and private oracles. Only the
// shared table can explain the difference. A racing Jobs=3 portfolio over
// one shared oracle then exercises the sharded table from parallel
// workers (under `go test -race` in CI). Its hit count depends on which
// worker closes the instance first, so it must only record misses.
func TestPortfolioSharedCoverHits(t *testing.T) {
	coverCounts := func(name string, h *Hypergraph, opt Options) (hits, misses int64) {
		st := new(Stats)
		opt.Stats = st
		if _, err := GHWCtx(context.Background(), h, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap := st.Snapshot()
		return snap.CoverHits, snap.CoverMisses
	}
	for _, inst := range exp.Hypergraphs(false) {
		h := inst.Build()
		seq := Options{
			Method:    MethodPortfolio,
			Portfolio: []Method{MethodMinFill, MethodBB},
			Jobs:      1,
			Seed:      2,
			MaxNodes:  2000,
		}
		hits, _ := coverCounts(inst.Name, h, seq)
		var alone int64
		for i, m := range seq.Portfolio {
			workerHits, _ := coverCounts(inst.Name, h, seq.workerOptions(i, m))
			alone += workerHits
		}
		if hits <= alone {
			t.Fatalf("%s: shared oracle recorded %d cover hits, its workers alone %d", inst.Name, hits, alone)
		}

		racing := Options{
			Method:    MethodPortfolio,
			Portfolio: []Method{MethodBB, MethodAStar, MethodMinFill},
			Jobs:      3,
			Seed:      2,
			MaxNodes:  2000,
		}
		if _, misses := coverCounts(inst.Name, h, racing); misses == 0 {
			t.Fatalf("%s: racing portfolio recorded no cover misses — counters unplumbed?", inst.Name)
		}
	}
}

// TestCoverTelemetrySingleRun checks the facade folds oracle counters into
// Stats for plain (non-portfolio) runs too, and that disabling the cache
// zeroes them.
func TestCoverTelemetrySingleRun(t *testing.T) {
	h := exp.Hypergraphs(false)[0].Build()
	st := new(Stats)
	if _, err := GHW(h, Options{Method: MethodBB, Seed: 1, MaxNodes: 500, Stats: st}); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.CoverHits+snap.CoverMisses == 0 {
		t.Fatal("BB-ghw run recorded no cover-oracle traffic")
	}

	st2 := new(Stats)
	opt := Options{Method: MethodBB, Seed: 1, MaxNodes: 500, Stats: st2, DisableCoverCache: true}
	if _, err := GHW(h, opt); err != nil {
		t.Fatal(err)
	}
	if snap2 := st2.Snapshot(); snap2.CoverHits != 0 || snap2.CoverMisses != 0 {
		t.Fatalf("disabled cache still counted: hits=%d misses=%d", snap2.CoverHits, snap2.CoverMisses)
	}
}
