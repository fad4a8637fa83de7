// The differential battery gating the promoted balanced-separator engine:
// on every catalog instance whose exact hypertree width the det-k
// reference can certify within budget, MethodBalSep must agree — succeed
// at the exact width with a decomposition that validates and satisfies
// the descendant condition, and never fabricate a witness below it. The
// battery also pins the engine's run contract: runs are bit-for-bit
// reproducible, an 8-goroutine pile-up on one shared cover oracle is
// race-clean, and mid-recursion cancellation surfaces ctx.Err() without
// leaking goroutines.
package htd

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hypertree/internal/cover"
	"hypertree/internal/detk"
	"hypertree/internal/exp"
	"hypertree/internal/gen"
)

// diffBudget is the per-instance budget for one reference or balsep run.
// Race instrumentation slows the search loops roughly an order of
// magnitude; scaling the budget (rather than skipping) keeps the battery
// meaningful under -race, at the price of comparing fewer instances when
// the reference times out.
func diffBudget() time.Duration {
	if raceEnabled {
		return 15 * time.Second
	}
	return 10 * time.Second
}

// TestBalSepDifferentialCatalog sweeps the full laptop-scale hypergraph
// catalog. Per instance it first certifies a reference width W — the
// det-k width search, falling back to the exact BB ghw search on dense
// instances where det-k's below-width infeasibility proofs blow the
// budget — then differentially compares the fixed-k verdicts of det-k and
// balsep at W (they implement the same decision problem, so complete runs
// must agree exactly, even when hw > ghw makes both reject a BB-certified
// W). Instances with no certifiable reference are skipped (and logged);
// at least 4 must survive, so the battery cannot silently degenerate to a
// trivial subset.
func TestBalSepDifferentialCatalog(t *testing.T) {
	var compared atomic.Int32
	t.Cleanup(func() {
		if !t.Failed() && compared.Load() < 4 {
			t.Errorf("only %d catalog instances compared — the battery lost its coverage floor", compared.Load())
		}
	})
	for _, inst := range exp.Hypergraphs(false) {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			t.Parallel()
			h := inst.Build()
			ctx, cancel := context.WithTimeout(context.Background(), diffBudget())
			w, _, err := HypertreeWidthCtx(ctx, h, 0, nil, nil)
			cancel()
			if err != nil {
				ctx, cancel := context.WithTimeout(context.Background(), diffBudget())
				res, bbErr := GHWCtx(ctx, h, Options{Method: MethodBB, Seed: 1})
				cancel()
				if bbErr != nil || !res.Exact {
					t.Logf("%s: neither det-k nor BB certified a reference width, skipping", inst.Name)
					return
				}
				w = res.Width
			}

			// Reference verdict at W from det-k's own fixed-k decision (cheap
			// even where the full width search was not: no below-W proofs).
			ctx, cancel = context.WithTimeout(context.Background(), diffBudget())
			ref, err := detk.Decompose(ctx, h, w, detk.Options{})
			cancel()
			if err != nil {
				t.Logf("%s: det-k verdict at k=%d timed out, skipping", inst.Name, w)
				return
			}
			refOK := ref.Decomposition != nil
			if !refOK && !ref.Complete {
				t.Fatalf("%s: uncapped det-k run at k=%d reported incomplete", inst.Name, w)
			}
			compared.Add(1)

			orc := cover.New(h, cover.Options{})
			ctx, cancel = context.WithTimeout(context.Background(), diffBudget())
			r, err := detk.DecomposeBalanced(ctx, h, w, detk.BalancedOptions{
				Seed: 42, Oracle: orc,
			})
			cancel()
			if err != nil {
				t.Fatalf("%s: balsep timed out at k=%d where det-k decided", inst.Name, w)
			}
			if !r.Complete {
				t.Fatalf("%s: uncancelled balsep run at k=%d reported incomplete", inst.Name, w)
			}
			if found := r.Decomposition != nil; found != refOK {
				t.Fatalf("%s: balsep found=%v at k=%d, det-k says %v", inst.Name, found, w, refOK)
			}
			if r.Decomposition != nil {
				if err := r.Decomposition.ValidateGHD(); err != nil {
					t.Fatalf("%s: %v", inst.Name, err)
				}
				if !detk.CheckSpecial(r.Decomposition) {
					t.Fatalf("%s: descendant condition violated", inst.Name)
				}
				if got := r.Decomposition.GHWidth(); got > w {
					t.Fatalf("%s: width %d > certified %d", inst.Name, got, w)
				}
			}

			if w > 1 {
				// Below the certified width a witness would be unsound no
				// matter how the run ended, so the no-witness half is asserted
				// even on truncation; completeness only when uncancelled.
				ctx, cancel := context.WithTimeout(context.Background(), diffBudget())
				r, err := detk.DecomposeBalanced(ctx, h, w-1, detk.BalancedOptions{
					Seed: 42, Oracle: orc,
				})
				cancel()
				if r.Decomposition != nil {
					t.Fatalf("%s: balsep fabricated a width-%d witness below the certified width %d", inst.Name, w-1, w)
				}
				if err == nil && !r.Complete {
					t.Fatalf("%s: uncancelled failure at k=%d did not report completeness", inst.Name, w-1)
				}
			}
		})
	}
}

// TestBalSepJobs1Reproducible runs the engine twice per instance with an
// identical seed and demands bit-for-bit identical trees, the
// reproducibility half of the determinism contract (the engine's own
// package pins the trees themselves in testdata/balsep.golden).
func TestBalSepJobs1Reproducible(t *testing.T) {
	for _, c := range []struct {
		name string
		h    *Hypergraph
		k    int
	}{
		{"adder_10", gen.Adder(10), 2},
		{"rand16", gen.RandomHypergraph(16, 14, 4, 2), 3},
		{"bridge_10_perm", gen.ShuffleEdges(gen.Bridge(10), 5), 2},
	} {
		var want []byte
		for run := 0; run < 2; run++ {
			r, err := detk.DecomposeBalanced(context.Background(), c.h, c.k, detk.BalancedOptions{Seed: 99})
			if err != nil || r.Decomposition == nil || !r.Complete {
				t.Fatalf("%s run %d: found=%v complete=%v err=%v", c.name, run, r.Decomposition != nil, r.Complete, err)
			}
			var buf bytes.Buffer
			if err := r.Decomposition.WriteTD(&buf); err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				want = buf.Bytes()
			} else if !bytes.Equal(want, buf.Bytes()) {
				t.Fatalf("%s: two runs with one seed produced different trees", c.name)
			}
		}
	}
}

// TestBalSepSharedOracleRace piles 8 concurrent engine runs onto one
// shared cover oracle. Run under -race this is the battery's data-race
// probe for the oracle (each run owns its memos); the width assertions keep
// it from passing vacuously.
func TestBalSepSharedOracleRace(t *testing.T) {
	h := gen.Adder(12)
	orc := cover.New(h, cover.Options{})
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			r, err := detk.DecomposeBalanced(context.Background(), h, 2, detk.BalancedOptions{
				Seed: seed, Oracle: orc,
			})
			switch {
			case err != nil || r.Decomposition == nil || !r.Complete:
				errs <- errors.New("concurrent run failed at the known width")
			case r.Decomposition.GHWidth() > 2:
				errs <- errors.New("concurrent run exceeded the known width")
			default:
				errs <- r.Decomposition.ValidateGHD()
			}
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if c := orc.Counters(); c.Hits == 0 {
		t.Fatal("8 concurrent runs never hit the shared oracle cache")
	}
}

// TestBalSepCancellationMidRecursion cancels a run that is provably deep
// inside the recursion (the stats node counter is past the root) and
// asserts the anytime contract: ctx.Err() comes back, no partial result
// leaks out, and no goroutine outlives the run.
func TestBalSepCancellationMidRecursion(t *testing.T) {
	// Plain adder_99 at k=2 runs for minutes; the watcher cancels within
	// milliseconds of the search passing 200 expanded nodes.
	h := gen.Adder(99)
	st := new(Stats)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	go func() {
		for st.Snapshot().Nodes < 200 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	r, err := detk.DecomposeBalanced(ctx, h, 2, detk.BalancedOptions{
		Stats: st,
	})
	if r.Decomposition != nil {
		t.Skip("instance solved before the watcher fired; cancellation not exercised")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.Complete {
		t.Fatal("cancelled run claimed a complete search")
	}
	// The engine starts no goroutines; the retry loop only absorbs the
	// watcher and unrelated runtime goroutines winding down.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if i > 200 {
			t.Fatalf("goroutines leaked after cancellation: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
