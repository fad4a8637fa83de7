// Facade-level properties of the cost-attribution layer: for a
// single-threaded run the exclusive phase clocks must sum to no more than
// the wall clock around the call, and attaching the clocks must leave the
// computed result bit-identical for a fixed seed (telemetry never feeds
// back into search).
package htd

import (
	"context"
	"reflect"
	"testing"
	"time"

	"hypertree/internal/gen"
)

// TestPhasesSumWithinWall runs every single method (hence one worker) on
// an 8×8 grid hypergraph, search plus λ-materialization, with the clocks
// attached and asserts the exclusive-attribution invariant: Σ phases ≤
// wall. It also asserts that the named phases account for the run: Σ
// phases ≥ 0.75 · wall for the best of three runs, so a method whose work
// runs in no phase window fails. A portfolio run folds per-worker clocks
// and so reports CPU time, which is why this property is stated — and
// tested — for single methods only.
func TestPhasesSumWithinWall(t *testing.T) {
	h := gen.Grid2DHypergraph(8, 8)
	for _, m := range []Method{MethodMinFill, MethodGA, MethodSAIGA, MethodBB, MethodAStar, MethodFHW, MethodBalSep} {
		opt := Options{Method: m, Seed: 1, MaxNodes: 500,
			GA:    &GAConfig{PopulationSize: 20, Generations: 10, TournamentSize: 2, CrossoverRate: 1, MutationRate: 0.3},
			SAIGA: &SAIGAConfig{Islands: 2, IslandPop: 10, Epochs: 3, EpochLength: 3, TournamentSize: 2, MigrationSize: 1},
		}
		if m == MethodFHW {
			opt.MaxNodes = 20
		}
		best := 0.0
		for run := 0; run < 3; run++ {
			st := new(Stats)
			opt.Stats = st
			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_, err := DecomposeCtx(ctx, h, opt)
			cancel()
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			wall := time.Since(start)
			snap := st.Snapshot()
			total := snap.Phases.Total()
			if total > int64(wall) {
				t.Fatalf("%v: phases sum %v exceeds wall %v: %+v", m, time.Duration(total), wall, snap.Phases)
			}
			best = max(best, float64(total)/float64(wall))
			if m != MethodBB {
				continue
			}
			// The run must have touched the phases this pipeline is built from.
			if snap.Phases.BranchNs == 0 {
				t.Errorf("no branch-phase time recorded: %+v", snap.Phases)
			}
			if snap.Phases.CoverProbeNs == 0 && snap.Phases.CoverSolveNs == 0 {
				t.Errorf("no cover-oracle time recorded: %+v", snap.Phases)
			}
			if snap.Phases.LambdaNs == 0 {
				t.Errorf("no λ-materialization time recorded: %+v", snap.Phases)
			}
		}
		t.Logf("%v: best phase coverage %.3f of wall", m, best)
		if best < 0.9 {
			t.Errorf("%v: phases attribute at best %.3f of wall, want ≥ 0.9", m, best)
		}
	}
}

// TestPhaseClocksResultInvariant pins the no-feedback contract: the same
// fixed-seed search with and without the attribution layer attached must
// return identical widths, bounds, exactness, node counts and witness
// orderings — including under -fracbound, where the cascade both records
// telemetry and prunes.
func TestPhaseClocksResultInvariant(t *testing.T) {
	h := gen.Grid2DHypergraph(5, 5)
	for _, fracBound := range []bool{false, true} {
		base := Options{Method: MethodBB, Seed: 1, MaxNodes: 3000, FracBound: fracBound}
		bare, err := GHW(h, base)
		if err != nil {
			t.Fatal(err)
		}
		attached := base
		attached.Stats = new(Stats)
		attached.Trace = NewTrace(0)
		obs, err := GHW(h, attached)
		if err != nil {
			t.Fatal(err)
		}
		if bare.Width != obs.Width || bare.LowerBound != obs.LowerBound || bare.Exact != obs.Exact {
			t.Fatalf("fracbound=%v: result drifted with telemetry attached: %d/%d/%v vs %d/%d/%v",
				fracBound, bare.Width, bare.LowerBound, bare.Exact,
				obs.Width, obs.LowerBound, obs.Exact)
		}
		if bare.Nodes != obs.Nodes {
			t.Fatalf("fracbound=%v: node count drifted %d -> %d with telemetry attached",
				fracBound, bare.Nodes, obs.Nodes)
		}
		if !reflect.DeepEqual(bare.Ordering, obs.Ordering) {
			t.Fatalf("fracbound=%v: witness ordering drifted with telemetry attached", fracBound)
		}
	}
}
