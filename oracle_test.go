// Oracle-based property tests: every decomposition method — including the
// portfolio — is run over a grid of random and structured hypergraphs and
// checked against method-independent invariants:
//
//   - the returned ordering is a valid permutation of the vertices,
//   - 0 ≤ LowerBound ≤ Width, and Exact ⇒ LowerBound == Width,
//   - the decomposition materialised from the ordering validates as a tree
//     decomposition and as a GHD, and its ghw never exceeds Result.Width
//     (equality when the result is exact),
//   - no method reports a width below any exact method's proven optimum,
//     and no lower bound exceeds it.
//
// The decomposition built by DecomposeOrdering acts as the oracle: it is
// checked by first principles (ValidateTD/ValidateGHD walk the definition),
// so any search-side width accounting bug surfaces as a mismatch here.
package htd

import (
	"fmt"
	"testing"

	"hypertree/internal/gen"
)

// oracleOpts returns per-method options scaled for test budgets: exact
// searches keep a generous node cap, the GAs run tiny populations.
func oracleOpts(m Method, seed int64) Options {
	return Options{
		Method:   m,
		Seed:     seed,
		MaxNodes: 500000,
		GA: &GAConfig{
			PopulationSize: 16,
			CrossoverRate:  1.0,
			MutationRate:   0.3,
			TournamentSize: 3,
			Generations:    10,
		},
		SAIGA: &SAIGAConfig{
			Islands:        2,
			IslandPop:      10,
			Epochs:         3,
			EpochLength:    3,
			TournamentSize: 3,
			MigrationSize:  2,
		},
	}
}

var oracleMethods = []Method{
	MethodMinFill, MethodGA, MethodSAIGA, MethodBB, MethodAStar, MethodPortfolio,
}

// checkGHWResult asserts the method-independent invariants of one GHW run
// and returns the result for cross-method comparison.
func checkGHWResult(t *testing.T, h *Hypergraph, m Method, seed int64) Result {
	t.Helper()
	res, err := GHW(h, oracleOpts(m, seed))
	if err != nil {
		t.Fatalf("%v: GHW failed: %v", m, err)
	}
	if err := Ordering(res.Ordering).Validate(h.NumVertices()); err != nil {
		t.Fatalf("%v: invalid ordering: %v", m, err)
	}
	if res.LowerBound < 0 || res.LowerBound > res.Width {
		t.Fatalf("%v: lower bound %d outside [0, width=%d]", m, res.LowerBound, res.Width)
	}
	if res.Exact && res.LowerBound != res.Width {
		t.Fatalf("%v: exact result but lb %d != width %d", m, res.LowerBound, res.Width)
	}

	d, err := DecomposeOrdering(h, res.Ordering)
	if err != nil {
		t.Fatalf("%v: DecomposeOrdering failed: %v", m, err)
	}
	if err := d.ValidateTD(); err != nil {
		t.Fatalf("%v: decomposition fails TD validation: %v", m, err)
	}
	if err := d.ValidateGHD(); err != nil {
		t.Fatalf("%v: decomposition fails GHD validation: %v", m, err)
	}
	if w := d.GHWidth(); w > res.Width {
		t.Fatalf("%v: decomposition ghw %d exceeds reported width %d", m, w, res.Width)
	} else if res.Exact && w != res.Width {
		t.Fatalf("%v: exact width %d but ordering materialises to ghw %d", m, res.Width, w)
	}
	return res
}

// checkCrossMethod asserts the mutual-consistency invariants between the
// per-method results on one instance.
func checkCrossMethod(t *testing.T, results map[Method]Result) {
	t.Helper()
	optimum := -1
	var witness Method
	for m, r := range results {
		if r.Exact && (optimum < 0 || r.Width < optimum) {
			optimum, witness = r.Width, m
		}
	}
	if optimum < 0 {
		return // no exact finisher on this instance — nothing to compare against
	}
	for m, r := range results {
		if r.Exact && r.Width != optimum {
			t.Errorf("exact methods disagree: %v proved %d, %v proved %d",
				witness, optimum, m, r.Width)
		}
		if r.Width < optimum {
			t.Errorf("%v reports width %d below proven optimum %d", m, r.Width, optimum)
		}
		if r.LowerBound > optimum {
			t.Errorf("%v reports lower bound %d above proven optimum %d", m, r.LowerBound, optimum)
		}
	}
}

// runOracle races the GHW-only balanced-separator search alongside
// oracleMethods, which TestOracleTreewidth shares.
func runOracle(t *testing.T, name string, h *Hypergraph, seed int64) {
	t.Run(name, func(t *testing.T) {
		methods := append([]Method{MethodBalSep}, oracleMethods...)
		results := make(map[Method]Result, len(methods))
		for _, m := range methods {
			results[m] = checkGHWResult(t, h, m, seed)
		}
		checkCrossMethod(t, results)
	})
}

func TestOracleGHWRandom(t *testing.T) {
	for _, n := range []int{4, 8, 14} {
		for _, c := range []struct {
			m, arity int
			seed     int64
		}{
			{n, 3, 1},
			{2 * n, 4, 2},
		} {
			h := gen.RandomHypergraph(n, c.m, c.arity, c.seed)
			runOracle(t, fmt.Sprintf("n%d_m%d_a%d_s%d", n, c.m, c.arity, c.seed), h, c.seed)
		}
	}
}

// TestGHWGridRegression pins the bug this oracle suite first caught: with
// the treewidth-only simplicial reduction (and adjacent-case PR2) applied
// in GHW mode, BB and A* "proved" ghw 3 on the 3×3 grid hypergraph while a
// valid width-2 ordering exists (e.g. [0 8 1 2 7 5 3 4 6]).
func TestGHWGridRegression(t *testing.T) {
	h := gen.Grid2DHypergraph(3, 3)
	for _, m := range []Method{MethodBB, MethodAStar} {
		res, err := GHW(h, Options{Method: m, Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !res.Exact || res.Width != 2 {
			t.Errorf("%v: got width %d (exact=%v), want exact 2", m, res.Width, res.Exact)
		}
	}
}

func TestOracleGHWStructured(t *testing.T) {
	runOracle(t, "chain", gen.Chain(8, 3, 1), 1)
	runOracle(t, "grid3x3", gen.Grid2DHypergraph(3, 3), 2)
	runOracle(t, "clique5", gen.CliqueHypergraph(5), 3)
	runOracle(t, "circuit", gen.Circuit(4, 8, 3, 7), 4)
	// ghw 2 but hw 3: balsep's levels fail completely at k = 2, which
	// proves hw > 2 and nothing about ghw.
	runOracle(t, "ghw2_hw3", FromEdges(11, [][]int{
		{1, 8}, {8, 4, 6}, {7, 0, 2}, {0, 4}, {7, 8, 0, 9}, {3, 2, 9, 5},
		{10, 5, 8, 1}, {10, 6, 2}, {0, 2}, {5, 6}, {10, 5},
	}), 0)
}

// TestOracleTreewidth mirrors the GHW oracle on the primal graphs: valid
// ordering, sane bounds, exact methods agree, heuristics never beat them.
func TestOracleTreewidth(t *testing.T) {
	instances := []struct {
		name string
		h    *Hypergraph
	}{
		{"rand10", gen.RandomHypergraph(10, 14, 3, 5)},
		{"grid3x4", gen.Grid2DHypergraph(3, 4)},
		{"chain", gen.Chain(9, 3, 1)},
	}
	for _, inst := range instances {
		t.Run(inst.name, func(t *testing.T) {
			g := inst.h.PrimalGraph()
			results := make(map[Method]Result, len(oracleMethods))
			for _, m := range oracleMethods {
				res, err := Treewidth(g, oracleOpts(m, 11))
				if err != nil {
					t.Fatalf("%v: Treewidth failed: %v", m, err)
				}
				if err := Ordering(res.Ordering).Validate(g.NumVertices()); err != nil {
					t.Fatalf("%v: invalid ordering: %v", m, err)
				}
				if res.LowerBound < 0 || res.LowerBound > res.Width {
					t.Fatalf("%v: lower bound %d outside [0, width=%d]", m, res.LowerBound, res.Width)
				}
				if res.Width >= g.NumVertices() && g.NumVertices() > 0 {
					t.Fatalf("%v: treewidth %d out of range for %d vertices", m, res.Width, g.NumVertices())
				}
				results[m] = res
			}
			checkCrossMethod(t, results)
		})
	}
}
