package detk

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertree/internal/cover"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
)

// balanced runs the balanced engine at budget k under no deadline.
func balanced(t *testing.T, h *hypergraph.Hypergraph, k int, opt BalancedOptions) Result {
	t.Helper()
	r, err := DecomposeBalanced(context.Background(), h, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBalancedOnKnownFamilies(t *testing.T) {
	cases := []struct {
		name string
		h    *hypergraph.Hypergraph
		k    int
	}{
		{"adder_8", gen.Adder(8), 2},
		{"bridge_8", gen.Bridge(8), 2},
		{"clique_8", gen.CliqueHypergraph(8), 4},
		{"chain_10", gen.Chain(10, 4, 2), 1},
		{"cycle_9", hypergraph.FromGraph(gen.Cycle(9)), 2},
	}
	for _, c := range cases {
		r := balanced(t, c.h, c.k, BalancedOptions{})
		d := r.Decomposition
		if d == nil {
			t.Fatalf("%s: balanced decomposer failed at k=%d", c.name, c.k)
		}
		if !r.Complete {
			t.Fatalf("%s: uncapped run reported incomplete", c.name)
		}
		if err := d.ValidateGHD(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !CheckSpecial(d) {
			t.Fatalf("%s: descendant condition violated", c.name)
		}
		if got := d.GHWidth(); got > c.k {
			t.Fatalf("%s: width %d > k=%d", c.name, got, c.k)
		}
	}
}

func TestBalancedRejectsBelowWidth(t *testing.T) {
	// It must never fabricate a decomposition below the true width, and an
	// unbounded failure is a completeness proof.
	h := gen.CliqueHypergraph(8) // ghw = hw = 4
	r := balanced(t, h, 3, BalancedOptions{})
	if r.Decomposition != nil {
		t.Fatal("balanced decomposer claimed width 3 on K8")
	}
	if !r.Complete {
		t.Fatal("unbounded failure must be a completeness proof")
	}
}

// The legacy API returned (nil, false) identically for "proved infeasible"
// and "MaxGuesses cap tripped"; the complete flag now separates them, and a
// capped run must not plant failure certificates that a later widening
// could trip over.
func TestBalancedCapReportsIncomplete(t *testing.T) {
	h := hypergraph.FromGraph(gen.Grid2D(5, 5)) // feasible, but not within 2 guesses
	r := balanced(t, h, 3, BalancedOptions{MaxGuesses: 2})
	if r.Decomposition != nil {
		if err := r.Decomposition.ValidateGHD(); err != nil {
			t.Fatal(err)
		}
		t.Skip("instance solved within the cap; cannot exercise truncation")
	}
	if r.Complete {
		t.Fatal("cap-truncated failure claimed to be a proof of infeasibility")
	}

	// Genuine infeasibility at the same budget keeps reporting complete.
	r = balanced(t, gen.CliqueHypergraph(6), 2, BalancedOptions{})
	if r.Decomposition != nil || !r.Complete {
		t.Fatalf("K6 at k=2: found=%v complete=%v, want infeasible+complete", r.Decomposition != nil, r.Complete)
	}
}

// Approx trades width slack for an earlier success: at k below the true
// width with slack covering the gap, the engine must succeed and report
// the slack it spent; a complete failure must cover the whole slack range.
func TestBalancedApproxSlack(t *testing.T) {
	h := gen.CliqueHypergraph(8) // hw = 4
	r := balanced(t, h, 2, BalancedOptions{Approx: 2})
	if r.Decomposition == nil {
		t.Fatal("approx slack 2 from k=2 must reach the feasible width 4")
	}
	if err := r.Decomposition.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
	if !CheckSpecial(r.Decomposition) {
		t.Fatal("approx result violates descendant condition")
	}
	if w := r.Decomposition.GHWidth(); w > 4 {
		t.Fatalf("width %d exceeds k+Approx", w)
	}
	if r.SlackUsed != r.Decomposition.GHWidth()-2 {
		t.Fatalf("SlackUsed=%d, width=%d, k=2", r.SlackUsed, r.Decomposition.GHWidth())
	}

	r = balanced(t, h, 2, BalancedOptions{Approx: 1})
	if r.Decomposition != nil || !r.Complete {
		t.Fatalf("K8 at k=2+1 slack: found=%v complete=%v, want a complete failure", r.Decomposition != nil, r.Complete)
	}
}

// The oracle feeds enumeration two ways — connector-size pruning and
// whole-scope leaf covers — neither of which may change feasibility or
// validity.
func TestBalancedWithOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		h := gen.RandomHypergraph(10, 8, 3, seed)
		hw, _ := width(t, h, 0, Options{})
		orc := cover.New(h, cover.Options{})
		r := balanced(t, h, hw, BalancedOptions{Oracle: orc})
		d := r.Decomposition
		if d == nil || !r.Complete {
			t.Fatalf("seed %d: oracle run failed at hw=%d", seed, hw)
		}
		if err := d.ValidateGHD(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !CheckSpecial(d) {
			t.Fatalf("seed %d: descendant condition violated", seed)
		}
		if r := balanced(t, h, hw-1, BalancedOptions{Oracle: orc}); r.Decomposition != nil || !r.Complete {
			t.Fatalf("seed %d: below-width run found=%v complete=%v", seed, r.Decomposition != nil, r.Complete)
		}
		if c := orc.Counters(); c.Hits+c.Misses == 0 {
			t.Fatalf("seed %d: oracle never consulted", seed)
		}
	}
}

// Balanced trees should be much shallower than det-k's path-like trees on
// long chains.
func TestBalancedDepthOnChains(t *testing.T) {
	h := gen.Chain(32, 4, 2)
	bal := balanced(t, h, 2, BalancedOptions{}).Decomposition
	if bal == nil {
		t.Fatal("balanced failed on chain")
	}
	if got := maxDepth(bal.Root, 0); got > 14 {
		t.Fatalf("balanced tree depth %d on a 32-chain — not balanced", got)
	}
}

// The promoted engine is complete: it agrees with det-k-decomp on
// feasibility at the exact width, in both directions.
func TestBalancedRandomAgainstExact(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		h := gen.RandomHypergraph(9, 7, 3, seed)
		hw, _ := width(t, h, 0, Options{})
		r := balanced(t, h, hw, BalancedOptions{Seed: seed})
		d := r.Decomposition
		if d == nil || !r.Complete {
			t.Fatalf("seed %d: balanced failed at exact width %d", seed, hw)
		}
		if err := d.ValidateGHD(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !CheckSpecial(d) {
			t.Fatalf("seed %d: descendant condition violated", seed)
		}
		if d.GHWidth() > hw {
			t.Fatalf("seed %d: width %d > hw %d", seed, d.GHWidth(), hw)
		}
		if hw > 1 {
			if r := balanced(t, h, hw-1, BalancedOptions{Seed: seed}); r.Decomposition != nil || !r.Complete {
				t.Fatalf("seed %d: hw-1 run found=%v complete=%v", seed, r.Decomposition != nil, r.Complete)
			}
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/balsep.golden from the current engine")

const balsepGolden = "testdata/balsep.golden"

// TestBalancedGolden pins the engine's witnesses and work, not just its
// verdicts: per input, budget k, Approx and oracle on/off it records
// found, complete, Guesses, the witness width and the SHA-256 of the
// witness's WriteTD, and compares them with testdata/balsep.golden. The
// inputs are the fast detk instances at hw and hw−1, plus K8 at k=2 with
// approx slack. Regenerate with
// `go test ./internal/detk -run TestBalancedGolden -update`.
func TestBalancedGolden(t *testing.T) {
	type input struct {
		name string
		h    *hypergraph.Hypergraph
	}
	clique := input{"clique_8", gen.CliqueHypergraph(8)}
	inputs := []input{
		{"adder_12", gen.Adder(12)},
		{"chain_16", gen.Chain(16, 4, 2)},
		{"rand16", gen.RandomHypergraph(16, 14, 4, 2)},
		{"adder_8", gen.Adder(8)},
		{"bridge_8", gen.Bridge(8)},
		clique,
		{"chain_10", gen.Chain(10, 4, 2)},
		{"cycle_9", hypergraph.FromGraph(gen.Cycle(9))},
	}
	for seed := int64(0); seed < 8; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("rand9_%d", seed), gen.RandomHypergraph(9, 7, 3, seed)})
	}
	type run struct {
		in        input
		k, approx int
	}
	var runs []run
	for _, in := range inputs {
		hw, _ := width(t, in.h, 0, Options{})
		for _, k := range []int{hw, hw - 1} {
			if k >= 1 {
				runs = append(runs, run{in, k, 0})
			}
		}
	}
	runs = append(runs, run{clique, 2, 1}, run{clique, 2, 2})

	var got []string
	for _, r := range runs {
		for _, withOracle := range []bool{false, true} {
			opt := BalancedOptions{Approx: r.approx, Seed: 7}
			mode := "off"
			if withOracle {
				opt.Oracle = cover.New(r.in.h, cover.Options{})
				mode = "on"
			}
			res := balanced(t, r.in.h, r.k, opt)
			found := res.Decomposition != nil
			width, digest := 0, "-"
			if found {
				var buf bytes.Buffer
				if err := res.Decomposition.WriteTD(&buf); err != nil {
					t.Fatal(err)
				}
				width = res.Decomposition.GHWidth()
				digest = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			}
			got = append(got, fmt.Sprintf("%s k=%d approx=%d oracle=%s found=%v complete=%v guesses=%d width=%d td=%s",
				r.in.name, r.k, r.approx, mode, found, res.Complete, res.Guesses, width, digest))
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(balsepGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(balsepGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(balsepGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("balsep drift:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}

func maxDepth(n *decomp.Node, d int) int {
	best := d
	for _, c := range n.Children {
		if got := maxDepth(c, d+1); got > best {
			best = got
		}
	}
	return best
}
