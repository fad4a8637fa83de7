package detk

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/telemetry"
)

const detkGolden = "testdata/detk.golden"

// detkLevel runs det-k-decomp once at budget k and formats its verdict,
// the guess count of its "detk.decompose" span (- when the run emitted
// none), the witness width and the SHA-256 of the witness's WriteTD.
func detkLevel(t *testing.T, name string, h *hypergraph.Hypergraph, k int, maxGuesses int64) string {
	t.Helper()
	tr := telemetry.NewTrace(0)
	r, err := Decompose(context.Background(), h, k, Options{MaxGuesses: maxGuesses, Trace: tr})
	if err != nil {
		t.Fatalf("%s k=%d: %v", name, k, err)
	}
	guesses := "-"
	for _, e := range tr.Events() {
		if e.Kind != telemetry.KindEnd || e.Name != "detk.decompose" {
			continue
		}
		for _, a := range e.Args[:e.NArgs] {
			if a.Key == "guesses" {
				guesses = fmt.Sprint(a.Val)
			}
		}
	}
	d := r.Decomposition
	found := d != nil
	width, digest := 0, "-"
	if found {
		var buf bytes.Buffer
		if err := d.WriteTD(&buf); err != nil {
			t.Fatal(err)
		}
		width = d.GHWidth()
		digest = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	}
	return fmt.Sprintf("%s k=%d cap=%d found=%v guesses=%s width=%d td=%s",
		name, k, maxGuesses, found, guesses, width, digest)
}

// TestDetKGolden pins det-k-decomp's witnesses and work, not just its
// verdicts: per input it records the uncapped levels k = hw−1 and k = hw,
// and compares them with testdata/detk.golden. The inputs are the
// hypergraph catalog members whose two levels close within a test budget
// (under their catalog names), 48 seeded random hypergraphs, and a few
// levels run under a guess cap, where the verdict is no longer a proof.
// Regenerate with `go test ./internal/detk -run TestDetKGolden -update`.
func TestDetKGolden(t *testing.T) {
	type input struct {
		name string
		h    *hypergraph.Hypergraph
	}
	inputs := []input{
		{"adder_10", gen.Adder(10)},
		{"bridge_10", gen.Bridge(10)},
		{"chain_15", gen.Chain(15, 4, 2)},
		{"rand16*", gen.RandomHypergraph(16, 14, 4, 2)},
	}
	for seed := int64(0); seed < 48; seed++ {
		n, m, arity := 8+int(seed%7), 6+int(seed%9), 2+int(seed%3)
		inputs = append(inputs, input{fmt.Sprintf("rand%d_%d_%d_%d", n, m, arity, seed), gen.RandomHypergraph(n, m, arity, seed)})
	}
	var got []string
	for _, in := range inputs {
		hw, _ := width(t, in.h, 0, Options{})
		for _, k := range []int{hw - 1, hw} {
			got = append(got, detkLevel(t, in.name, in.h, k, 0))
		}
	}
	capped := []struct {
		in  input
		k   int
		cap int64
	}{
		{input{"clique_8", gen.CliqueHypergraph(8)}, 3, 200_000},
		{input{"clique_10", gen.CliqueHypergraph(10)}, 5, 1},
		{input{"clique_10", gen.CliqueHypergraph(10)}, 5, 1_000},
		{input{"adder_10", gen.Adder(10)}, 2, 50},
		{input{"adder_10", gen.Adder(10)}, 2, 1_000},
		{input{"rand6_4_200", gen.RandomHypergraph(6, 4, 2, 200)}, 1, 1},
		{input{"rand16*", gen.RandomHypergraph(16, 14, 4, 2)}, 2, 100},
		{input{"queenhg_4", hypergraph.FromGraph(gen.Queen(4))}, 3, 5_000},
		{input{"grid2d_6", gen.Grid2DHypergraph(6, 6)}, 3, 5_000},
		{input{"b06*", gen.Circuit(8, 42, 4, 106)}, 3, 5_000},
	}
	for _, c := range capped {
		got = append(got, detkLevel(t, c.in.name, c.in.h, c.k, c.cap))
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(detkGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(detkGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("det-k drift:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}
