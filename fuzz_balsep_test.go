// Fuzz target for the balanced-separator engine: random small hypergraphs
// and width bounds, checked for the two properties that matter — any
// witness must be a valid hypertree decomposition (GHD conditions plus
// the descendant condition) within the bound, and a complete verdict must
// agree with the det-k reference in both directions. Run with
//
//	go test -fuzz=FuzzBalSep -fuzztime 30s
//
// The seed corpus lives under testdata/fuzz/FuzzBalSep/.
package htd

import (
	"context"
	"testing"

	"hypertree/internal/detk"
	"hypertree/internal/hypergraph"
)

// fuzzBalSepHypergraph decodes bytes into a small hypergraph: the first
// byte fixes the vertex count (2..9), then each pair of bytes becomes one
// edge of arity 2..3 over those vertices. Small on purpose — the det-k
// reference verdict must stay cheap on every generated instance.
func fuzzBalSepHypergraph(data []byte) *hypergraph.Hypergraph {
	if len(data) < 3 {
		return nil
	}
	n := 2 + int(data[0]%8)
	var edges [][]int
	for i := 1; i+1 < len(data) && len(edges) < 16; i += 2 {
		a, b := int(data[i])%n, int(data[i+1])%n
		if a == b {
			b = (b + 1) % n
		}
		edge := []int{a, b}
		// A third vertex rides along when the pair's bytes agree mod 3.
		if (data[i]+data[i+1])%3 == 0 {
			if c := int(data[i]^data[i+1]) % n; c != a && c != b {
				edge = append(edge, c)
			}
		}
		edges = append(edges, edge)
	}
	if len(edges) == 0 {
		return nil
	}
	return hypergraph.FromEdges(n, edges)
}

func FuzzBalSep(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0}, uint8(1), uint8(0))
	f.Add([]byte{6, 0, 1, 2, 3, 4, 5, 0, 3, 1, 4}, uint8(2), uint8(1))
	f.Add([]byte{8, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3}, uint8(2), uint8(2))
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0}, uint8(1), uint8(3))
	f.Add([]byte{9, 1, 7, 3, 5, 2, 8, 0, 6, 4, 4, 7, 2, 5, 1}, uint8(3), uint8(1))
	// The third argument is unused; it stays in the signature so the
	// committed corpus keeps decoding.
	f.Fuzz(func(t *testing.T, data []byte, kRaw, _ uint8) {
		if len(data) > 64 {
			t.Skip("oversized input")
		}
		h := fuzzBalSepHypergraph(data)
		if h == nil {
			t.Skip("undecodable")
		}
		k := 1 + int(kRaw%3)

		r, err := detk.DecomposeBalanced(context.Background(), h, k, detk.BalancedOptions{
			Seed: int64(len(data)),
		})
		if err != nil {
			t.Fatal(err)
		}
		found := r.Decomposition != nil
		if found {
			if err := r.Decomposition.ValidateGHD(); err != nil {
				t.Fatalf("invalid witness: %v", err)
			}
			if !detk.CheckSpecial(r.Decomposition) {
				t.Fatal("witness violates the descendant condition")
			}
			if w := r.Decomposition.GHWidth(); w > k {
				t.Fatalf("witness width %d exceeds k=%d", w, k)
			}
		}

		// Feasibility agreement with the det-k reference: the instances are
		// tiny, so both engines decide them completely and must concur.
		ref, err := detk.Decompose(context.Background(), h, k, detk.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Complete || !ref.Complete {
			t.Fatalf("uncapped run on a tiny instance reported incomplete (k=%d): balsep %v, det-k %v", k, r.Complete, ref.Complete)
		}
		if refOK := ref.Decomposition != nil; found != refOK {
			t.Fatalf("balsep found=%v but det-k says %v at k=%d", found, refOK, k)
		}
	})
}
