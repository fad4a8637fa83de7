// Fuzz target for the width contract every method owes its caller, under
// tw and ghw, and the hw contract of HypertreeWidthCtx and the balanced
// engine. Run with
//
//	go test -fuzz=FuzzWidthContract -fuzztime 30s
//
// The seed corpus lives under testdata/fuzz/FuzzWidthContract/.
package htd

import (
	"context"
	"fmt"
	"testing"

	"hypertree/internal/cover"
	"hypertree/internal/detk"
)

// fuzzWidthInputs decodes bytes into a small hypergraph and the graph the
// treewidth methods search, its primal graph. The first byte fixes the
// vertex count (1..9); bit 0 of the second renames vertex 0 to "v1", the
// display name of the unnamed vertex 1, and then the hypergraph is the
// renamed graph's edges; the rest become edges of arity 1..3, one
// arity byte and that many vertex bytes each. No edge bytes make an
// edgeless instance.
func fuzzWidthInputs(data []byte) (*Graph, *Hypergraph) {
	n := 1 + int(data[0]%9)
	var edges [][]int
	for i := 2; i < len(data) && len(edges) < 12; {
		k := 1 + int(data[i]%3)
		i++
		var e []int
		for ; k > 0 && i < len(data); k, i = k-1, i+1 {
			e = append(e, int(data[i])%n)
		}
		edges = append(edges, e)
	}
	h := FromEdges(n, edges)
	g := h.PrimalGraph()
	if data[1]&1 == 1 && n > 1 {
		g.SetName(0, "v1")
		h = FromGraph(g)
	}
	return g, h
}

// checkWidthContract checks one method's result against the contract and
// returns its width when the method proved it exact (-1 otherwise).
func checkWidthContract(t *testing.T, label string, n int, res Result, err error) int {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if verr := Ordering(res.Ordering).Validate(n); verr != nil {
		t.Fatalf("%s: invalid ordering %v: %v", label, res.Ordering, verr)
	}
	if res.LowerBound < 0 || res.LowerBound > res.Width {
		t.Fatalf("%s: lower bound %d outside [0, width %d]", label, res.LowerBound, res.Width)
	}
	if !res.Exact {
		return -1
	}
	if res.LowerBound != res.Width {
		t.Fatalf("%s: exact with lower bound %d != width %d", label, res.LowerBound, res.Width)
	}
	return res.Width
}

func FuzzWidthContract(f *testing.F) {
	f.Add([]byte{5, 0, 1, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 0})
	f.Add([]byte{6, 0, 2, 0, 1, 2, 2, 2, 3, 4, 1, 4, 5, 2, 5, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 64 {
			t.Skip("input outside the decoded range")
		}
		g, h := fuzzWidthInputs(data)
		n := g.NumVertices()
		twMethods := []Method{MethodMinFill, MethodGA, MethodSAIGA, MethodBB, MethodAStar, MethodPortfolio}
		ghwMethods := append(append([]Method(nil), twMethods...), MethodFHW, MethodBalSep)
		exact := map[string]int{}
		agree := func(measure string, m Method, w int) {
			if w < 0 {
				return
			}
			if prev, ok := exact[measure]; ok && prev != w {
				t.Fatalf("%s %v: exact width %d, another exact method found %d", measure, m, w, prev)
			}
			exact[measure] = w
		}
		for _, m := range twMethods {
			res, err := Treewidth(g, goldenOpts(m, 1))
			agree("tw", m, checkWidthContract(t, fmt.Sprintf("tw %v", m), n, res, err))
		}
		for _, m := range ghwMethods {
			res, err := GHW(h, goldenOpts(m, 1))
			agree("ghw", m, checkWidthContract(t, fmt.Sprintf("ghw %v", m), n, res, err))
		}
		tw, okT := exact["tw"]
		ghw, okG := exact["ghw"]
		if okT && okG && ghw > tw+1 {
			t.Fatalf("exact ghw %d above exact tw %d + 1 of the primal graph", ghw, tw)
		}
		checkHW(t, h, ghw, okG, tw, okT)
	})
}

// checkHW checks hypertree width against the exact widths found: hw ≥ 0
// with a witness that is a hypertree decomposition of width hw, and
// ghw ≤ hw ≤ tw + 1. The balanced engine must find a witness at
// k = max(hw, 1) and fail completely at hw − 1.
func checkHW(t *testing.T, h *Hypergraph, ghw int, okG bool, tw int, okT bool) {
	t.Helper()
	ctx := context.Background()
	hw, d, err := HypertreeWidthCtx(ctx, h, 0, nil, nil)
	if err != nil || hw < 0 || d == nil {
		t.Fatalf("hw: width %d, witness %v, err %v", hw, d != nil, err)
	}
	if verr := d.ValidateGHD(); verr != nil {
		t.Fatalf("hw: invalid witness: %v", verr)
	}
	if !detk.CheckSpecial(d) {
		t.Fatal("hw: witness violates the descendant condition")
	}
	if d.GHWidth() != hw {
		t.Fatalf("hw %d with a witness of width %d", hw, d.GHWidth())
	}
	if okG && ghw > hw {
		t.Fatalf("exact ghw %d above hw %d", ghw, hw)
	}
	if okT && hw > tw+1 {
		t.Fatalf("hw %d above exact tw %d + 1 of the primal graph", hw, tw)
	}
	opt := detk.BalancedOptions{Seed: 1, Oracle: cover.New(h, cover.Options{})}
	r, err := detk.DecomposeBalanced(ctx, h, max(hw, 1), opt)
	if err != nil || r.Decomposition == nil || !r.Complete {
		t.Fatalf("balanced engine at k=%d: witness %v, complete %v, err %v", max(hw, 1), r.Decomposition != nil, r.Complete, err)
	}
	if hw >= 2 {
		r, err := detk.DecomposeBalanced(ctx, h, hw-1, opt)
		if err != nil || r.Decomposition != nil || !r.Complete {
			t.Fatalf("balanced engine at hw−1=%d: witness %v, complete %v, err %v", hw-1, r.Decomposition != nil, r.Complete, err)
		}
	}
}
