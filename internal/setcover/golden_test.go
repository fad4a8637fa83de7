package setcover

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
)

var updateCoverGolden = flag.Bool("update", false, "rewrite testdata/cover.golden from the current solver")

const coverGolden = "testdata/cover.golden"

// exactRef is the clone-based exact solver that the scratch-reusing Exact
// replaced, kept as a reference: it clones the target, every candidate
// mask and the uncovered set at each branch, and sorts each branch's
// options with sort.Slice on gains it recounts per comparison.
func exactRef(h *hypergraph.Hypergraph, target *bitset.Set) []int {
	coverable := bitset.New(h.NumVertices())
	for e := 0; e < h.NumEdges(); e++ {
		coverable.UnionWith(h.EdgeSet(e))
	}
	target = target.Clone()
	target.IntersectWith(coverable)
	if target.Empty() {
		return nil
	}
	type cand struct {
		edge int
		mask *bitset.Set
	}
	// Candidates: every edge meeting the target, in the order the target's
	// vertices first reach it, restricted to the target.
	seen := make([]bool, h.NumEdges())
	var all []cand
	target.ForEach(func(v int) bool {
		for _, e := range h.IncidentEdges(v) {
			if seen[e] {
				continue
			}
			seen[e] = true
			m := h.EdgeSet(e).Clone()
			m.IntersectWith(target)
			if !m.Empty() {
				all = append(all, cand{edge: e, mask: m})
			}
		}
		return true
	})
	// Dominance: drop masks inside another, keeping the earlier of equals.
	var cands []cand
	for i, c := range all {
		dominated := false
		for j, d := range all {
			if i != j && c.mask.SubsetOf(d.mask) && (!d.mask.SubsetOf(c.mask) || j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			cands = append(cands, c)
		}
	}
	// Greedy seed: the first candidate of largest gain, until covered.
	var best []int
	unc := target.Clone()
	for !unc.Empty() {
		bi, bg := -1, 0
		for i, c := range cands {
			if g := c.mask.IntersectionCount(unc); g > bg {
				bi, bg = i, g
			}
		}
		best = append(best, cands[bi].edge)
		unc.DifferenceWith(cands[bi].mask)
	}
	bestLen := len(best)
	uncovered := target.Clone()
	var cur []int
	maxMask := 0
	for _, c := range cands {
		maxMask = max(maxMask, c.mask.Len())
	}
	var dfs func()
	dfs = func() {
		if uncovered.Empty() {
			if len(cur) < bestLen {
				bestLen = len(cur)
				best = append(best[:0], cur...)
			}
			return
		}
		if len(cur)+(uncovered.Len()+maxMask-1)/maxMask >= bestLen {
			return
		}
		branchV, branchCount := -1, int(^uint(0)>>1)
		uncovered.ForEach(func(v int) bool {
			cnt := 0
			for _, c := range cands {
				if c.mask.Contains(v) {
					cnt++
				}
			}
			if cnt < branchCount {
				branchV, branchCount = v, cnt
			}
			return true
		})
		var opts []cand
		for _, c := range cands {
			if c.mask.Contains(branchV) {
				opts = append(opts, c)
			}
		}
		sort.Slice(opts, func(i, j int) bool {
			return opts[i].mask.IntersectionCount(uncovered) > opts[j].mask.IntersectionCount(uncovered)
		})
		for _, c := range opts {
			removed := uncovered.Clone()
			removed.IntersectWith(c.mask)
			uncovered.DifferenceWith(c.mask)
			cur = append(cur, c.edge)
			dfs()
			cur = cur[:len(cur)-1]
			uncovered.UnionWith(removed)
		}
	}
	dfs()
	return best
}

// coverInstance is one hypergraph with the targets a solver answers on it
// in turn.
type coverInstance struct {
	name    string
	h       *hypergraph.Hypergraph
	targets []*bitset.Set
}

// randomCoverInstance draws a hypergraph of up to maxN vertices (some in
// no edge) with up to density·n/2 edges of mixed arity, and targets of up
// to 24 vertices, about the size of the bags a search costs.
func randomCoverInstance(seed int64, maxN, density int) coverInstance {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(maxN-2)
	m := 2 + rng.Intn(density*n/2)
	arity := 2 + rng.Intn(6)
	edges := make([][]int, m)
	for e := range edges {
		for k := 1 + rng.Intn(arity); k > 0; k-- {
			edges[e] = append(edges[e], rng.Intn(n))
		}
	}
	in := coverInstance{name: fmt.Sprintf("rand%d", seed), h: hypergraph.FromEdges(n, edges)}
	for k := 0; k < 4; k++ {
		t := bitset.New(n)
		for size := 1 + rng.Intn(min(n, 24)); size > 0; size-- {
			t.Add(rng.Intn(n))
		}
		in.targets = append(in.targets, t)
	}
	return in
}

// bagInstance pairs h with the bags an elimination search costs first:
// each closed primal neighbourhood {v} ∪ N(v), and the union of two
// consecutive ones.
func bagInstance(name string, h *hypergraph.Hypergraph) coverInstance {
	in := coverInstance{name: name, h: h}
	g := h.PrimalGraph()
	var prev *bitset.Set
	for v := 0; v < h.NumVertices(); v++ {
		bag := g.Neighbors(v).Clone()
		bag.Add(v)
		in.targets = append(in.targets, bag)
		if prev != nil {
			u := prev.Clone()
			u.UnionWith(bag)
			in.targets = append(in.targets, u)
		}
		prev = bag
	}
	return in
}

// coverInstances are the golden's inputs: seeded random hypergraphs of up
// to 40 and up to 150 vertices (several words per set), dense ones whose
// branches have many options, and the primal bags of catalog hypergraphs.
func coverInstances() []coverInstance {
	var ins []coverInstance
	for seed := int64(0); seed < 60; seed++ {
		ins = append(ins, randomCoverInstance(seed, 40, 3))
	}
	for seed := int64(100); seed < 115; seed++ {
		ins = append(ins, randomCoverInstance(seed, 150, 3))
	}
	for seed := int64(200); seed < 215; seed++ {
		ins = append(ins, randomCoverInstance(seed, 30, 12))
	}
	return append(ins,
		bagInstance("rand16*", gen.RandomHypergraph(16, 14, 4, 2)),
		bagInstance("queenhg_4", hypergraph.FromGraph(gen.Queen(4))),
		bagInstance("adder_6", gen.Adder(6)),
		bagInstance("rh30_40", gen.RandomHypergraph(30, 40, 5, 9)))
}

// TestCoverGolden pins, edge for edge, the covers Exact and Greedy return
// (Greedy without and with an rng) on one solver per hypergraph reused
// across its targets. Every witness's λ labels come from these covers.
// Regenerate with `go test ./internal/setcover -run TestCoverGolden -update`.
func TestCoverGolden(t *testing.T) {
	var got []string
	for i, in := range coverInstances() {
		exact, greedy := New(in.h, nil), New(in.h, rand.New(rand.NewSource(int64(i))))
		for j, target := range in.targets {
			got = append(got, fmt.Sprintf("%s/%d target=%v exact=%v greedy=%v greedy_rng=%v",
				in.name, j, target, exact.Exact(target), exact.Greedy(target), greedy.Greedy(target)))
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateCoverGolden {
		if err := os.MkdirAll(filepath.Dir(coverGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(coverGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(coverGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("cover drift:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}

// Exact returns the reference's cover, edge for edge, on one solver per
// hypergraph reused across its targets.
func TestExactMatchesCloneReference(t *testing.T) {
	for seed := int64(1000); seed < 1300; seed++ {
		in := randomCoverInstance(seed, []int{12, 40, 150, 30}[seed%4], []int{3, 3, 3, 12}[seed%4])
		s := New(in.h, nil)
		for j, target := range in.targets {
			got, want := s.Exact(target), exactRef(in.h, target)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s/%d: Exact(%v) = %v, reference %v", in.name, j, target, got, want)
			}
		}
	}
}
