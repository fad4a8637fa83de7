package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"hypertree"
	"hypertree/internal/exp"
)

func catalogHypergraph(name string) (*htd.Hypergraph, error) {
	for _, inst := range exp.Hypergraphs(false) {
		if inst.Name == name {
			return inst.Build(), nil
		}
	}
	return nil, fmt.Errorf("no catalog hypergraph %q", name)
}

func catalogGraph(name string) (*htd.Graph, error) {
	for _, inst := range exp.Graphs(false) {
		if inst.Name == name {
			return inst.Build(), nil
		}
	}
	return nil, fmt.Errorf("no catalog graph %q", name)
}

// relabel returns h with its vertices renumbered, its edges reordered and
// each edge's vertex list shuffled, all by rng: the same hypergraph up to
// isomorphism, so every width is unchanged.
func relabel(h *htd.Hypergraph, rng *rand.Rand) *htd.Hypergraph {
	vp := rng.Perm(h.NumVertices())
	ep := rng.Perm(h.NumEdges())
	edges := make([][]int, h.NumEdges())
	for e := range edges {
		src := h.Edge(e)
		dst := make([]int, len(src))
		for i, v := range src {
			dst[i] = vp[v]
		}
		rng.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
		edges[ep[e]] = dst
	}
	return htd.FromEdges(h.NumVertices(), edges)
}

// opRNG returns the generator of the input of a template's i-th op: a
// function of (seed, key, i) alone, so the traced loop replays the
// untraced loop's inputs exactly.
func opRNG(seed int64, key string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, key, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// relabelGraph returns g with its vertices renumbered by rng.
func relabelGraph(g *htd.Graph, rng *rand.Rand) *htd.Graph {
	p := rng.Perm(g.NumVertices())
	out := htd.NewGraph(g.NumVertices())
	for _, e := range g.Edges() {
		out.AddEdge(p[e[0]], p[e[1]])
	}
	return out
}

// checkGHD checks an exact ghw result against the reference width and
// validates its witness.
func checkGHD(d *htd.Decomposition, res htd.Result, ref int) error {
	if err := checkExact(res, ref); err != nil {
		return err
	}
	if err := d.ValidateGHD(); err != nil {
		return err
	}
	if w := d.GHWidth(); w != ref {
		return fmt.Errorf("witness ghw %d, want %d", w, ref)
	}
	return nil
}

// checkTW checks an exact treewidth result against the reference width and
// validates the decomposition its ordering induces.
func checkTW(g *htd.Graph, res htd.Result, ref int) error {
	if err := checkExact(res, ref); err != nil {
		return err
	}
	d, err := htd.DecomposeOrdering(htd.FromGraph(g), res.Ordering)
	if err != nil {
		return err
	}
	if err := d.ValidateTD(); err != nil {
		return err
	}
	if w := d.Width(); w != ref {
		return fmt.Errorf("witness tw %d, want %d", w, ref)
	}
	return nil
}

func checkExact(res htd.Result, ref int) error {
	if res.Width != ref || !res.Exact {
		return fmt.Errorf("width %d (exact %v), want exact %d", res.Width, res.Exact, ref)
	}
	return nil
}

// equalRows compares two answer sets, count and content.
func equalRows(got, want [][]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range got {
		if strings.Join(got[i], ",") != strings.Join(want[i], ",") {
			return fmt.Errorf("answer %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
