// Package detk decides hw(H) ≤ k, the survey's central tractability
// result: polynomial for fixed k, unlike ghw. Hypertree decompositions
// strengthen generalized hypertree decompositions with the descendant
// ("special") condition: for every node p, var(λ(p)) ∩ χ(T_p) ⊆ χ(p).
//
// Two engines decide it, top-down: pick a λ-separator of at most k
// hyperedges covering the connector vertices, split the remaining
// hyperedges into [λ]-components, recurse on each.
//
//   - Decompose is det-k-decomp (Gottlob, Leone, Scarcello; the algorithm
//     behind the original detkdecomp tool), which tries separators in edge
//     order. It is the independent reference the balanced engine is
//     checked against.
//   - DecomposeBalanced is the BalancedGo-style engine behind MethodBalSep
//     (balsep.go), which tries balanced separators first.
//
// Both share one memo of (component, connector) verdicts, one Result and
// one run frame (frame.go). Width searches k = 0, 1, … with det-k.
package detk

import (
	"context"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/telemetry"
)

// Options bounds the det-k search.
type Options struct {
	// MaxGuesses bounds the number of separator guesses (0 = unbounded).
	// When the cap trips the result reports Complete=false.
	MaxGuesses int64
	// Trace, when non-nil, receives a "detk.decompose" span and sampled
	// "detk.component" instants on the Track timeline: every component
	// recursion at depth ≤ 1 and every 64th deeper one, annotated with
	// depth, component size, and connector size. Attaching a trace never
	// changes the decomposition.
	Trace *telemetry.Trace
	// Track is the trace timeline the events are emitted on.
	Track int
	// Stats, when non-nil, receives phase attribution: every Decompose
	// call's wall time lands in the branch-expansion clock (det-k's
	// separator-guess recursion is its branching loop). Attaching it never
	// changes the decomposition.
	Stats *telemetry.Stats
}

// Decompose runs det-k-decomp at budget k: it returns a hypertree
// decomposition of width ≤ k, or none, which proves hw(H) > k when the
// result is Complete. Cancellation or a deadline aborts the search at the
// next poll and returns the context error; a cut-short search never plants
// failures in its memo.
func Decompose(ctx context.Context, h *hypergraph.Hypergraph, k int, opt Options) (Result, error) {
	s := &solver{frame: newFrame(ctx, h, k, "detk", 256, opt.Trace, opt.Track), maxGuesses: opt.MaxGuesses}
	return s.run(ctx, opt.Stats, func(comp, conn *bitset.Set) *node {
		return s.decompose(comp, conn, 0)
	})
}

// Width returns the exact hypertree width of h, trying k = 0, 1, … with
// det-k-decomp, and the witnessing decomposition. maxK caps the search
// (≤ 0 means |edges|); width −1 means hw(H) > maxK, or, under a guess cap,
// that the first level the cap cut short left the width undecided. It
// returns the context error when cancellation struck before the width was
// decided.
func Width(ctx context.Context, h *hypergraph.Hypergraph, maxK int, opt Options) (int, *decomp.Decomposition, error) {
	if maxK <= 0 {
		maxK = h.NumEdges()
	}
	for k := 0; k <= maxK; k++ {
		r, err := Decompose(ctx, h, k, opt)
		if err != nil {
			return -1, nil, err
		}
		if r.Decomposition != nil {
			return k, r.Decomposition, nil
		}
		if !r.Complete {
			return -1, nil, nil
		}
	}
	return -1, nil, nil
}

type solver struct {
	frame
	maxGuesses int64
	// memo records the (component, connector) pairs proven infeasible: det-k
	// stores failures only, so every entry is one.
	memo memo
}

// decompose finds a hypertree for the hyperedges in comp whose root node
// covers conn (the connector vertices shared with the parent separator).
// depth is the recursion depth, used only for trace sampling. Returns nil
// on failure.
func (s *solver) decompose(comp *bitset.Set, conn *bitset.Set, depth int) *node {
	s.sample(comp, conn, depth)
	if _, failed := s.memo.get(comp, conn); failed {
		return nil
	}

	// Base case: the whole component fits in one λ-set.
	if comp.Len() <= s.k {
		lambda := comp.Slice()
		chi := s.varsOfEdges(lambda)
		chi.UnionWith(conn) // conn ⊆ var(comp edges) ∪ parent separator
		// χ must be covered by λ: keep only covered vertices — conn is
		// always covered because the caller guarantees conn ⊆ var(λ).
		cover := s.varsOfEdges(lambda)
		if conn.SubsetOf(cover) {
			chi.IntersectWith(cover)
			return &node{lambda: lambda, chi: chi}
		}
		// Fall through to the general search: a small component may still
		// need a separator with extra edges to cover the connector.
	}

	compVars := s.componentVars(comp)
	// Candidate separator edges: any edge intersecting the component's
	// variables or the connector (bounded enumeration over subsets ≤ k).
	candidates := s.candidateEdges(comp, conn, compVars)

	var lambda []int
	res := s.searchSeparator(comp, conn, compVars, candidates, 0, lambda, depth)
	if res == nil && !s.cut() {
		s.memo.put(comp, conn, nil)
	}
	return res
}

// searchSeparator enumerates λ ⊆ candidates with |λ| ≤ k covering conn,
// requiring each chosen edge to contribute (cover a yet-uncovered conn
// vertex or intersect the component).
func (s *solver) searchSeparator(comp, conn, compVars *bitset.Set, candidates []int, from int, lambda []int, depth int) *node {
	if s.maxGuesses > 0 && s.guesses > s.maxGuesses {
		s.capped = true
		return nil
	}
	if s.stopped() {
		return nil
	}
	if len(lambda) > 0 {
		s.guesses++
		sepVars := s.varsOfEdges(lambda)
		if conn.SubsetOf(sepVars) {
			if n := s.trySeparator(comp, conn, compVars, lambda, sepVars, depth); n != nil {
				return n
			}
		}
	}
	if len(lambda) == s.k {
		return nil
	}
	for i := from; i < len(candidates); i++ {
		e := candidates[i]
		// Usefulness filter: the edge must touch the component or an
		// uncovered connector vertex.
		es := s.h.EdgeSet(e)
		if !es.Intersects(compVars) && !es.Intersects(conn) {
			continue
		}
		if n := s.searchSeparator(comp, conn, compVars, candidates, i+1, append(lambda, e), depth); n != nil {
			return n
		}
	}
	return nil
}

// trySeparator splits comp by the separator's variables and recurses.
func (s *solver) trySeparator(comp, conn, compVars *bitset.Set, lambda []int, sepVars *bitset.Set, depth int) *node {
	// χ(p) = var(λ) ∩ (compVars ∪ conn): the descendant condition holds
	// because variables of λ outside the current component never reappear
	// below p.
	chi := sepVars.Clone()
	scope := compVars.Clone()
	scope.UnionWith(conn)
	chi.IntersectWith(scope)

	// All connector vertices must be in χ (connectedness with the parent).
	if !conn.SubsetOf(chi) {
		return nil
	}

	// [λ]-components: edges of comp not fully covered, connected via
	// non-separator vertices.
	comps := s.components(comp, sepVars)

	// Progress check: every child component must be strictly smaller.
	for _, c := range comps {
		if c.edges.Len() >= comp.Len() {
			return nil
		}
	}

	n := &node{lambda: append([]int(nil), lambda...), chi: chi}
	for _, c := range comps {
		childConn := c.vars.Clone()
		childConn.IntersectWith(chi)
		child := s.decompose(c.edges, childConn, depth+1)
		if child == nil {
			return nil
		}
		n.children = append(n.children, child)
	}
	return n
}

// CheckSpecial verifies the descendant condition of hypertree
// decompositions (Def. "hypertree decomposition", condition 4): for every
// node p, var(λ(p)) ∩ χ(T_p) ⊆ χ(p), where χ(T_p) is the union of χ over
// p's subtree.
func CheckSpecial(d *decomp.Decomposition) bool {
	subtreeChi := make(map[*decomp.Node]*bitset.Set, d.NumNodes())
	var fill func(n *decomp.Node) *bitset.Set
	fill = func(n *decomp.Node) *bitset.Set {
		acc := n.Chi.Clone()
		for _, c := range n.Children {
			acc.UnionWith(fill(c))
		}
		subtreeChi[n] = acc
		return acc
	}
	fill(d.Root)
	for _, n := range d.Nodes() {
		lamVars := bitset.New(d.H.NumVertices())
		for _, e := range n.Lambda {
			lamVars.UnionWith(d.H.EdgeSet(e))
		}
		lamVars.IntersectWith(subtreeChi[n])
		if !lamVars.SubsetOf(n.Chi) {
			return false
		}
	}
	return true
}
