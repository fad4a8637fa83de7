// Package setcover solves the set-cover subproblems that arise when turning
// tree decompositions into generalized hypertree decompositions (thesis
// §2.5.2): cover a χ-set of vertices with as few hyperedges as possible.
//
// It provides the greedy heuristic of Chvátal used by GA-ghw (Fig. 7.2), an
// exact branch-and-bound solver standing in for the thesis's IP solver, and
// the tw-ksc-width lower bound for generalized hypertree width (§8.1) that
// combines a treewidth lower bound with a k-set-cover bound.
package setcover

import (
	"math/rand"
	"sort"
	"time"

	"hypertree/internal/bitset"
	"hypertree/internal/hypergraph"
	"hypertree/internal/telemetry"
)

// Solver answers set-cover queries against a fixed hypergraph's edge set.
// It is not safe for concurrent use (it reuses scratch buffers); create one
// per goroutine.
type Solver struct {
	h   *hypergraph.Hypergraph
	rng *rand.Rand

	// ExactLatency, when non-nil, receives the wall-clock duration of each
	// Exact call in nanoseconds. The cover oracle points its pooled
	// solvers at its shared exact-solve histogram; standalone solvers
	// leave it nil and pay one nil check. Latency observation never feeds
	// back into solving.
	ExactLatency *telemetry.Histogram

	// coverable holds the vertices occurring in at least one hyperedge.
	// Vertices outside it are unconstrained and are ignored by covers (a
	// CSP variable in no constraint needs no λ edge).
	coverable *bitset.Set

	// scratch
	uncovered *bitset.Set
	masksUnc  *bitset.Set // greedyMasks working set

	// seenEdges is epoch-stamped per-edge scratch: seenEdges[e] == seenEpoch
	// means edge e was already visited in the current sweep. Bumping the
	// epoch clears the whole array in O(1), so Greedy and candidates avoid
	// rebuilding a map on every call.
	seenEdges []uint32
	seenEpoch uint32
}

// New returns a Solver over h's hyperedges. rng is used for random
// tie-breaking in Greedy; pass nil for deterministic lowest-index
// tie-breaking.
func New(h *hypergraph.Hypergraph, rng *rand.Rand) *Solver {
	coverable := bitset.New(h.NumVertices())
	for e := 0; e < h.NumEdges(); e++ {
		coverable.UnionWith(h.EdgeSet(e))
	}
	return &Solver{
		h:         h,
		rng:       rng,
		coverable: coverable,
		uncovered: bitset.New(h.NumVertices()),
		masksUnc:  bitset.New(h.NumVertices()),
		seenEdges: make([]uint32, h.NumEdges()),
	}
}

// beginSweep starts a fresh visited-edge sweep, clearing the stamps in O(1)
// (with a full wipe every 2^32 sweeps when the epoch counter wraps).
func (s *Solver) beginSweep() {
	s.seenEpoch++
	if s.seenEpoch == 0 {
		for i := range s.seenEdges {
			s.seenEdges[i] = 0
		}
		s.seenEpoch = 1
	}
}

// seen marks edge e visited in the current sweep, reporting whether it
// already was.
func (s *Solver) seen(e int) bool {
	if s.seenEdges[e] == s.seenEpoch {
		return true
	}
	s.seenEdges[e] = s.seenEpoch
	return false
}

// Greedy implements the greedy set-cover heuristic (Fig. 7.2): repeatedly
// take a hyperedge covering the most uncovered vertices, breaking ties
// randomly (or by lowest index without an rng). It returns the chosen edge
// indices; the cover size is len(result).
//
// Vertices occurring in no hyperedge are unconstrained and are excluded
// from the target.
func (s *Solver) Greedy(target *bitset.Set) []int {
	s.uncovered.CopyFrom(target)
	s.uncovered.IntersectWith(s.coverable)
	var cover []int
	for !s.uncovered.Empty() {
		best, bestGain, ties := -1, 0, 0
		// Only edges incident to some uncovered vertex can help; scan the
		// incidence lists of the lowest uncovered vertex's edges first for
		// the common small case, falling back to all incident edges.
		s.beginSweep()
		s.uncovered.ForEach(func(v int) bool {
			for _, e := range s.h.IncidentEdges(v) {
				if s.seen(e) {
					continue
				}
				gain := s.h.EdgeSet(e).IntersectionCount(s.uncovered)
				switch {
				case gain > bestGain:
					best, bestGain, ties = e, gain, 1
				case gain == bestGain && gain > 0:
					ties++
					if s.rng != nil && s.rng.Intn(ties) == 0 {
						best = e
					}
				}
			}
			return true
		})
		if best < 0 {
			panic("setcover: uncoverable target (vertex in no hyperedge)")
		}
		cover = append(cover, best)
		s.uncovered.DifferenceWith(s.h.EdgeSet(best))
	}
	return cover
}

// GreedySize returns len(Greedy(target)) without retaining the cover.
func (s *Solver) GreedySize(target *bitset.Set) int {
	return len(s.Greedy(target))
}

// Exact returns a minimum-cardinality cover of target by hyperedges,
// standing in for the IP solver the thesis uses for exact set covering.
// It runs branch and bound over candidate edges restricted to the target,
// after dominance elimination, branching on the uncovered vertex with the
// fewest candidates.
func (s *Solver) Exact(target *bitset.Set) []int {
	if s.ExactLatency != nil {
		defer s.ExactLatency.ObserveSince(time.Now())
	}
	target = target.Clone()
	target.IntersectWith(s.coverable)
	if target.Empty() {
		return nil
	}
	cands := s.candidates(target)

	// Upper bound from greedy (on restricted masks, deterministic).
	best := s.greedyMasks(target, cands)
	bestLen := len(best)

	// Branch and bound.
	uncovered := target.Clone()
	var cur []int
	maxMask := 0
	for _, c := range cands {
		if l := c.mask.Len(); l > maxMask {
			maxMask = l
		}
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
		// Lower bound: ceil(|uncovered| / maxMask).
		need := (uncovered.Len() + maxMask - 1) / maxMask
		if len(cur)+need >= bestLen {
			return
		}
		// Branch on the uncovered vertex with fewest covering candidates.
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
		if branchCount == 0 {
			return // uncoverable on this branch (cannot happen with full edge sets)
		}
		// Try candidates covering branchV, biggest gain first.
		var opts []candidate
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

// ExactSize returns the minimum cover cardinality.
func (s *Solver) ExactSize(target *bitset.Set) int {
	return len(s.Exact(target))
}

type candidate struct {
	edge int
	mask *bitset.Set // edge ∩ target
}

// candidates returns the useful edges restricted to target, after removing
// empty and dominated masks (mask ⊆ another mask, keeping the earlier edge
// on exact duplicates).
func (s *Solver) candidates(target *bitset.Set) []candidate {
	s.beginSweep()
	var cands []candidate
	target.ForEach(func(v int) bool {
		for _, e := range s.h.IncidentEdges(v) {
			if s.seen(e) {
				continue
			}
			m := s.h.EdgeSet(e).Clone()
			m.IntersectWith(target)
			if !m.Empty() {
				cands = append(cands, candidate{edge: e, mask: m})
			}
		}
		return true
	})
	// Dominance elimination.
	out := cands[:0]
	for i, c := range cands {
		dominated := false
		for j, d := range cands {
			if i == j {
				continue
			}
			if c.mask.SubsetOf(d.mask) {
				if !d.mask.SubsetOf(c.mask) || j < i {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// greedyMasks is a deterministic greedy over restricted masks used to seed
// the exact search's upper bound.
func (s *Solver) greedyMasks(target *bitset.Set, cands []candidate) []int {
	uncovered := s.masksUnc
	uncovered.CopyFrom(target)
	var cover []int
	for !uncovered.Empty() {
		best, bestGain := -1, 0
		for i, c := range cands {
			if g := c.mask.IntersectionCount(uncovered); g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			panic("setcover: uncoverable target")
		}
		cover = append(cover, cands[best].edge)
		uncovered.DifferenceWith(cands[best].mask)
	}
	return cover
}

// EdgeSizes holds a hypergraph's edge sizes in descending order: the input
// of the k-set-cover bound, sorted once so that a search can evaluate the
// bound at every node without allocating.
type EdgeSizes []int

// SortedEdgeSizes returns h's edge sizes in descending order.
func SortedEdgeSizes(h *hypergraph.Hypergraph) EdgeSizes {
	sizes := make([]int, h.NumEdges())
	for e := range sizes {
		sizes[e] = len(h.Edge(e))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// CoverLowerBound returns a lower bound on the minimum number of hyperedges
// needed to cover ANY vertex set of the given size: the smallest j such
// that the j largest hyperedges together have at least size vertices. This
// is the k-set-cover bound of §8.1.1.
func (s EdgeSizes) CoverLowerBound(size int) int {
	if size <= 0 {
		return 0
	}
	total := 0
	for j, sz := range s {
		total += sz
		if total >= size {
			return j + 1
		}
	}
	// Not coverable at all — every χ-set is coverable in reality, so treat
	// as "all edges".
	return len(s)
}

// TwKscLowerBound implements algorithm tw-ksc-width (Fig. 8.1): combine a
// lower bound L on the treewidth of the primal graph with the k-set-cover
// bound. Any generalized hypertree decomposition has some χ-set of at least
// L+1 vertices (otherwise it would be a tree decomposition of width < L),
// and covering L+1 vertices needs at least CoverLowerBound(L+1) edges.
func TwKscLowerBound(h *hypergraph.Hypergraph, twLowerBound int) int {
	return SortedEdgeSizes(h).TwKscLowerBound(twLowerBound)
}

// TwKscLowerBound is tw-ksc-width over the hypergraph whose sorted edge
// sizes s holds.
func (s EdgeSizes) TwKscLowerBound(twLowerBound int) int {
	lb := s.CoverLowerBound(twLowerBound + 1)
	if lb < 1 && len(s) > 0 {
		lb = 1
	}
	return lb
}
