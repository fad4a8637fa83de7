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
	"math/bits"
	"math/rand"
	"slices"
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

	// seenEdges is epoch-stamped per-edge scratch: seenEdges[e] == seenEpoch
	// means edge e was already visited in the current sweep. Bumping the
	// epoch clears the whole array in O(1), so Greedy and candidates avoid
	// rebuilding a map on every call.
	seenEdges []uint32
	seenEpoch uint32

	x exactScratch
}

// exactScratch is Exact's pointer-free working state, kept across calls so
// that a warm Exact allocates only the cover it returns. Sets are rows of
// nw words.
type exactScratch struct {
	nw      int
	target  []uint64 // the query ∩ coverable
	unc     []uint64 // its vertices no edge of cur covers
	edges   []int    // candidate i's edge
	masks   []uint64 // row i: candidate i's edge ∩ target
	maxMask int      // the largest candidate mask's size
	removed []uint64 // row d: what the option taken at depth d covered
	opts    []option // the options of every open branch, a stack
	cur     []int    // the partial cover of the branch being explored
	best    []int    // the smallest cover found so far
}

// option is a candidate that covers a branch's vertex, with the number of
// uncovered vertices it covers.
type option struct {
	cand, gain int32
}

// byGain orders options by descending gain. The order of options of equal
// gain decides which of several minimum covers Exact returns, so it must
// stay what sort.Slice gives; slices.SortFunc runs the same pdqsort.
func byGain(a, b option) int { return int(b.gain - a.gain) }

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
		seenEdges: make([]uint32, h.NumEdges()),
		x:         exactScratch{nw: len(coverable.Words())},
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
// fewest candidates. All of its working state lives in the solver, so a
// warm Exact allocates only the cover it returns.
func (s *Solver) Exact(target *bitset.Set) []int {
	if s.ExactLatency != nil {
		defer s.ExactLatency.ObserveSince(time.Now())
	}
	x := &s.x
	tw := target.Words()
	x.target = x.target[:0]
	empty := true
	for i, c := range s.coverable.Words() {
		if i < len(tw) {
			c &= tw[i]
		} else {
			c = 0
		}
		x.target = append(x.target, c)
		empty = empty && c == 0
	}
	if empty {
		return nil
	}
	s.candidates()
	s.greedyMasks()
	x.maxMask = 0
	for i := range x.edges {
		x.maxMask = max(x.maxMask, count(x.mask(i)))
	}
	// A branch opens only below depth len(best) − 1.
	if n := len(x.best) * x.nw; len(x.removed) < n {
		x.removed = make([]uint64, n)
	}
	x.unc = append(x.unc[:0], x.target...)
	x.cur = x.cur[:0]
	s.branch()
	return slices.Clone(x.best)
}

// ExactSize returns the minimum cover cardinality.
func (s *Solver) ExactSize(target *bitset.Set) int {
	return len(s.Exact(target))
}

// mask returns candidate i's mask.
func (x *exactScratch) mask(i int) []uint64 { return x.masks[i*x.nw : (i+1)*x.nw] }

// count returns the number of set bits in words.
func count(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// branch extends the partial cover cur until x.unc is covered, keeping the
// smallest cover in best: it branches on the uncovered vertex with the
// fewest candidates, trying the candidates that cover it in descending
// order of gain.
func (s *Solver) branch() {
	x := &s.x
	n := count(x.unc)
	if n == 0 {
		if len(x.cur) < len(x.best) {
			x.best = append(x.best[:0], x.cur...)
		}
		return
	}
	// Lower bound: ceil(|uncovered| / maxMask).
	if len(x.cur)+(n+x.maxMask-1)/x.maxMask >= len(x.best) {
		return
	}
	// Every target vertex lies in some candidate (a dominated mask lies in
	// a kept one), so the first count of one is the least.
	branchV, branchCount := -1, int(^uint(0)>>1)
scan:
	for wi, w := range x.unc {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			cnt := 0
			for i := range x.edges {
				cnt += int(x.masks[i*x.nw+wi] >> b & 1)
			}
			if cnt < branchCount {
				branchV, branchCount = wi<<6|b, cnt
				if cnt == 1 {
					break scan
				}
			}
		}
	}
	lo := len(x.opts)
	vw, vb := branchV>>6, uint64(1)<<(branchV&63)
	for i := range x.edges {
		if m := x.mask(i); m[vw]&vb != 0 {
			gain := 0
			for j, w := range m {
				gain += bits.OnesCount64(w & x.unc[j])
			}
			x.opts = append(x.opts, option{cand: int32(i), gain: int32(gain)})
		}
	}
	slices.SortFunc(x.opts[lo:], byGain)
	depth := len(x.cur)
	for k, hi := lo, len(x.opts); k < hi; k++ {
		c := int(x.opts[k].cand)
		m, removed := x.mask(c), x.removed[depth*x.nw:(depth+1)*x.nw]
		for j, w := range m {
			removed[j] = x.unc[j] & w
			x.unc[j] &^= w
		}
		x.cur = append(x.cur, x.edges[c])
		s.branch()
		x.cur = x.cur[:depth]
		for j, w := range removed {
			x.unc[j] |= w
		}
	}
	x.opts = x.opts[:lo]
}

// candidates fills x's candidate list with the useful edges restricted to
// x.target, after removing dominated masks (mask ⊆ another mask, keeping
// the earlier edge on exact duplicates).
func (s *Solver) candidates() {
	x := &s.x
	x.edges, x.masks = x.edges[:0], x.masks[:0]
	s.beginSweep()
	for wi, w := range x.target {
		for ; w != 0; w &= w - 1 {
			for _, e := range s.h.IncidentEdges(wi<<6 | bits.TrailingZeros64(w)) {
				if s.seen(e) {
					continue
				}
				// e meets the target at the vertex that reached it, so its
				// mask is not empty.
				x.edges = append(x.edges, e)
				for j, ew := range s.h.EdgeSet(e).Words()[:x.nw] {
					x.masks = append(x.masks, ew&x.target[j])
				}
			}
		}
	}
	// Dominance elimination, filtering in place. A dominated mask that the
	// kept prefix overwrites lies inside a kept mask, so every mask is
	// still tested against a superset of its dominators.
	kept := 0
	for i := range x.edges {
		if !x.dominated(i) {
			x.edges[kept] = x.edges[i]
			copy(x.mask(kept), x.mask(i))
			kept++
		}
	}
	x.edges, x.masks = x.edges[:kept], x.masks[:kept*x.nw]
}

// dominated reports whether candidate i's mask lies inside another's,
// which is not an exact duplicate at a later index.
func (x *exactScratch) dominated(i int) bool {
	c := x.mask(i)
	for j := range x.edges {
		if j != i && subset(c, x.mask(j)) && (j < i || !subset(x.mask(j), c)) {
			return true
		}
	}
	return false
}

// subset reports whether a ⊆ b for rows of equal length.
func subset(a, b []uint64) bool {
	for i, w := range a {
		if w&^b[i] != 0 {
			return false
		}
	}
	return true
}

// greedyMasks seeds best, the exact search's upper bound, with a
// deterministic greedy over the candidate masks: the first candidate of
// largest gain, until the target is covered.
func (s *Solver) greedyMasks() {
	x := &s.x
	x.best = x.best[:0]
	x.unc = append(x.unc[:0], x.target...)
	for n := count(x.unc); n > 0; {
		best, bestGain := -1, 0
		for i := range x.edges {
			g := 0
			for j, w := range x.mask(i) {
				g += bits.OnesCount64(w & x.unc[j])
			}
			if g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			panic("setcover: uncoverable target")
		}
		x.best = append(x.best, x.edges[best])
		for j, w := range x.mask(best) {
			x.unc[j] &^= w
		}
		n -= bestGain
	}
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
