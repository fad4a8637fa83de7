// Fractional-cover memoization — the oracle's third query kind. ρ*(bag)
// is the optimum of the fractional edge-cover LP, computed via its
// fractional-matching dual (max Σ y_v subject to Σ_{v∈e} y_v ≤ 1 per
// candidate edge; the edge constraints' duals are the primal cover
// weights) with the sparse revised simplex. The kind shares the integral
// covers' probe (query in cover.go): the same canonical-bag interning,
// sharded hash chains, hit/miss/eviction counters and pulses, and one
// entry per bag — only the solve path and its latency histogram (fracNs →
// cover_frac_ns) are its own. Determinism contract: the LP is built in ascending vertex /
// first-seen edge order and Bland's rule is deterministic, so the memoized
// value is a pure function of the bag and cache state stays invisible in
// results. LP failures are returned, never memoized — a numerical wobble
// degrades to a recompute, not a poisoned cache.
package cover

import (
	"fmt"
	"time"

	"hypertree/internal/bitset"
	"hypertree/internal/lp"
	"hypertree/internal/telemetry"
)

// EdgeWeight is one positive-weight hyperedge of a fractional cover.
type EdgeWeight struct {
	Edge   int
	Weight float64
}

// fracScratch is the pooled LP-assembly workspace of one fractional
// solve: the sparse constraint matrix, RHS/objective vectors, the
// edge-row interning, and the per-column row list.
type fracScratch struct {
	A       *lp.Matrix
	b, c    []float64
	edges   []int       // row → hyperedge index
	edgeRow map[int]int // hyperedge index → row
	rows    []int       // scratch: one column's constraint rows
}

// FracValue returns ρ*(target), the minimum total weight of a fractional
// edge cover of the target's coverable vertices, memoized. st, when
// non-nil, receives the whole query — memo probe and, on a miss, the LP
// solve — in its LP phase clock. Identical answers either way.
func (o *Oracle) FracValue(target *bitset.Set, st *telemetry.Stats) (float64, error) {
	a, err := o.query(target, fracKind, st)
	if err != nil {
		return 0, err
	}
	return a.val, nil
}

// FracCover returns ρ*(target) together with the positive-weight edges of
// an optimal fractional cover (ascending edge index), memoized.
func (o *Oracle) FracCover(target *bitset.Set) (float64, []EdgeWeight, error) {
	a, err := o.query(target, fracKind, nil)
	if err != nil {
		return 0, nil, err
	}
	return a.val, append([]EdgeWeight(nil), a.frac...), nil
}

// solveFrac builds and solves the fractional-matching dual of bag's
// covering LP with pooled scratch. On a timed oracle the whole
// assembly+solve lands in fracNs (the cover_frac_ns histogram). The returned weights are freshly
// allocated (they are retained by the memo) and sorted ascending by edge
// index because rows are interned in ascending-vertex first-seen order
// and compacted at the end.
func (o *Oracle) solveFrac(bag *bitset.Set) (float64, []EdgeWeight, error) {
	if o.timed {
		defer o.fracNs.ObserveSince(time.Now())
	}

	s := o.fracLPs.Get().(*fracScratch)
	defer o.fracLPs.Put(s)
	s.edges = s.edges[:0]
	clear(s.edgeRow)

	// Rows: every hyperedge incident to a bag vertex, interned in
	// first-seen order over ascending vertices — deterministic.
	n := 0 // columns = bag vertices (all coverable by construction)
	bag.ForEach(func(v int) bool {
		for _, e := range o.h.IncidentEdges(v) {
			if _, ok := s.edgeRow[e]; !ok {
				s.edgeRow[e] = len(s.edges)
				s.edges = append(s.edges, e)
			}
		}
		n++
		return true
	})
	m := len(s.edges)
	if s.A == nil {
		s.A = lp.NewMatrix(m)
	} else {
		s.A.Reset(m)
	}
	if cap(s.b) < m {
		s.b = make([]float64, m)
	}
	s.b = s.b[:m]
	for i := range s.b {
		s.b[i] = 1
	}
	if cap(s.c) < n {
		s.c = make([]float64, n)
	}
	s.c = s.c[:n]
	for i := range s.c {
		s.c[i] = 1
	}
	bag.ForEach(func(v int) bool {
		s.rows = s.rows[:0]
		for _, e := range o.h.IncidentEdges(v) {
			s.rows = append(s.rows, s.edgeRow[e])
		}
		s.A.AddCol(s.rows, nil)
		return true
	})

	opt, _, dual, err := lp.SolveSparse(s.A, s.b, s.c)
	if err != nil {
		// The matching LP is always feasible and bounded (y_v ≤ 1 for every
		// covered vertex), so failures are numerical; surface them wrapped.
		return 0, nil, fmt.Errorf("cover: fractional LP on %d-vertex bag: %w", n, err)
	}
	var weights []EdgeWeight
	for i, e := range s.edges {
		if dual[i] > 1e-9 {
			weights = append(weights, EdgeWeight{Edge: e, Weight: dual[i]})
		}
	}
	sortEdgeWeights(weights)
	return opt, weights, nil
}

// sortEdgeWeights orders by ascending edge index (insertion sort — covers
// have a handful of positive weights).
func sortEdgeWeights(w []EdgeWeight) {
	for i := 1; i < len(w); i++ {
		for j := i; j > 0 && w[j].Edge < w[j-1].Edge; j-- {
			w[j], w[j-1] = w[j-1], w[j]
		}
	}
}
