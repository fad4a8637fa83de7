// Package lp implements the simplex solver for the small linear programs
// that arise in fractional edge covers (fractional hypertree width, the
// third width measure of the hypertree decomposition survey).
//
// SolveSparse is the one solver. It handles the canonical-form problem
//
//	maximise    c·y
//	subject to  A y ≤ b,  y ≥ 0,  with b ≥ 0,
//
// which is exactly the shape of the fractional-matching dual of a covering
// LP: the all-slack basis is immediately feasible, so no phase-1 is
// needed. It is a revised simplex over column-major sparse constraint
// storage: the covering duals the oracle solves are extremely sparse (a
// vertex lies in a handful of hyperedges), so A stays sparse, the dense
// basis inverse is maintained explicitly, and every scratch vector is
// recycled through a sync.Pool in the setcover/cover-oracle style. Bland's
// rule is applied on both the entering and the leaving side, so the solver
// terminates on degenerate LPs without cycling. The package tests keep a
// dense-tableau solver as the reference the differential fuzz target
// (FuzzLPSolve) checks SolveSparse against.
package lp

import (
	"errors"
	"math"
	"sync"
)

// ErrUnbounded is returned when the LP has unbounded optimum.
var ErrUnbounded = errors.New("lp: unbounded")

// ErrBadInput is returned on malformed dimensions or negative b.
var ErrBadInput = errors.New("lp: malformed input")

const eps = 1e-9

// ErrIterationLimit is returned when the pivot count exceeds the safety
// bound (50·(m+n)², far beyond any Bland's-rule run on a well-posed LP);
// hitting it indicates numerically pathological input.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

// Matrix is a column-major sparse constraint matrix: column j's nonzero
// entries live at rowIdx/val[colPtr[j]:colPtr[j+1]]. The zero value is not
// usable; construct with NewMatrix and append columns with AddCol. Reset
// allows pooled reuse without reallocating the backing arrays.
type Matrix struct {
	rows   int
	colPtr []int
	rowIdx []int
	val    []float64
}

// NewMatrix returns an empty matrix with the given row (constraint) count.
func NewMatrix(rows int) *Matrix {
	return &Matrix{rows: rows, colPtr: []int{0}}
}

// Rows returns the constraint count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns appended so far.
func (m *Matrix) Cols() int { return len(m.colPtr) - 1 }

// AddCol appends one column with nonzero entries at the given rows. vals
// may be nil, in which case every listed entry is 1 — the incidence-matrix
// case of the covering duals; otherwise len(vals) must equal len(rows).
// Row indices are validated by SolveSparse, not here.
func (m *Matrix) AddCol(rows []int, vals []float64) {
	for i, r := range rows {
		m.rowIdx = append(m.rowIdx, r)
		if vals == nil {
			m.val = append(m.val, 1)
		} else {
			m.val = append(m.val, vals[i])
		}
	}
	m.colPtr = append(m.colPtr, len(m.rowIdx))
}

// Reset empties the matrix for reuse with a new row count, keeping the
// backing arrays so a pooled Matrix only allocates on growth.
func (m *Matrix) Reset(rows int) {
	m.rows = rows
	if m.colPtr == nil {
		m.colPtr = []int{0}
	} else {
		m.colPtr = append(m.colPtr[:0], 0)
	}
	m.rowIdx = m.rowIdx[:0]
	m.val = m.val[:0]
}

// sparseScratch is the pooled per-solve workspace: the dense basis inverse
// (m×m, row-major flattened), basic solution, simplex multipliers, pivot
// direction, and basis index list.
type sparseScratch struct {
	binv  []float64
	xb    []float64
	pi    []float64
	w     []float64
	basis []int
}

var sparseScratchPool = sync.Pool{New: func() any { return new(sparseScratch) }}

// ensure sizes every scratch vector for an m-constraint solve, growing the
// backing arrays only when a larger LP arrives.
func (s *sparseScratch) ensure(m int) {
	if cap(s.binv) < m*m {
		s.binv = make([]float64, m*m)
	}
	s.binv = s.binv[:m*m]
	if cap(s.xb) < m {
		s.xb = make([]float64, m)
		s.pi = make([]float64, m)
		s.w = make([]float64, m)
		s.basis = make([]int, m)
	}
	s.xb, s.pi, s.w, s.basis = s.xb[:m], s.pi[:m], s.w[:m], s.basis[:m]
}

// SolveSparse maximises c·y subject to Ay ≤ b, y ≥ 0, with b ≥ 0, using a
// revised simplex over the sparse column-major A. Semantics match the
// dense Solve exactly: it returns the optimal objective value, an optimal
// y, and the duals (one per constraint — for a covering dual these are the
// primal cover weights). The all-slack basis is immediately feasible
// (b ≥ 0), so no phase-1 is needed.
func SolveSparse(A *Matrix, b, c []float64) (opt float64, y, dual []float64, err error) {
	if A == nil {
		return 0, nil, nil, ErrBadInput
	}
	m := A.rows
	n := A.Cols()
	if len(b) != m || len(c) != n || m < 0 {
		return 0, nil, nil, ErrBadInput
	}
	for _, bi := range b {
		if bi < -eps {
			return 0, nil, nil, ErrBadInput
		}
	}
	for _, r := range A.rowIdx {
		if r < 0 || r >= m {
			return 0, nil, nil, ErrBadInput
		}
	}
	if m == 0 {
		// No constraints: 0 when no objective coefficient is positive,
		// unbounded otherwise.
		for _, cj := range c {
			if cj > eps {
				return 0, nil, nil, ErrUnbounded
			}
		}
		return 0, make([]float64, n), []float64{}, nil
	}

	s := sparseScratchPool.Get().(*sparseScratch)
	defer sparseScratchPool.Put(s)
	s.ensure(m)
	binv, xb, pi, w, basis := s.binv, s.xb, s.pi, s.w, s.basis

	// All-slack basis: B = I, B⁻¹ = I, x_B = b.
	for i := 0; i < m; i++ {
		row := binv[i*m : (i+1)*m]
		for j := range row {
			row[j] = 0
		}
		row[i] = 1
		xb[i] = b[i]
		basis[i] = n + i
	}

	maxIter := 50 * (m + n) * (m + n)
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return 0, nil, nil, ErrIterationLimit
		}
		// Simplex multipliers π = c_B·B⁻¹ (the duals of the current basis).
		for j := 0; j < m; j++ {
			pi[j] = 0
		}
		for i := 0; i < m; i++ {
			cb := 0.0
			if bv := basis[i]; bv < n {
				cb = c[bv]
			}
			if cb == 0 {
				continue
			}
			row := binv[i*m : (i+1)*m]
			for j := 0; j < m; j++ {
				pi[j] += cb * row[j]
			}
		}
		// Entering variable — Bland's rule: the lowest-index variable with
		// positive reduced cost, structurals (d_j = c_j − π·A_j) before
		// slacks (d = −π_i).
		enter := -1
		for j := 0; j < n; j++ {
			d := c[j]
			for k := A.colPtr[j]; k < A.colPtr[j+1]; k++ {
				d -= pi[A.rowIdx[k]] * A.val[k]
			}
			if d > eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			for i := 0; i < m; i++ {
				if -pi[i] > eps {
					enter = n + i
					break
				}
			}
		}
		if enter < 0 {
			break // optimal
		}
		// Pivot direction w = B⁻¹·A_enter; a slack column is e_i, so its
		// direction is just column i of B⁻¹.
		if enter < n {
			for i := 0; i < m; i++ {
				w[i] = 0
			}
			for k := A.colPtr[enter]; k < A.colPtr[enter+1]; k++ {
				r, v := A.rowIdx[k], A.val[k]
				for i := 0; i < m; i++ {
					w[i] += binv[i*m+r] * v
				}
			}
		} else {
			col := enter - n
			for i := 0; i < m; i++ {
				w[i] = binv[i*m+col]
			}
		}
		// Leaving variable: minimum ratio, ties broken by smallest basis
		// index (Bland again — both sides are needed for the anti-cycling
		// guarantee).
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if w[i] > eps {
				ratio := xb[i] / w[i]
				if ratio < best-eps || (ratio < best+eps && (leave < 0 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return 0, nil, nil, ErrUnbounded
		}
		// Eta update: scale the pivot row, eliminate w from the others.
		pw := w[leave]
		prow := binv[leave*m : (leave+1)*m]
		for j := range prow {
			prow[j] /= pw
		}
		xb[leave] /= pw
		for i := 0; i < m; i++ {
			if i == leave {
				continue
			}
			f := w[i]
			if f == 0 {
				continue
			}
			row := binv[i*m : (i+1)*m]
			for j := range row {
				row[j] -= f * prow[j]
			}
			xb[i] -= f * xb[leave]
		}
		basis[leave] = enter
	}

	y = make([]float64, n)
	for i, bv := range basis {
		if bv < n {
			v := xb[i]
			if v < 0 && v > -eps {
				v = 0
			}
			y[bv] = v
			opt += c[bv] * v
		}
	}
	// At optimality π are exactly the dual values (the negated reduced
	// costs of the slack columns in tableau terms).
	dual = make([]float64, m)
	for i := 0; i < m; i++ {
		d := pi[i]
		if d < 0 && d > -eps {
			d = 0
		}
		dual[i] = d
	}
	return opt, y, dual, nil
}
