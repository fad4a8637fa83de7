package lp

import "math"

// The dense-tableau reference solver. FuzzLPSolve and the sparse tests
// check SolveSparse against it on the same LP (FromDense bridges the two
// input forms).

// Solve maximises c·y subject to Ay ≤ b, y ≥ 0. A has one row per
// constraint; b must be non-negative. It returns the optimal objective
// value, an optimal y, and the dual values (one per constraint, the
// shadow prices — for a covering dual these are the primal cover weights).
func Solve(A [][]float64, b, c []float64) (opt float64, y []float64, dual []float64, err error) {
	m := len(A)
	if len(b) != m {
		return 0, nil, nil, ErrBadInput
	}
	n := len(c)
	for i := range A {
		if len(A[i]) != n {
			return 0, nil, nil, ErrBadInput
		}
		if b[i] < -eps {
			return 0, nil, nil, ErrBadInput
		}
	}

	// Tableau: m rows × (n + m + 1) columns. Columns 0..n−1 are the
	// decision variables, n..n+m−1 the slacks, last column the RHS. The
	// objective row holds reduced costs (we maximise, so we pivot while a
	// positive reduced cost exists — stored negated as in the classical
	// minimisation tableau would flip signs; here we keep maximisation
	// semantics directly).
	cols := n + m + 1
	t := make([][]float64, m+1)
	for i := 0; i < m; i++ {
		t[i] = make([]float64, cols)
		copy(t[i], A[i])
		t[i][n+i] = 1
		t[i][cols-1] = b[i]
	}
	obj := make([]float64, cols)
	copy(obj, c)
	t[m] = obj

	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}

	maxIter := 50 * (m + n) * (m + n)
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return 0, nil, nil, ErrIterationLimit
		}
		// Entering variable: Bland's rule — smallest index with positive
		// reduced cost.
		enter := -1
		for j := 0; j < n+m; j++ {
			if t[m][j] > eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			break // optimal
		}
		// Leaving variable: minimum ratio, ties by smallest basis index
		// (Bland).
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][enter] > eps {
				ratio := t[i][cols-1] / t[i][enter]
				if ratio < best-eps || (ratio < best+eps && (leave < 0 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return 0, nil, nil, ErrUnbounded
		}
		pivot(t, leave, enter)
		basis[leave] = enter
	}

	y = make([]float64, n)
	for i, bv := range basis {
		if bv < n {
			y[bv] = t[i][cols-1]
		}
	}
	// Objective row value: −z is accumulated in the RHS cell of the
	// objective row (we subtracted pivot rows from it), so opt = −t[m][last].
	opt = -t[m][cols-1]
	// Dual values are the negated reduced costs of the slack columns.
	dual = make([]float64, m)
	for i := 0; i < m; i++ {
		dual[i] = -t[m][n+i]
		if dual[i] < 0 && dual[i] > -eps {
			dual[i] = 0
		}
	}
	return opt, y, dual, nil
}

func pivot(t [][]float64, r, c int) {
	pr := t[r]
	pv := pr[c]
	for j := range pr {
		pr[j] /= pv
	}
	for i := range t {
		if i == r {
			continue
		}
		f := t[i][c]
		if f == 0 {
			continue
		}
		row := t[i]
		for j := range row {
			row[j] -= f * pr[j]
		}
	}
}

// FromDense builds the column-major sparse form of a dense row-major
// constraint matrix, so SolveSparse and the dense reference Solve see the
// same LP.
func FromDense(A [][]float64) *Matrix {
	m := NewMatrix(len(A))
	if len(A) == 0 {
		return m
	}
	n := len(A[0])
	var rows []int
	var vals []float64
	for j := 0; j < n; j++ {
		rows = rows[:0]
		vals = vals[:0]
		for i := range A {
			if A[i][j] != 0 {
				rows = append(rows, i)
				vals = append(vals, A[i][j])
			}
		}
		m.AddCol(rows, vals)
	}
	return m
}
