// Package csp implements the constraint-satisfaction substrate of the
// thesis (ch. 2): CSP instances (Def. 5) with their backtracking baseline,
// relational algebra over constraint relations, and join trees of acyclic
// CSPs (Def. 8–9) as width-1 GHDs. Solving and counting over a
// decomposition — Acyclic Solving (Fig. 2.4), Join Tree Clustering (§2.4)
// and solving from complete GHDs (Fig. 2.9) — run on the query engine's
// dataflow in package cq, with these kernels.
package csp

import (
	"fmt"

	"hypertree/internal/hypergraph"
)

// CSP is a constraint satisfaction problem ⟨X, D, C⟩ over variables indexed
// 0..NumVars−1.
type CSP struct {
	VarNames    []string
	Domains     [][]int // Domains[v] lists the allowed values of variable v
	Constraints []*Constraint
}

// Constraint is a pair ⟨S, R⟩ of scope and relation.
type Constraint struct {
	Name string
	Rel  *Relation
}

// NumVars returns the number of variables.
func (c *CSP) NumVars() int { return len(c.VarNames) }

// Validate checks structural soundness: scopes in range, tuple arities
// matching scopes, tuple values within domains.
func (c *CSP) Validate() error {
	for v, d := range c.Domains {
		if len(d) == 0 {
			return fmt.Errorf("csp: variable %s has empty domain", c.VarNames[v])
		}
	}
	for _, con := range c.Constraints {
		for _, v := range con.Rel.Scope {
			if v < 0 || v >= c.NumVars() {
				return fmt.Errorf("csp: constraint %s references variable %d out of range", con.Name, v)
			}
		}
		if r := con.Rel; r.refused > 0 {
			return fmt.Errorf("csp: constraint %s has tuple of arity %d, scope %d", con.Name, r.refusedLen, len(r.Scope))
		}
		for k := 0; k < con.Rel.Size(); k++ {
			for i, val := range con.Rel.Row(k) {
				if !contains(c.Domains[con.Rel.Scope[i]], val) {
					return fmt.Errorf("csp: constraint %s tuple value %d outside domain of %s",
						con.Name, val, c.VarNames[con.Rel.Scope[i]])
				}
			}
		}
	}
	return nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Hypergraph returns the constraint hypergraph (Def. 7): one vertex per
// variable, one hyperedge per constraint scope.
func (c *CSP) Hypergraph() *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	for _, name := range c.VarNames {
		b.Vertex(name)
	}
	for _, con := range c.Constraints {
		b.AddEdgeByIndex(con.Name, con.Rel.Scope...)
	}
	return b.Build()
}

// Check reports whether the complete assignment (value per variable)
// satisfies every constraint.
func (c *CSP) Check(assignment []int) bool {
	if len(assignment) != c.NumVars() {
		return false
	}
	for v, val := range assignment {
		if !contains(c.Domains[v], val) {
			return false
		}
	}
	for _, con := range c.Constraints {
		if !con.Rel.allows(assignment) {
			return false
		}
	}
	return true
}

// allows reports whether the relation contains the projection of the
// complete assignment onto its scope.
func (r *Relation) allows(assignment []int) bool {
	for k := 0; k < r.n; k++ {
		t := r.Row(k)
		ok := true
		for i, v := range r.Scope {
			if t[i] != assignment[v] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// SolveBacktracking finds one solution by chronological backtracking with
// forward constraint checking, the baseline the decomposition solvers are
// validated against. It returns (solution, true) or (nil, false).
func (c *CSP) SolveBacktracking() ([]int, bool) {
	var sol []int
	c.backtrack(make([]int, c.NumVars()), 0, func(a []int) bool {
		sol = append([]int(nil), a...)
		return false // stop at first
	})
	return sol, sol != nil
}

// CountSolutions returns the number of complete consistent assignments.
func (c *CSP) CountSolutions() int {
	count := 0
	c.backtrack(make([]int, c.NumVars()), 0, func([]int) bool {
		count++
		return true
	})
	return count
}

// backtrack assigns variables in index order; emit is called on each
// solution and returns false to stop the search.
func (c *CSP) backtrack(partial []int, v int, emit func([]int) bool) bool {
	if v == c.NumVars() {
		return emit(partial)
	}
	for _, val := range c.Domains[v] {
		partial[v] = val
		if c.consistentPrefix(partial, v) {
			if !c.backtrack(partial, v+1, emit) {
				return false
			}
		}
	}
	return true
}

// consistentPrefix checks all constraints whose scope is fully within the
// assigned prefix 0..v.
func (c *CSP) consistentPrefix(partial []int, v int) bool {
	for _, con := range c.Constraints {
		maxVar := -1
		for _, s := range con.Rel.Scope {
			if s > maxVar {
				maxVar = s
			}
		}
		if maxVar != v {
			continue // checked earlier or not yet fully assigned
		}
		if !con.Rel.allows(partial) {
			return false
		}
	}
	return true
}
