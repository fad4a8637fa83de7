package csp

import (
	"fmt"
	"time"

	"hypertree/internal/decomp"
	"hypertree/internal/telemetry"
)

// SolveFromTD solves the CSP from a tree decomposition of its constraint
// hypergraph using Join Tree Clustering (§2.4): every constraint is placed
// at a node covering its scope, every node's subproblem is solved
// exhaustively over its χ variables (O(d^{k+1}) per node), and the
// resulting join tree of subproblem relations is processed by Acyclic
// Solving. It returns (solution, satisfiable, error); the error reports a
// decomposition that does not belong to this CSP.
func SolveFromTD(c *CSP, d *decomp.Decomposition) ([]int, bool, error) {
	return SolveFromTDStats(c, d, nil)
}

// SolveFromTDStats is SolveFromTD with latency telemetry: each node's
// subproblem enumeration and the two semijoin sweeps of Acyclic Solving
// land in st's join/semijoin batch histogram. A nil st is free beyond one
// check per batch, and telemetry never changes the result.
func SolveFromTDStats(c *CSP, d *decomp.Decomposition, st *telemetry.Stats) ([]int, bool, error) {
	if err := d.ValidateTD(); err != nil {
		return nil, false, fmt.Errorf("csp: invalid tree decomposition: %w", err)
	}
	if d.H.NumVertices() != c.NumVars() || d.H.NumEdges() != len(c.Constraints) {
		return nil, false, fmt.Errorf("csp: decomposition hypergraph does not match CSP shape")
	}

	// Step 1: place each constraint at one covering node.
	placed := make(map[*decomp.Node][]*Constraint)
	for e, con := range c.Constraints {
		es := d.H.EdgeSet(e)
		var host *decomp.Node
		for _, n := range d.Nodes() {
			if es.SubsetOf(n.Chi) {
				host = n
				break
			}
		}
		if host == nil {
			return nil, false, fmt.Errorf("csp: constraint %s not covered by decomposition", con.Name)
		}
		placed[host] = append(placed[host], con)
	}

	// Step 2: solve each node's subproblem by enumerating assignments over
	// its χ variables consistent with the placed constraints.
	nodeRel := make(map[*decomp.Node]*Relation, d.NumNodes())
	for _, n := range d.Nodes() {
		t0 := time.Now()
		rel, err := enumerateSubproblem(c, n.Chi.Slice(), placed[n])
		st.Observe(telemetry.CQBatchNs, time.Since(t0))
		if err != nil {
			return nil, false, err
		}
		if rel.Size() == 0 && len(rel.Scope) > 0 {
			return nil, false, nil // some subproblem is unsatisfiable
		}
		nodeRel[n] = rel
	}

	sol, ok := acyclicOverDecomposition(c, d, nodeRel, st)
	return sol, ok, nil
}

// SolveFromGHD solves the CSP from a generalized hypertree decomposition
// (Fig. 2.9): after completing the decomposition, every node's relation is
// R_p = π_{χ(p)}(⋈_{h∈λ(p)} R_h) — polynomial in the size of the instance
// for fixed width — and Acyclic Solving finishes the job.
func SolveFromGHD(c *CSP, d *decomp.Decomposition) ([]int, bool, error) {
	return SolveFromGHDStats(c, d, nil)
}

// SolveFromGHDStats is SolveFromGHD with latency telemetry: each node's
// λ-join batch and the two semijoin sweeps of Acyclic Solving land in st's
// join/semijoin batch histogram. A nil st is free beyond one check per
// batch, and telemetry never changes the result.
func SolveFromGHDStats(c *CSP, d *decomp.Decomposition, st *telemetry.Stats) ([]int, bool, error) {
	if err := d.ValidateGHD(); err != nil {
		return nil, false, fmt.Errorf("csp: invalid generalized hypertree decomposition: %w", err)
	}
	if d.H.NumVertices() != c.NumVars() || d.H.NumEdges() != len(c.Constraints) {
		return nil, false, fmt.Errorf("csp: decomposition hypergraph does not match CSP shape")
	}
	d.Complete() // Lemma 2: needed for solution equivalence

	nodeRel := make(map[*decomp.Node]*Relation, d.NumNodes())
	for _, n := range d.Nodes() {
		chi := n.Chi.Slice()
		if len(n.Lambda) == 0 {
			// χ holds only unconstrained variables (or nothing): they get
			// default values in the final assembly. The node's relation is
			// the universal relation over the empty scope (one empty
			// tuple), NOT the empty relation (which would mean unsat).
			nodeRel[n] = &Relation{Tuples: [][]int{{}}}
			continue
		}
		t0 := time.Now()
		joined := c.Constraints[n.Lambda[0]].Rel.Clone()
		for _, e := range n.Lambda[1:] {
			joined = Join(joined, c.Constraints[e].Rel)
			if joined.Size() == 0 {
				break
			}
		}
		rel := Project(joined, chi)
		st.Observe(telemetry.CQBatchNs, time.Since(t0))
		if rel.Size() == 0 && len(chi) > 0 {
			return nil, false, nil
		}
		nodeRel[n] = rel
	}

	sol, ok := acyclicOverDecomposition(c, d, nodeRel, st)
	return sol, ok, nil
}

// enumerateSubproblem finds all assignments of the given variables that
// satisfy every listed constraint (whose scopes are subsets of vars).
func enumerateSubproblem(c *CSP, vars []int, cons []*Constraint) (*Relation, error) {
	rel := &Relation{Scope: append([]int(nil), vars...)}
	if len(vars) == 0 {
		rel.Tuples = [][]int{{}} // universal relation over the empty scope
		return rel, nil
	}
	pos := make(map[int]int, len(vars))
	for i, v := range vars {
		pos[v] = i
	}
	for _, con := range cons {
		for _, s := range con.Rel.Scope {
			if _, ok := pos[s]; !ok {
				return nil, fmt.Errorf("csp: constraint %s scope leaves node variables", con.Name)
			}
		}
	}
	row := make([]int, len(vars))
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			rel.Tuples = append(rel.Tuples, append([]int(nil), row...))
			return
		}
		for _, val := range c.Domains[vars[i]] {
			row[i] = val
			ok := true
			for _, con := range cons {
				// Check once the constraint's last scope variable (in vars
				// order) is assigned.
				last := -1
				for _, s := range con.Rel.Scope {
					if pos[s] > last {
						last = pos[s]
					}
				}
				if last != i {
					continue
				}
				if !satisfiedAt(con, row, pos) {
					ok = false
					break
				}
			}
			if ok {
				rec(i + 1)
			}
		}
	}
	rec(0)
	return rel, nil
}

// satisfiedAt checks a constraint against a node-local row.
func satisfiedAt(con *Constraint, row []int, pos map[int]int) bool {
	for _, t := range con.Rel.Tuples {
		ok := true
		for i, s := range con.Rel.Scope {
			if row[pos[s]] != t[i] {
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

// acyclicOverDecomposition runs the Acyclic Solving passes over the
// decomposition tree with per-node relations. Each semijoin sweep is one
// observed batch on st (nil-safe).
func acyclicOverDecomposition(c *CSP, d *decomp.Decomposition, nodeRel map[*decomp.Node]*Relation, st *telemetry.Stats) ([]int, bool) {
	// Bottom-up semijoins.
	t0 := time.Now()
	post := postorderNodes(d)
	for _, n := range post {
		if n.Parent == nil {
			continue
		}
		p := nodeRel[n.Parent]
		nr := nodeRel[n]
		if len(p.Scope) == 0 {
			// Empty parent label: satisfiability hinges on n alone.
			if nr.Size() == 0 && len(nr.Scope) > 0 {
				return nil, false
			}
			continue
		}
		joined := Semijoin(p, nr)
		nodeRel[n.Parent] = joined
		if joined.Size() == 0 {
			return nil, false
		}
	}
	st.Observe(telemetry.CQBatchNs, time.Since(t0))

	// Top-down semijoins for directional consistency.
	t0 = time.Now()
	pre := preorderNodes(d)
	for _, n := range pre {
		for _, ch := range n.Children {
			if len(nodeRel[n].Scope) == 0 || len(nodeRel[ch].Scope) == 0 {
				continue
			}
			nodeRel[ch] = Semijoin(nodeRel[ch], nodeRel[n])
			if nodeRel[ch].Size() == 0 {
				return nil, false
			}
		}
	}
	st.Observe(telemetry.CQBatchNs, time.Since(t0))

	// Top-down selection.
	assignment := make([]int, c.NumVars())
	assigned := make([]bool, c.NumVars())
	for _, n := range pre {
		r := nodeRel[n]
		if len(r.Scope) == 0 {
			continue
		}
		chosen := -1
		for ti, t := range r.Tuples {
			ok := true
			for i, v := range r.Scope {
				if assigned[v] && assignment[v] != t[i] {
					ok = false
					break
				}
			}
			if ok {
				chosen = ti
				break
			}
		}
		if chosen < 0 {
			return nil, false
		}
		for i, v := range r.Scope {
			assignment[v] = r.Tuples[chosen][i]
			assigned[v] = true
		}
	}
	for v := range assignment {
		if !assigned[v] {
			if len(c.Domains[v]) == 0 {
				return nil, false
			}
			assignment[v] = c.Domains[v][0]
		}
	}
	return assignment, true
}

func postorderNodes(d *decomp.Decomposition) []*decomp.Node {
	var out []*decomp.Node
	var rec func(n *decomp.Node)
	rec = func(n *decomp.Node) {
		for _, c := range n.Children {
			rec(c)
		}
		out = append(out, n)
	}
	rec(d.Root)
	return out
}

func preorderNodes(d *decomp.Decomposition) []*decomp.Node {
	var out []*decomp.Node
	var rec func(n *decomp.Node)
	rec = func(n *decomp.Node) {
		out = append(out, n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(d.Root)
	return out
}
