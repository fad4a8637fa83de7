// CSP solving on the query engine's dataflow: a CSP is a Boolean
// conjunctive query whose atoms are its constraints (thesis ch. 2), so it
// runs the same flow as query evaluation.
package cq

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"slices"

	"hypertree/internal/bitset"
	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
)

// SolveCSP solves c over d and returns one solution, or ok=false when c is
// unsatisfiable. d is a decomposition of c.Hypergraph(): a GHD, whose
// nodes join their λ constraints (Fig. 2.9), or else a tree decomposition,
// whose nodes enumerate their bags (Join Tree Clustering, §2.4); see
// cspFlow. c must validate. On cancellation it returns the context's
// error and no solution.
func SolveCSP(ctx context.Context, c *csp.CSP, d *decomp.Decomposition, opt EvalOptions) ([]int, bool, error) {
	f, err := cspFlow(ctx, c, d, opt)
	if err != nil {
		return nil, false, err
	}
	if sat, err := f.reduce(ctx, true); err != nil || !sat {
		return nil, false, err
	}
	return f.witness(c), true, nil
}

// CountCSP counts the solutions of c over d, read as SolveCSP reads it. It
// returns an error when the count overflows int, and on cancellation the
// context's error and no count.
func CountCSP(ctx context.Context, c *csp.CSP, d *decomp.Decomposition, opt EvalOptions) (int, error) {
	f, err := cspFlow(ctx, c, d, opt)
	if err != nil {
		return 0, err
	}
	if ok, err := f.basePass(ctx); !ok {
		return 0, err
	}
	return f.count(ctx, c)
}

var errCountOverflow = errors.New("cq: solution count overflows int")

// cspFlow builds the flow of c over d. When d has the shape of c's
// constraint hypergraph but is no GHD of it, it is read as a tree
// decomposition (tdLabels).
func cspFlow(ctx context.Context, c *csp.CSP, d *decomp.Decomposition, opt EvalOptions) (*flow, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := newFlow(cspInstance(c, constraintHypergraph(c, d.H)), d, nil, opt)
	if err == nil || errors.Is(err, errPlanShape) {
		return f, err
	}
	in, td := tdLabels(c, d)
	return newFlow(in, td, nil, opt)
}

// constraintHypergraph returns h when it is c's constraint hypergraph —
// one vertex per variable and, in order, one edge per constraint scope —
// and builds that hypergraph otherwise, so that a plan made from
// c.Hypergraph() does not build it again.
func constraintHypergraph(c *csp.CSP, h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	same := h.NumVertices() == c.NumVars() && h.NumEdges() == len(c.Constraints)
	for e := 0; same && e < h.NumEdges(); e++ {
		scope, es := c.Constraints[e].Rel.Scope, h.EdgeSet(e)
		same = es.Len() == len(scope)
		for _, v := range scope {
			same = same && es.Contains(v)
		}
	}
	if same {
		return h
	}
	return c.Hypergraph()
}

// cspInstance is the flow instance of c over h, its constraint hypergraph,
// with one atom per constraint.
func cspInstance(c *csp.CSP, h *hypergraph.Hypergraph) *instance {
	in := &instance{h: h}
	for _, con := range c.Constraints {
		in.atomRel = append(in.atomRel, con.Rel)
	}
	return in
}

// tdLabels reads d as a tree decomposition of c. It adds to c one unary
// constraint dom(v), v's domain, for every variable v some χ holds, and
// returns that CSP's instance with a GHD copy of d. Each constraint of c is
// placed at the first node whose χ covers its scope, and the copy of a
// node with χ = {v₁ < … < v_k} gets λ = dom(v₁), the constraints placed
// there whose last variable is v₁, dom(v₂), …: its base relation is then
// the bag's assignments that satisfy its constraints, in the order
// enumerating the domains in χ order lists them.
func tdLabels(c *csp.CSP, d *decomp.Decomposition) (*instance, *decomp.Decomposition) {
	withDom := &csp.CSP{VarNames: c.VarNames, Domains: c.Domains, Constraints: slices.Clone(c.Constraints)}
	held := bitset.New(c.NumVars())
	for _, n := range d.Nodes() {
		held.UnionWith(n.Chi)
	}
	dom := map[int]int{} // variable → its domain constraint
	held.ForEach(func(v int) bool {
		if v < c.NumVars() {
			rows := make([][]int, len(c.Domains[v]))
			for i, x := range c.Domains[v] {
				rows[i] = []int{x}
			}
			dom[v] = len(withDom.Constraints)
			withDom.Constraints = append(withDom.Constraints, &csp.Constraint{
				Name: "dom(" + c.VarNames[v] + ")", Rel: csp.NewRelation([]int{v}, rows),
			})
		}
		return true
	})
	in := cspInstance(withDom, withDom.Hypergraph())

	placed := map[*decomp.Node][]int{}
	for e := range c.Constraints {
		for _, n := range d.Nodes() {
			if in.h.EdgeSet(e).SubsetOf(n.Chi) {
				placed[n] = append(placed[n], e)
				break
			}
		}
	}
	td := decomp.New(in.h)
	var label func(n, parent *decomp.Node)
	label = func(n, parent *decomp.Node) {
		m := td.AddNode(n.Chi, parent)
		m.Lambda = []int{}
		n.Chi.ForEach(func(v int) bool {
			if a, ok := dom[v]; ok {
				m.Lambda = append(m.Lambda, a)
			}
			for _, e := range placed[n] {
				if in.h.EdgeSet(e).Max() == v {
					m.Lambda = append(m.Lambda, e)
				}
			}
			return true
		})
		for _, ch := range n.Children {
			label(ch, m)
		}
	}
	if d.Root != nil {
		label(d.Root, nil)
	}
	return in, td
}

// witness picks one solution from the fully reduced relations, Acyclic
// Solving's top-down pass: in preorder, each node fixes the variables of
// its first tuple that agrees with the values fixed so far, and variables
// in no node relation take their first domain value. Full reduction over
// a valid tree leaves every node such a tuple.
func (f *flow) witness(c *csp.CSP) []int {
	sol := make([]int, c.NumVars())
	fixed := make([]bool, c.NumVars())
	var pick func(n *decomp.Node)
	pick = func(n *decomp.Node) {
		r := f.down[f.idx[n]]
	tuples:
		for k := 0; k < r.Size(); k++ {
			t := r.Row(k)
			for i, v := range r.Scope {
				if fixed[v] && sol[v] != t[i] {
					continue tuples
				}
			}
			for i, v := range r.Scope {
				sol[v], fixed[v] = t[i], true
			}
			break
		}
		for _, ch := range n.Children {
			pick(ch)
		}
	}
	pick(f.nodes[f.root])
	for v := range sol {
		if !fixed[v] {
			sol[v] = c.Domains[v][0]
		}
	}
	return sol
}

// count runs the counting pass over the base layer: bottom-up, each tuple
// of a node carries the number of its extensions to the variables below
// it, the product over the node's children of the summed counts of the
// child tuples it joins with (csp.GroupSum). Connectedness makes a child's
// overlap with the rest of the tree pass through its parent, so the
// per-child sums multiply.
func (f *flow) count(ctx context.Context, c *csp.CSP) (int, error) {
	counts := make([][]int, len(f.nodes))
	tr, track := f.opt.Trace, f.opt.Track
	tr.Begin(track, "cq.count")
	err := f.walk(ctx, true, nil, func(nodes []int) error {
		return runTasks(ctx, f.opt, len(nodes), func(k int) error {
			i := nodes[k]
			w := make([]int, f.base[i].Size())
			for t := range w {
				w[t] = 1
			}
			for _, ch := range f.nodes[i].Children {
				j := f.idx[ch]
				sums, ok := csp.GroupSum(f.base[i], f.base[j], counts[j])
				for t := 0; ok && t < len(w); t++ {
					w[t], ok = mulCount(w[t], sums[t])
				}
				if !ok {
					return errCountOverflow
				}
			}
			counts[i] = w
			return nil
		})
	})
	tr.End(track, "cq.count")
	if err != nil {
		return 0, err
	}
	// The count is the root's group sum against the empty-scope relation,
	// times the domain size of each variable in no node relation: those are
	// unconstrained.
	total, ok := csp.GroupSum(csp.NewRelation(nil, [][]int{{}}), f.base[f.root], counts[f.root])
	inScope := make([]bool, c.NumVars())
	for _, r := range f.base {
		for _, v := range r.Scope {
			inScope[v] = true
		}
	}
	for v := 0; ok && v < len(inScope); v++ {
		if !inScope[v] {
			total[0], ok = mulCount(total[0], len(c.Domains[v]))
		}
	}
	if !ok {
		return 0, errCountOverflow
	}
	return total[0], nil
}

// mulCount returns a·b for non-negative counts, false on int overflow.
func mulCount(a, b int) (int, bool) {
	hi, lo := bits.Mul(uint(a), uint(b))
	return int(lo), hi == 0 && lo <= math.MaxInt
}
