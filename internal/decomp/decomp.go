// Package decomp defines tree decompositions and generalized hypertree
// decompositions (thesis ch. 2.3), their validation, width measures, the
// completion transform (Lemma 2 / Def. 14), and the leaf-normal-form
// transform with dca-ordering extraction (thesis ch. 3) that proves
// elimination orderings form a search space for generalized hypertree width.
package decomp

import (
	"fmt"
	"strings"

	"hypertree/internal/bitset"
	"hypertree/internal/hypergraph"
)

// Node is one vertex of a (generalized hyper)tree decomposition.
type Node struct {
	ID       int
	Chi      *bitset.Set // χ(p): vertices of the hypergraph
	Lambda   []int       // λ(p): hyperedge indices covering Chi (nil for plain TDs)
	Parent   *Node
	Children []*Node
}

// Decomposition is a rooted tree decomposition ⟨T, χ⟩, optionally with λ
// labels making it a generalized hypertree decomposition ⟨T, χ, λ⟩, of a
// fixed hypergraph.
type Decomposition struct {
	H     *hypergraph.Hypergraph
	Root  *Node
	nodes []*Node
}

// New returns an empty decomposition of h.
func New(h *hypergraph.Hypergraph) *Decomposition {
	return &Decomposition{H: h}
}

// AddNode creates a node with the given χ label. The first node added
// becomes the root. The node is detached unless parent is non-nil.
func (d *Decomposition) AddNode(chi *bitset.Set, parent *Node) *Node {
	n := &Node{ID: len(d.nodes), Chi: chi}
	d.nodes = append(d.nodes, n)
	if d.Root == nil {
		d.Root = n
	}
	if parent != nil {
		n.Parent = parent
		parent.Children = append(parent.Children, n)
	}
	return n
}

// Nodes returns all nodes in creation order. The slice must not be modified.
func (d *Decomposition) Nodes() []*Node { return d.nodes }

// NumNodes returns the number of decomposition nodes.
func (d *Decomposition) NumNodes() int { return len(d.nodes) }

// Width returns the tree-decomposition width: max |χ(p)| − 1.
func (d *Decomposition) Width() int {
	w := -1
	for _, n := range d.nodes {
		if l := n.Chi.Len() - 1; l > w {
			w = l
		}
	}
	return w
}

// GHWidth returns the generalized-hypertree width: max |λ(p)|. It panics if
// any node lacks a λ label.
func (d *Decomposition) GHWidth() int {
	w := 0
	for _, n := range d.nodes {
		if n.Lambda == nil && !n.Chi.Empty() {
			panic("decomp: GHWidth on node without λ label")
		}
		if len(n.Lambda) > w {
			w = len(n.Lambda)
		}
	}
	return w
}

// ValidateTD checks the two tree-decomposition conditions (Def. 11):
//  1. every hyperedge of H is contained in some χ(p);
//  2. for every vertex, the nodes containing it induce a connected subtree.
//
// It also checks structural soundness of the tree itself.
func (d *Decomposition) ValidateTD() error {
	if err := d.validateTree(); err != nil {
		return err
	}
	// Condition 1.
	for e := 0; e < d.H.NumEdges(); e++ {
		es := d.H.EdgeSet(e)
		found := false
		for _, n := range d.nodes {
			if es.SubsetOf(n.Chi) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("decomp: hyperedge %s not covered by any χ label", d.H.EdgeName(e))
		}
	}
	// Condition 2 (connectedness), in one counting pass: the nodes holding
	// v induce a subtree of the tree iff they have exactly one tree edge
	// fewer between them than they number. A BFS runs only to word the
	// error.
	holders := make([]int, d.H.NumVertices())
	edges := make([]int, d.H.NumVertices())
	for _, n := range d.nodes {
		n.Chi.ForEach(func(v int) bool {
			if v < len(holders) {
				holders[v]++
				if n.Parent != nil && n.Parent.Chi.Contains(v) {
					edges[v]++
				}
			}
			return true
		})
	}
	for v, k := range holders {
		if k > 0 && edges[v] != k-1 {
			if err := d.checkConnected(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// ValidateGHD checks ValidateTD plus the third GHD condition (Def. 13):
// χ(p) ⊆ var(λ(p)) for every node. Vertices occurring in no hyperedge are
// unconstrained and exempt from the cover requirement (matching the
// set-cover solver's semantics).
func (d *Decomposition) ValidateGHD() error {
	if err := d.ValidateTD(); err != nil {
		return err
	}
	coverable := bitset.New(d.H.NumVertices())
	for e := 0; e < d.H.NumEdges(); e++ {
		coverable.UnionWith(d.H.EdgeSet(e))
	}
	for _, n := range d.nodes {
		cover := bitset.New(d.H.NumVertices())
		for _, e := range n.Lambda {
			if e < 0 || e >= d.H.NumEdges() {
				return fmt.Errorf("decomp: node %d has invalid λ edge index %d", n.ID, e)
			}
			cover.UnionWith(d.H.EdgeSet(e))
		}
		need := n.Chi.Clone()
		need.IntersectWith(coverable)
		if !need.SubsetOf(cover) {
			return fmt.Errorf("decomp: node %d: χ ⊄ var(λ)", n.ID)
		}
	}
	return nil
}

// IsComplete reports whether for every hyperedge h there is a node p with
// h ⊆ χ(p) and h ∈ λ(p) (Def. 14).
func (d *Decomposition) IsComplete() bool {
	for e := 0; e < d.H.NumEdges(); e++ {
		es := d.H.EdgeSet(e)
		found := false
		for _, n := range d.nodes {
			if !es.SubsetOf(n.Chi) {
				continue
			}
			for _, le := range n.Lambda {
				if le == e {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Complete transforms a valid GHD into a complete GHD (Lemma 2): for each
// hyperedge h not yet "owned" by a node, a child node with χ = h, λ = {h}
// is attached beneath a node whose χ contains h. Width never increases
// (the new nodes have |λ| = 1). The receiver is modified in place.
func (d *Decomposition) Complete() {
	for e := 0; e < d.H.NumEdges(); e++ {
		es := d.H.EdgeSet(e)
		owned := false
		var host *Node
		for _, n := range d.nodes {
			if !es.SubsetOf(n.Chi) {
				continue
			}
			if host == nil {
				host = n
			}
			for _, le := range n.Lambda {
				if le == e {
					owned = true
					break
				}
			}
			if owned {
				break
			}
		}
		if owned {
			continue
		}
		if host == nil {
			// Caller violated condition 1; surface loudly.
			panic(fmt.Sprintf("decomp: Complete on invalid decomposition: edge %d uncovered", e))
		}
		leaf := d.AddNode(es.Clone(), host)
		leaf.Lambda = []int{e}
	}
}

// validateTree checks that the node set forms a single rooted tree with
// consistent parent/child pointers.
func (d *Decomposition) validateTree() error {
	if d.Root == nil {
		return fmt.Errorf("decomp: empty decomposition")
	}
	seen := make(map[*Node]bool, len(d.nodes))
	var walk func(n *Node) error
	var walkErr error
	var rec func(n *Node)
	rec = func(n *Node) {
		if walkErr != nil {
			return
		}
		if seen[n] {
			walkErr = fmt.Errorf("decomp: node %d reachable twice (cycle?)", n.ID)
			return
		}
		seen[n] = true
		for _, c := range n.Children {
			if c.Parent != n {
				walkErr = fmt.Errorf("decomp: node %d has inconsistent parent pointer", c.ID)
				return
			}
			rec(c)
		}
	}
	walk = func(n *Node) error { rec(n); return walkErr }
	if err := walk(d.Root); err != nil {
		return err
	}
	if d.Root.Parent != nil {
		return fmt.Errorf("decomp: root has a parent")
	}
	if len(seen) != len(d.nodes) {
		return fmt.Errorf("decomp: %d of %d nodes unreachable from root", len(d.nodes)-len(seen), len(d.nodes))
	}
	return nil
}

// checkConnected verifies the connectedness condition for one vertex by a
// BFS over the tree edges between its holders, and words the error.
func (d *Decomposition) checkConnected(v int) error {
	var first *Node
	count := 0
	for _, n := range d.nodes {
		if n.Chi.Contains(v) {
			count++
			if first == nil {
				first = n
			}
		}
	}
	if count <= 1 {
		return nil
	}
	// BFS over tree edges restricted to nodes containing v.
	reached := map[*Node]bool{first: true}
	queue := []*Node{first}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		var adj []*Node
		if n.Parent != nil {
			adj = append(adj, n.Parent)
		}
		adj = append(adj, n.Children...)
		for _, m := range adj {
			if m.Chi.Contains(v) && !reached[m] {
				reached[m] = true
				queue = append(queue, m)
			}
		}
	}
	if len(reached) != count {
		return fmt.Errorf("decomp: vertex %s violates connectedness (%d of %d nodes reachable)",
			d.H.VertexName(v), len(reached), count)
	}
	return nil
}

// String renders the decomposition as an indented tree for debugging.
func (d *Decomposition) String() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "node %d χ=%s", n.ID, chiNames(d.H, n.Chi))
		if n.Lambda != nil {
			b.WriteString(" λ={")
			for i, e := range n.Lambda {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(d.H.EdgeName(e))
			}
			b.WriteString("}")
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	if d.Root != nil {
		rec(d.Root, 0)
	}
	return b.String()
}

func chiNames(h *hypergraph.Hypergraph, s *bitset.Set) string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(v int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(h.VertexName(v))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
