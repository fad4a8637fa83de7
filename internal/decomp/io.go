package decomp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hypertree/internal/bitset"
	"hypertree/internal/hypergraph"
)

// WriteTD writes the decomposition in the PACE .td solution format:
//
//	s td <bags> <max bag size> <vertices>
//	b <bag id> <v1> <v2> …
//	<bag id> <bag id>          (tree edges)
//
// Bag ids and vertex ids are 1-based.
func (d *Decomposition) WriteTD(w io.Writer) error {
	bw := bufio.NewWriter(w)
	maxBag := 0
	for _, n := range d.nodes {
		if l := n.Chi.Len(); l > maxBag {
			maxBag = l
		}
	}
	fmt.Fprintf(bw, "s td %d %d %d\n", len(d.nodes), maxBag, d.H.NumVertices())
	for i, n := range d.nodes {
		fmt.Fprintf(bw, "b %d", i+1)
		n.Chi.ForEach(func(v int) bool {
			fmt.Fprintf(bw, " %d", v+1)
			return true
		})
		fmt.Fprintln(bw)
	}
	for i, n := range d.nodes {
		for _, c := range n.Children {
			fmt.Fprintf(bw, "%d %d\n", i+1, indexOf(d.nodes, c)+1)
		}
	}
	return bw.Flush()
}

func indexOf(nodes []*Node, n *Node) int {
	for i, m := range nodes {
		if m == n {
			return i
		}
	}
	return -1
}

// ParseTD reads a PACE .td file as a tree decomposition of h. The parsed
// decomposition is rooted at the first bag; it is NOT validated — call
// ValidateTD to check it against h.
func ParseTD(r io.Reader, h *hypergraph.Hypergraph) (*Decomposition, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows to the 1 MiB line cap only for lines that need it
	var bags []*bitset.Set
	var treeEdges [][2]int
	declared := -1
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] == "c" {
			continue
		}
		switch fields[0] {
		case "s":
			if len(fields) < 5 || fields[1] != "td" {
				return nil, fmt.Errorf("td: line %d: malformed solution line", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("td: line %d: bad bag count", line)
			}
			declared = n
			bags = make([]*bitset.Set, n)
		case "b":
			if declared < 0 {
				return nil, fmt.Errorf("td: line %d: bag before solution line", line)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("td: line %d: malformed bag line", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 1 || id > declared {
				return nil, fmt.Errorf("td: line %d: bad bag id", line)
			}
			set := bitset.New(h.NumVertices())
			for _, f := range fields[2:] {
				v, err := strconv.Atoi(f)
				if err != nil || v < 1 || v > h.NumVertices() {
					return nil, fmt.Errorf("td: line %d: bad vertex %q", line, f)
				}
				set.Add(v - 1)
			}
			bags[id-1] = set
		default:
			if declared < 0 {
				return nil, fmt.Errorf("td: line %d: edge before solution line", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("td: line %d: malformed tree edge", line)
			}
			a, err1 := strconv.Atoi(fields[0])
			b, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil || a < 1 || b < 1 || a > declared || b > declared {
				return nil, fmt.Errorf("td: line %d: bad tree edge", line)
			}
			treeEdges = append(treeEdges, [2]int{a - 1, b - 1})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("td: %w", err)
	}
	if declared < 0 {
		return nil, fmt.Errorf("td: missing solution line")
	}
	for i, b := range bags {
		if b == nil {
			return nil, fmt.Errorf("td: bag %d not declared", i+1)
		}
	}

	// Build adjacency and root at bag 0.
	adj := make([][]int, declared)
	for _, e := range treeEdges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	d := New(h)
	if declared == 0 {
		return d, nil
	}
	nodes := make([]*Node, declared)
	visited := make([]bool, declared)
	var build func(i int, parent *Node)
	build = func(i int, parent *Node) {
		visited[i] = true
		nodes[i] = d.AddNode(bags[i], parent)
		for _, j := range adj[i] {
			if !visited[j] {
				build(j, nodes[i])
			}
		}
	}
	build(0, nil)
	for i, v := range visited {
		if !v {
			return nil, fmt.Errorf("td: bag %d disconnected from bag 1", i+1)
		}
	}
	return d, nil
}

// WriteDOT writes the decomposition as a Graphviz digraph: one record node
// per decomposition node showing its χ (and λ when present).
func (d *Decomposition) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph decomposition {")
	fmt.Fprintln(bw, "  node [shape=box, fontname=\"monospace\"];")
	for i, n := range d.nodes {
		var label strings.Builder
		label.WriteString("χ: ")
		first := true
		n.Chi.ForEach(func(v int) bool {
			if !first {
				label.WriteString(", ")
			}
			first = false
			label.WriteString(d.H.VertexName(v))
			return true
		})
		if n.Lambda != nil {
			label.WriteString("\\nλ: ")
			for j, e := range n.Lambda {
				if j > 0 {
					label.WriteString(", ")
				}
				label.WriteString(d.H.EdgeName(e))
			}
		}
		fmt.Fprintf(bw, "  n%d [label=\"%s\"];\n", i, label.String())
	}
	for i, n := range d.nodes {
		for _, c := range n.Children {
			fmt.Fprintf(bw, "  n%d -> n%d;\n", i, indexOf(d.nodes, c))
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
