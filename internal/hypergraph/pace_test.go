package hypergraph

import (
	"bufio"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// The line readers start with a small buffer and grow it to their 1 MiB
// line cap: a line past bufio's 64 KiB default parses, and a line past
// 1 MiB fails with bufio.ErrTooLong.
func TestParsersLineCap(t *testing.T) {
	long := "c " + strings.Repeat("x", 100<<10) + "\n"
	huge := "c " + strings.Repeat("x", 1<<20) + "\n"
	for _, p := range []struct {
		name  string
		parse func(string) (*Graph, error)
		body  string
	}{
		{"dimacs", func(s string) (*Graph, error) { return ParseDIMACS(strings.NewReader(s)) }, "p edge 2 1\ne 1 2\n"},
		{"pace", func(s string) (*Graph, error) { return ParsePACE(strings.NewReader(s)) }, "p tw 2 1\n1 2\n"},
	} {
		if g, err := p.parse(long + p.body); err != nil || g.NumEdges() != 1 {
			t.Errorf("%s: a 100 KiB comment line: %v", p.name, err)
		}
		_, err := p.parse(huge + p.body)
		if want := p.name + ": " + bufio.ErrTooLong.Error(); !errors.Is(err, bufio.ErrTooLong) || err.Error() != want {
			t.Errorf("%s: a line past 1 MiB: error %v, want %q", p.name, err, want)
		}
	}
}

func TestParsePACE(t *testing.T) {
	in := `c example
p tw 4 3
1 2
2 3
3 4
`
	g, err := ParsePACE(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("shape %d/%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatal("edges missing")
	}
}

func TestParsePACEErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"1 2\n",
		"p tw x 1\n",
		"p edge 2 1\n1 2\n",
		"p tw 2 1\n1 5\n",
		"p tw 2 1\n1 2 3\n",
	} {
		if _, err := ParsePACE(strings.NewReader(in)); err == nil {
			t.Fatalf("ParsePACE(%q) succeeded", in)
		}
	}
}

func TestPACERoundTrip(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 3)
	g.AddEdge(1, 4)
	g.AddEdge(2, 3)
	var sb strings.Builder
	if err := WritePACE(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ParsePACE(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("PACE round trip mismatch")
	}
}

func TestGYOAcyclic(t *testing.T) {
	// Chain of overlapping edges: acyclic.
	b := NewBuilder()
	b.AddEdge("e1", "a", "b", "c")
	b.AddEdge("e2", "c", "d")
	b.AddEdge("e3", "d", "e", "f")
	if !b.Build().IsAcyclic() {
		t.Fatal("chain must be α-acyclic")
	}
	// The thesis's Example 5 hypergraph is a 3-cycle of ternary edges:
	// cyclic.
	b2 := NewBuilder()
	b2.AddEdge("C1", "x1", "x2", "x3")
	b2.AddEdge("C2", "x1", "x5", "x6")
	b2.AddEdge("C3", "x3", "x4", "x5")
	if b2.Build().IsAcyclic() {
		t.Fatal("example 5 must be cyclic")
	}
	// Triangle of binary edges: cyclic.
	b3 := NewBuilder()
	b3.AddEdge("ab", "a", "b")
	b3.AddEdge("bc", "b", "c")
	b3.AddEdge("ca", "c", "a")
	if b3.Build().IsAcyclic() {
		t.Fatal("triangle must be cyclic")
	}
	// Triangle PLUS a covering ternary edge: α-acyclic (the hallmark of
	// α-acyclicity being non-hereditary).
	b4 := NewBuilder()
	b4.AddEdge("ab", "a", "b")
	b4.AddEdge("bc", "b", "c")
	b4.AddEdge("ca", "c", "a")
	b4.AddEdge("abc", "a", "b", "c")
	if !b4.Build().IsAcyclic() {
		t.Fatal("covered triangle must be α-acyclic")
	}
}

func TestGYOSingleEdge(t *testing.T) {
	b := NewBuilder()
	b.AddEdge("e", "x", "y", "z")
	if !b.Build().IsAcyclic() {
		t.Fatal("single edge must be acyclic")
	}
}
