package hypergraph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// MaxParseVertices caps the vertex count a graph file header may declare.
// The cap keeps a hostile few-byte header ("p edge 999999999 0") from
// forcing gigabytes of allocation before any edge is read.
const MaxParseVertices = 1 << 20

// ParseDIMACS reads a graph in DIMACS graph-colouring format:
//
//	c comment
//	p edge <vertices> <edges>
//	e <u> <v>
//
// Vertex numbers in the file are 1-based; they are mapped to 0-based indices
// and named after their 1-based number. Headers declaring more than
// MaxParseVertices vertices are rejected.
func ParseDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows to the 1 MiB line cap only for lines that need it
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "c":
			// comment
		case "p":
			if len(fields) < 4 || (fields[1] != "edge" && fields[1] != "col") {
				return nil, fmt.Errorf("dimacs: line %d: malformed problem line", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("dimacs: line %d: bad vertex count", line)
			}
			if n > MaxParseVertices {
				return nil, fmt.Errorf("dimacs: line %d: vertex count %d exceeds limit %d", line, n, MaxParseVertices)
			}
			g = NewGraph(n)
			for i := 0; i < n; i++ {
				g.SetName(i, strconv.Itoa(i+1))
			}
		case "e":
			if g == nil {
				return nil, fmt.Errorf("dimacs: line %d: edge before problem line", line)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("dimacs: line %d: malformed edge line", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad edge endpoints", line)
			}
			if u < 1 || u > g.NumVertices() || v < 1 || v > g.NumVertices() {
				return nil, fmt.Errorf("dimacs: line %d: endpoint out of range", line)
			}
			g.AddEdge(u-1, v-1)
		default:
			return nil, fmt.Errorf("dimacs: line %d: unknown line type %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("dimacs: missing problem line")
	}
	return g, nil
}

// WriteDIMACS writes g in DIMACS graph-colouring format.
func WriteDIMACS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p edge %d %d\n", g.NumVertices(), g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "e %d %d\n", e[0]+1, e[1]+1)
	}
	return bw.Flush()
}

// ParseHypergraph reads a hypergraph in the TU-Wien CSP hypergraph library
// format used by det-k-decomp and BalancedGo:
//
//	edgeName (v1, v2, v3),
//	other (v2, v4).
//
// Hyperedges are separated by commas and the list ends with a period.
// '%'-prefixed lines and "//" suffixes are comments. Whitespace (including
// newlines) is insignificant outside identifiers.
func ParseHypergraph(r io.Reader) (*Hypergraph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("hypergraph: %w", err)
	}
	// Strip comments line by line.
	var clean strings.Builder
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "%") || strings.HasPrefix(trimmed, "//") {
			continue
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "%"); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	p := &hgParser{input: clean.String()}
	return p.parse()
}

type hgParser struct {
	input string
	pos   int
}

func (p *hgParser) parse() (*Hypergraph, error) {
	b := NewBuilder()
	for {
		p.skipSpace()
		if p.eof() {
			break
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var vars []string
		for {
			p.skipSpace()
			v, err := p.ident()
			if err != nil {
				return nil, err
			}
			vars = append(vars, v)
			p.skipSpace()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		b.AddEdge(name, vars...)
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
		case '.':
			p.pos++
			p.skipSpace()
			if !p.eof() {
				return nil, fmt.Errorf("hypergraph: trailing input after terminating period at offset %d", p.pos)
			}
		case 0:
			// Tolerate a missing final period.
		default:
			return nil, fmt.Errorf("hypergraph: expected ',' or '.' at offset %d, got %q", p.pos, p.peek())
		}
	}
	h := b.Build()
	if h.NumEdges() == 0 {
		return nil, fmt.Errorf("hypergraph: no hyperedges found")
	}
	return h, nil
}

func (p *hgParser) eof() bool { return p.pos >= len(p.input) }

func (p *hgParser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.input[p.pos]
}

func (p *hgParser) skipSpace() {
	for !p.eof() {
		switch p.input[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '-' || c == ':' || c == '\'' ||
		(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func (p *hgParser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for !p.eof() && isIdentChar(p.input[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("hypergraph: expected identifier at offset %d", start)
	}
	return p.input[start:p.pos], nil
}

func (p *hgParser) expect(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return fmt.Errorf("hypergraph: expected %q at offset %d", c, p.pos)
	}
	p.pos++
	return nil
}

// MarshalText renders the hypergraph in TU-Wien format. It implements
// encoding.TextMarshaler.
func (h *Hypergraph) MarshalText() ([]byte, error) {
	var b strings.Builder
	for e := 0; e < h.NumEdges(); e++ {
		if e > 0 {
			b.WriteString(",\n")
		}
		b.WriteString(h.edgeNames[e])
		b.WriteByte('(')
		for i, v := range h.edges[e] {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(h.vertexNames[v])
		}
		b.WriteByte(')')
	}
	b.WriteString(".\n")
	return []byte(b.String()), nil
}

// WriteHypergraph writes h in TU-Wien format.
func WriteHypergraph(w io.Writer, h *Hypergraph) error {
	data, err := h.MarshalText()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// SortedEdgeView returns edges as name→sorted vertex names, useful for
// stable golden tests.
func (h *Hypergraph) SortedEdgeView() []string {
	out := make([]string, 0, h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		names := make([]string, len(h.edges[e]))
		for i, v := range h.edges[e] {
			names[i] = h.vertexNames[v]
		}
		sort.Strings(names)
		out = append(out, h.edgeNames[e]+"("+strings.Join(names, ",")+")")
	}
	sort.Strings(out)
	return out
}
