package hypergraph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParsePACE reads a graph in the PACE treewidth-track .gr format:
//
//	c comment
//	p tw <vertices> <edges>
//	<u> <v>
//
// Vertices are 1-based in the file.
func ParsePACE(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows to the 1 MiB line cap only for lines that need it
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] == "c" {
			continue
		}
		if fields[0] == "p" {
			if len(fields) < 4 || fields[1] != "tw" {
				return nil, fmt.Errorf("pace: line %d: malformed problem line", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("pace: line %d: bad vertex count", line)
			}
			if n > MaxParseVertices {
				return nil, fmt.Errorf("pace: line %d: vertex count %d exceeds limit %d", line, n, MaxParseVertices)
			}
			g = NewGraph(n)
			for i := 0; i < n; i++ {
				g.SetName(i, strconv.Itoa(i+1))
			}
			continue
		}
		if g == nil {
			return nil, fmt.Errorf("pace: line %d: edge before problem line", line)
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("pace: line %d: malformed edge line", line)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || u < 1 || v < 1 || u > g.NumVertices() || v > g.NumVertices() {
			return nil, fmt.Errorf("pace: line %d: bad edge", line)
		}
		g.AddEdge(u-1, v-1)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pace: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("pace: missing problem line")
	}
	return g, nil
}

// WritePACE writes g in PACE .gr format.
func WritePACE(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p tw %d %d\n", g.NumVertices(), g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d\n", e[0]+1, e[1]+1)
	}
	return bw.Flush()
}
