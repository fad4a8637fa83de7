package heur

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/elim"
	"hypertree/internal/hypergraph"
)

// decodeGraph reads a graph with an eliminated prefix from data: byte 0
// sets the vertex count n (1 to 130, so rows span up to three words), byte
// 1 the prefix length k, the next k bytes name the prefix's vertices, and
// the remaining bytes, in pairs, name edges. Repeated vertices and loops
// are skipped.
func decodeGraph(data []byte) *elim.Graph {
	if len(data) < 2 {
		return nil
	}
	n := 1 + int(data[0])%130
	k := int(data[1]) % n
	data = data[2:]
	prefix := data[:min(k, len(data))]
	data = data[len(prefix):]
	g := hypergraph.NewGraph(n)
	for ; len(data) >= 2; data = data[2:] {
		if u, v := int(data[0])%n, int(data[1])%n; u != v {
			g.AddEdge(u, v)
		}
	}
	e := elim.New(g)
	for _, b := range prefix {
		if v := int(b) % n; !e.Eliminated(v) {
			e.Eliminate(v)
		}
	}
	return e
}

// FuzzMinorBounds checks the flat Minor against the clone-based references
// on a decoded graph and eliminated prefix: the same minor-min-width and
// minor-γ_R bounds without an rng and with one, and the same next draw of
// equally seeded rngs. One Minor, sized for a single vertex, serves both
// bounds, so its rows are reshaped and reloaded. The seeds below are the
// committed corpus; CI runs the target for a short budget on every push.
func FuzzMinorBounds(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 1, 2, 2, 3, 3, 0}, int64(1))
	f.Add([]byte{5, 1, 2, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 2, 3}, int64(2))
	for seed := int64(3); seed < 9; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2+rng.Intn(900))
		rng.Read(data)
		f.Add(data, seed)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		g := decodeGraph(data)
		if g == nil {
			return
		}
		ctx := context.Background()
		m := NewMinor(1)
		for _, k := range []struct {
			name      string
			got, want func(*rand.Rand) int
		}{
			{"minor-min-width", func(r *rand.Rand) int { return m.MinorMinWidth(ctx, g, r) }, func(r *rand.Rand) int { return minorMinWidthRef(g, r) }},
			{"minor-γ_R", func(r *rand.Rand) int { return m.MinorGammaR(ctx, g, r) }, func(r *rand.Rand) int { return minorGammaRRef(g, r) }},
		} {
			if got, want := k.got(nil), k.want(nil); got != want {
				t.Fatalf("%s without rng = %d, reference %d", k.name, got, want)
			}
			r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			if got, want := k.got(r1), k.want(r2); got != want {
				t.Fatalf("%s = %d, reference %d", k.name, got, want)
			}
			if a, b := r1.Int63(), r2.Int63(); a != b {
				t.Fatalf("%s left the rng at %d, reference at %d", k.name, a, b)
			}
		}
	})
}
