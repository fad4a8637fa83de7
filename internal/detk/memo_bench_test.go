package detk

import (
	"math/rand"
	"testing"

	"hypertree/internal/bitset"
)

// memoPairs builds deterministic pseudo-random (component, connector)
// pairs shaped like det-k-decomp subproblems, with repeats so the memo
// sees hits as well as inserts.
func memoPairs(count int, seed int64) [][2]*bitset.Set {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]*bitset.Set, 0, count)
	for i := 0; i < count; i++ {
		if len(out) > 0 && rng.Intn(3) == 0 {
			p := out[rng.Intn(len(out))]
			out = append(out, [2]*bitset.Set{p[0].Clone(), p[1].Clone()})
			continue
		}
		comp := bitset.New(96)
		for e := 0; e < 96; e++ {
			if rng.Intn(4) == 0 {
				comp.Add(e)
			}
		}
		conn := bitset.New(128)
		for v := 0; v < 128; v++ {
			if rng.Intn(10) == 0 {
				conn.Add(v)
			}
		}
		out = append(out, [2]*bitset.Set{comp, conn})
	}
	return out
}

// BenchmarkMemoHit probes a populated memo, the operation that dominates
// its use: every subproblem entry probes it, while an entry is put only
// once per decided pair. Keys are hashed in place, so a probe allocates
// nothing.
func BenchmarkMemoHit(b *testing.B) {
	pairs := memoPairs(256, 42)
	var m memo
	for i, p := range pairs {
		if i%2 == 0 {
			m.put(p[0], p[1], nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, ok := m.get(p[0], p[1]); ok {
			hits++
		}
	}
	_ = hits
}
