package setcover

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// FuzzExactCover checks the scratch-reusing Exact against the clone-based
// reference, edge for edge, on one solver reused across a random
// hypergraph's targets; with at most 12 edges, the cover's size must also
// match brute force. The seeds below are the committed corpus; CI runs the
// target for a short budget on every push.
func FuzzExactCover(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3))
	f.Add(int64(2), uint8(12), uint8(2))
	f.Add(int64(7), uint8(40), uint8(3))
	f.Add(int64(42), uint8(30), uint8(12))
	f.Add(int64(1000), uint8(149), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densityRaw uint8) {
		in := randomCoverInstance(seed, 3+int(nRaw%150), 1+int(densityRaw%12))
		s := New(in.h, nil)
		for j, target := range in.targets {
			got, want := s.Exact(target), exactRef(in.h, target)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("target %d %v: Exact = %v, reference %v", j, target, got, want)
			}
			if in.h.NumEdges() > 12 {
				continue
			}
			coverable := target.Clone()
			coverable.IntersectWith(s.coverable)
			if b := brute(in.h, coverable); len(got) != b {
				t.Fatalf("target %d %v: Exact = %v, brute-force optimum %d", j, target, got, b)
			}
		}
	})
}

// A warm Exact allocates once: the cover it returns.
func TestExactWarmAllocatesOnlyItsCover(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not gated under the race detector")
	}
	for _, in := range coverInstances() {
		s := New(in.h, nil)
		for _, target := range in.targets {
			s.Exact(target)
		}
		for _, target := range in.targets {
			if allocs := testing.AllocsPerRun(5, func() { s.Exact(target) }); allocs > 1 {
				t.Fatalf("%s: Exact(%v) made %v allocations per run, want at most 1", in.name, target, allocs)
			}
		}
	}
}

// Exact sorts a branch's options with slices.SortFunc where the reference
// used sort.Slice. Both run the same pdqsort, so options of equal gain
// come out in the same order; this checks it on lists long enough to leave
// the insertion-sort cutoff, with many ties.
func TestOptionSortMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		opts := make([]option, 1+rng.Intn(80))
		for i := range opts {
			opts[i] = option{cand: int32(i), gain: int32(rng.Intn(1 + rng.Intn(6)))}
		}
		ref := slices.Clone(opts)
		sort.Slice(ref, func(i, j int) bool { return ref[i].gain > ref[j].gain })
		slices.SortFunc(opts, byGain)
		if !slices.Equal(opts, ref) {
			t.Fatalf("trial %d: SortFunc %v, sort.Slice %v", trial, opts, ref)
		}
	}
}
