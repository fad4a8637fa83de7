package telemetry

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestHistBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{8, 3}, {9, 4}, {1024, 10}, {1025, 11}, {1 << 47, 47},
		{1<<47 + 1, HistBuckets - 1}, {1 << 62, HistBuckets - 1},
	}
	for _, c := range cases {
		v := c.v
		if v < 0 {
			v = 0 // Observe clamps before bucketing
		}
		if got := histBucketOf(v); got != c.want {
			t.Errorf("histBucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// The invariant the exposition depends on: every v lands in a bucket
	// whose inclusive upper bound is ≥ v, and the previous bound is < v.
	for _, v := range []int64{1, 2, 3, 7, 100, 999, 1 << 20, 1<<40 + 17} {
		b := histBucketOf(v)
		if HistBucketUpper(b) < v {
			t.Errorf("v=%d lands in bucket %d with upper %d < v", v, b, HistBucketUpper(b))
		}
		if b > 0 && HistBucketUpper(b-1) >= v {
			t.Errorf("v=%d skipped bucket %d (upper %d ≥ v)", v, b-1, HistBucketUpper(b-1))
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(100)
	h.Observe(-7) // clamps to 0
	h.ObserveDuration(3 * time.Microsecond)
	s := h.Snapshot()
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	if s.Sum != 1+100+0+3000 {
		t.Errorf("sum = %d, want 3101", s.Sum)
	}
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Errorf("bucket mass %d != count %d", total, s.Count)
	}
	// Trimming: the largest observation (3000ns → bucket 12) bounds the
	// snapshot length.
	if len(s.Buckets) != histBucketOf(3000)+1 {
		t.Errorf("buckets not trimmed: len %d, want %d", len(s.Buckets), histBucketOf(3000)+1)
	}

	var nilH *Histogram
	nilH.Observe(5)
	nilH.ObserveSince(time.Now())
	if snap := nilH.Snapshot(); snap.Count != 0 {
		t.Errorf("nil histogram recorded: %+v", snap)
	}
}

// TestHistSnapshotAddProperties checks Add is associative and commutative
// and has the empty snapshot as identity, over randomized snapshots —
// the algebra that lets portfolio workers and bench repetitions merge in
// any order.
func TestHistSnapshotAddProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randSnap := func() HistSnapshot {
		var h Histogram
		for i, n := 0, rng.Intn(200); i < n; i++ {
			h.Observe(rng.Int63n(1 << uint(1+rng.Intn(40))))
		}
		return h.Snapshot()
	}
	for trial := 0; trial < 50; trial++ {
		a, b, c := randSnap(), randSnap(), randSnap()
		if ab, ba := a.Add(b), b.Add(a); !reflect.DeepEqual(ab, ba) {
			t.Fatalf("Add not commutative:\n a+b = %+v\n b+a = %+v", ab, ba)
		}
		if l, r := a.Add(b).Add(c), a.Add(b.Add(c)); !reflect.DeepEqual(l, r) {
			t.Fatalf("Add not associative:\n (a+b)+c = %+v\n a+(b+c) = %+v", l, r)
		}
		if got := a.Add(HistSnapshot{}); !reflect.DeepEqual(got, a) {
			t.Fatalf("empty snapshot is not identity: %+v vs %+v", got, a)
		}
	}
}

// TestStatsSnapshotAddProperties checks the same algebra one level up:
// Snapshot.Add must merge the embedded histograms associatively and
// commutatively along with the counters.
func TestStatsSnapshotAddProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randSnap := func() Snapshot {
		var s Stats
		for i, n := 0, rng.Intn(50); i < n; i++ {
			s.Add(Nodes, 1)
			s.Observe(CoverProbeNs, time.Duration(rng.Int63n(1e7)))
			s.Observe(CQLevelWaitNs, time.Duration(rng.Int63n(1e6)))
			s.Observe(CQBatchNs, time.Duration(rng.Int63n(1e8)))
		}
		return s.Snapshot()
	}
	for trial := 0; trial < 25; trial++ {
		a, b, c := randSnap(), randSnap(), randSnap()
		if ab, ba := a.Add(b), b.Add(a); !reflect.DeepEqual(ab, ba) {
			t.Fatalf("Snapshot.Add not commutative")
		}
		if l, r := a.Add(b).Add(c), a.Add(b.Add(c)); !reflect.DeepEqual(l, r) {
			t.Fatalf("Snapshot.Add not associative")
		}
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines and
// checks no observation is lost (run under -race in CI).
func TestHistogramConcurrent(t *testing.T) {
	const (
		workers = 8
		perW    = 5000
	)
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perW {
		t.Errorf("lost observations: count %d, want %d", s.Count, workers*perW)
	}
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Errorf("bucket mass %d != count %d", total, s.Count)
	}
}

// TestQuantileWithinBucket checks the octave accuracy contract: for a
// point mass at v, every quantile lies within v's bucket bounds.
func TestQuantileWithinBucket(t *testing.T) {
	for _, v := range []int64{1, 3, 1000, 123456, 1 << 30} {
		var h Histogram
		for i := 0; i < 100; i++ {
			h.Observe(v)
		}
		s := h.Snapshot()
		b := histBucketOf(v)
		lo := float64(0)
		if b > 0 {
			lo = float64(HistBucketUpper(b - 1))
		}
		hi := float64(HistBucketUpper(b))
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			got := s.Quantile(q)
			if got < lo || got > hi {
				t.Errorf("v=%d q=%v: quantile %v outside bucket [%v, %v]", v, q, got, lo, hi)
			}
		}
		if m := s.Mean(); m != float64(v) {
			t.Errorf("v=%d: mean %v not exact", v, m)
		}
	}
	// Empty and out-of-range q.
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.P99() != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot quantiles not zero")
	}
	var h Histogram
	h.Observe(10)
	if s := h.Snapshot(); s.Quantile(-1) > s.Quantile(2) {
		t.Error("clamped quantiles not monotone")
	}
}

// TestHistogramAddSnapshotRoundTrip folds a snapshot into a live histogram
// and checks the merged snapshot equals the snapshot-level Add.
func TestHistogramAddSnapshotRoundTrip(t *testing.T) {
	var a, b Histogram
	for i := int64(1); i < 2000; i *= 3 {
		a.Observe(i)
		b.Observe(i * 2)
	}
	want := a.Snapshot().Add(b.Snapshot())
	a.AddSnapshot(b.Snapshot())
	if got := a.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("AddSnapshot != snapshot Add:\n got %+v\nwant %+v", got, want)
	}
}
