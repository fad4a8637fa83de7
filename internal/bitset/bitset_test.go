package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddContainsRemove(t *testing.T) {
	s := New(200)
	for _, v := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if s.Contains(v) {
			t.Fatalf("new set contains %d", v)
		}
		s.Add(v)
		if !s.Contains(v) {
			t.Fatalf("after Add(%d) not contained", v)
		}
	}
	if got := s.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Remove(64) did not remove")
	}
	s.Remove(64) // idempotent
	if got := s.Len(); got != 7 {
		t.Fatalf("Len after remove = %d, want 7", got)
	}
}

func TestAutoGrow(t *testing.T) {
	s := &Set{}
	s.Add(1000)
	if !s.Contains(1000) || s.Len() != 1 {
		t.Fatal("auto-grow Add failed")
	}
	if s.Contains(5000) {
		t.Fatal("Contains out of range must be false")
	}
	s.Remove(5000) // must not panic
}

func TestSetAlgebra(t *testing.T) {
	a := FromSlice([]int{1, 2, 3, 70})
	b := FromSlice([]int{2, 3, 4, 200})

	u := a.Clone()
	u.UnionWith(b)
	if want := []int{1, 2, 3, 4, 70, 200}; !reflect.DeepEqual(u.Slice(), want) {
		t.Fatalf("union = %v, want %v", u.Slice(), want)
	}

	i := a.Clone()
	i.IntersectWith(b)
	if want := []int{2, 3}; !reflect.DeepEqual(i.Slice(), want) {
		t.Fatalf("intersection = %v, want %v", i.Slice(), want)
	}

	d := a.Clone()
	d.DifferenceWith(b)
	if want := []int{1, 70}; !reflect.DeepEqual(d.Slice(), want) {
		t.Fatalf("difference = %v, want %v", d.Slice(), want)
	}
	var each []int
	a.ForEachDifference(b, func(i int) bool { each = append(each, i); return true })
	if want := []int{1, 70}; !reflect.DeepEqual(each, want) {
		t.Fatalf("ForEachDifference = %v, want %v", each, want)
	}

	if got := a.IntersectionCount(b); got != 2 {
		t.Fatalf("IntersectionCount = %d, want 2", got)
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects = false, want true")
	}
	if a.Intersects(FromSlice([]int{9, 300})) {
		t.Fatal("Intersects with disjoint set = true")
	}
}

func TestSubsetEqual(t *testing.T) {
	a := FromSlice([]int{1, 2})
	b := FromSlice([]int{1, 2, 3})
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	if !a.SubsetOf(a.Clone()) {
		t.Fatal("set must be subset of itself")
	}
	// Equal must ignore capacity differences.
	big := New(1024)
	big.Add(1)
	big.Add(2)
	if !a.Equal(big) || !big.Equal(a) {
		t.Fatal("Equal must ignore trailing zero words")
	}
	if string(a.AppendKey(nil)) != string(big.AppendKey(nil)) {
		t.Fatal("AppendKey must ignore trailing zero words")
	}
	if k := big.AppendKey([]byte("p")); string(k[:1]) != "p" || string(k[1:]) != string(a.AppendKey(nil)) {
		t.Fatal("AppendKey must append to dst")
	}
	if string(a.AppendKey(nil)) == string(FromSlice([]int{1, 3}).AppendKey(nil)) {
		t.Fatal("AppendKey must distinguish different sets")
	}
}

func TestMinMax(t *testing.T) {
	s := &Set{}
	if s.Min() != -1 || s.Max() != -1 {
		t.Fatal("empty Min/Max must be -1")
	}
	s = FromSlice([]int{65, 3, 190})
	if s.Min() != 3 || s.Max() != 190 {
		t.Fatalf("Min/Max = %d/%d, want 3/190", s.Min(), s.Max())
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 4})
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Fatalf("early stop saw %v", seen)
	}
}

func TestCopyFromClear(t *testing.T) {
	a := FromSlice([]int{1, 100})
	b := FromSlice([]int{500})
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatal("CopyFrom must make sets equal")
	}
	b.Clear()
	if !b.Empty() {
		t.Fatal("Clear must empty the set")
	}
	if a.Empty() {
		t.Fatal("Clear of copy must not affect source")
	}
}

func TestString(t *testing.T) {
	if got := FromSlice([]int{2, 1}).String(); got != "{1, 2}" {
		t.Fatalf("String = %q", got)
	}
	if got := (&Set{}).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// Property: Slice is always sorted, duplicate-free, and round-trips.
func TestQuickSliceRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		elems := make([]int, len(raw))
		for i, r := range raw {
			elems[i] = int(r % 1000)
		}
		s := FromSlice(elems)
		sl := s.Slice()
		if !sort.IntsAreSorted(sl) {
			return false
		}
		for i := 1; i < len(sl); i++ {
			if sl[i] == sl[i-1] {
				return false
			}
		}
		return FromSlice(sl).Equal(s) && s.Len() == len(sl)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan-ish identity |A∪B| = |A| + |B| − |A∩B|.
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(ra, rb []uint16) bool {
		a, b := &Set{}, &Set{}
		for _, r := range ra {
			a.Add(int(r % 500))
		}
		for _, r := range rb {
			b.Add(int(r % 500))
		}
		u := a.Clone()
		u.UnionWith(b)
		return u.Len() == a.Len()+b.Len()-a.IntersectionCount(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: difference and intersection partition the set.
func TestQuickPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a, b := New(256), New(256)
		for i := 0; i < 64; i++ {
			a.Add(rng.Intn(256))
			b.Add(rng.Intn(256))
		}
		d := a.Clone()
		d.DifferenceWith(b)
		i := a.Clone()
		i.IntersectWith(b)
		if d.Intersects(i) {
			t.Fatal("difference and intersection must be disjoint")
		}
		u := d.Clone()
		u.UnionWith(i)
		if !u.Equal(a) {
			t.Fatal("difference ∪ intersection must equal original")
		}
	}
}
