// Package bitset provides dense, fixed-capacity bit sets used throughout the
// decomposition algorithms for vertex sets and hyperedge sets.
//
// All algorithms in this module index vertices and hyperedges with small
// non-negative integers, so a dense word-packed representation is both the
// fastest and the simplest choice. The zero value of Set is an empty set of
// capacity zero; use New to allocate capacity up front.
package bitset

import (
	"encoding/binary"
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a dense bit set. Sets grow automatically on Add, but the bulk
// operations (Union, Intersect, …) require the receiver to have been sized by
// New or a prior operation; they extend the receiver as needed.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity for values in [0, n).
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromSlice returns a set containing exactly the given elements.
func FromSlice(elems []int) *Set {
	s := &Set{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

func (s *Set) ensure(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	w := i / wordBits
	s.ensure(w)
	s.words[w] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set. Removing an absent element is a no-op.
func (s *Set) Remove(i int) {
	w := i / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(i%wordBits)
	}
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(i%wordBits)) != 0
}

// Words returns the set's backing words, bit i%64 of word i/64 holding
// element i, for word-level kernels to read. The slice must not be
// modified, and an operation that grows the set invalidates it.
func (s *Set) Words() []uint64 { return s.words }

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites the receiver with the contents of o.
func (s *Set) CopyFrom(o *Set) {
	s.ensure(len(o.words) - 1)
	copy(s.words, o.words)
	for i := len(o.words); i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// Clear removes all elements, retaining capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// UnionWith adds every element of o to the receiver.
func (s *Set) UnionWith(o *Set) {
	s.ensure(len(o.words) - 1)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith removes every element not in o from the receiver.
func (s *Set) IntersectWith(o *Set) {
	for i := range s.words {
		if i < len(o.words) {
			s.words[i] &= o.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// DifferenceWith removes every element of o from the receiver.
func (s *Set) DifferenceWith(o *Set) {
	for i := range s.words {
		if i < len(o.words) {
			s.words[i] &^= o.words[i]
		}
	}
}

// FillBelowExcept sets the receiver to {0, …, n−1} \ (a ∪ b) in one pass
// over words. b may be nil.
func (s *Set) FillBelowExcept(n int, a, b *Set) {
	s.ensure((n+wordBits-1)/wordBits - 1)
	for i := range s.words {
		var w uint64
		switch rest := n - i*wordBits; {
		case rest >= wordBits:
			w = ^uint64(0)
		case rest > 0:
			w = 1<<uint(rest) - 1
		}
		if i < len(a.words) {
			w &^= a.words[i]
		}
		if b != nil && i < len(b.words) {
			w &^= b.words[i]
		}
		s.words[i] = w
	}
}

// IntersectionCount returns |s ∩ o| without allocating.
func (s *Set) IntersectionCount(o *Set) int {
	n := 0
	m := len(s.words)
	if len(o.words) < m {
		m = len(o.words)
	}
	for i := 0; i < m; i++ {
		n += bits.OnesCount64(s.words[i] & o.words[i])
	}
	return n
}

// Intersects reports whether s and o share at least one element.
func (s *Set) Intersects(o *Set) bool {
	m := len(s.words)
	if len(o.words) < m {
		m = len(o.words)
	}
	for i := 0; i < m; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	for i, w := range s.words {
		var ow uint64
		if i < len(o.words) {
			ow = o.words[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain the same elements.
func (s *Set) Equal(o *Set) bool {
	if s == o {
		return true
	}
	m := len(s.words)
	if len(o.words) > m {
		m = len(o.words)
	}
	for i := 0; i < m; i++ {
		var sw, ow uint64
		if i < len(s.words) {
			sw = s.words[i]
		}
		if i < len(o.words) {
			ow = o.words[i]
		}
		if sw != ow {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order. If fn returns
// false, iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// ForEachDifference calls fn for every element of s \ o in ascending order,
// word by word, without materialising the difference. If fn returns false,
// iteration stops early. fn may modify o: each word of the difference is
// read before fn sees any of its elements.
func (s *Set) ForEachDifference(o *Set, fn func(i int) bool) {
	for wi, w := range s.words {
		if wi < len(o.words) {
			w &^= o.words[wi]
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the elements in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest element, or -1 if the set is empty.
func (s *Set) Max() int {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return wi*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// Hash returns a 64-bit hash of the set's contents. Equal sets hash
// equally regardless of capacity (zero words contribute nothing), and the
// word index is mixed into each word's contribution so shifted contents
// hash differently. The per-word mixes are combined with XOR, making the
// result independent of iteration details and cheap to compute: one
// splitmix64 finalizer per non-zero word and no allocation.
//
// Hash is a fingerprint, not an identity: callers memoizing by hash must
// confirm candidates with Equal.
func (s *Set) Hash() uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for i, w := range s.words {
		if w == 0 {
			continue
		}
		h ^= mix64(w + uint64(i+1)*0x9E3779B97F4A7C15)
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// AppendKey appends to dst a byte string identifying the set's contents
// and returns the extended slice; string(key) is usable as a map key.
// Trailing zero words are excluded so sets of different capacity but equal
// contents share a key. A lookup m[string(key)] does not allocate, so a
// caller that reuses dst pays for a key only when it inserts one.
func (s *Set) AppendKey(dst []byte) []byte {
	end := len(s.words)
	for end > 0 && s.words[end-1] == 0 {
		end--
	}
	for _, w := range s.words[:end] {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// String renders the set as "{1, 2, 5}" for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
