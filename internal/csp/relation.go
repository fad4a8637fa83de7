package csp

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Relation is a finite relation over a scope of variable indices. Its rows
// sit back to back in one flat, pointer-free store, Arity() values per
// row: value j of row i is the value of variable Scope[j]. NewRelation and
// AppendRow copy rows in; Size and Row read them.
//
// The relational kernels below (JoinProject, Semijoin, Project, SameSet,
// Diff, GroupSum) never mutate their inputs and share no memory with them:
// each allocates its output once, at its exact size, and works in hash
// tables and buffers that later calls reuse.
type Relation struct {
	Scope []int
	vals  []int // the rows back to back, Arity() values each
	n     int   // number of rows
	// refused counts the rows NewRelation and AppendRow kept out of the
	// store because their length was not the arity; refusedLen is the
	// length of the first. CSP.Validate reports them.
	refused, refusedLen int
}

// NewRelation returns a relation with the given scope and a copy of the
// given rows. A row whose length is not the scope's is left out and
// recorded, so CSP.Validate reports it.
func NewRelation(scope []int, tuples [][]int) *Relation {
	r := &Relation{Scope: append([]int(nil), scope...)}
	r.vals = make([]int, 0, len(tuples)*len(scope))
	for _, t := range tuples {
		r.AppendRow(t)
	}
	return r
}

// AppendRow appends a copy of row. A row whose length is not the arity is
// left out and recorded, as NewRelation does.
func (r *Relation) AppendRow(row []int) {
	if len(row) != len(r.Scope) {
		if r.refused == 0 {
			r.refusedLen = len(row)
		}
		r.refused++
		return
	}
	r.vals = append(r.vals, row...)
	r.n++
}

// WithScope returns a relation over scope, which must have r's arity,
// holding r's rows. The two share one store, and appending to either
// leaves the other unchanged.
func (r *Relation) WithScope(scope []int) *Relation {
	vals := r.vals[:len(r.vals):len(r.vals)]
	return &Relation{Scope: scope, vals: vals, n: r.n}
}

// Arity returns the number of scope variables.
func (r *Relation) Arity() int { return len(r.Scope) }

// Size returns the number of rows.
func (r *Relation) Size() int { return r.n }

// Row returns row i. It is a view into the relation's store: callers must
// not modify it.
func (r *Relation) Row(i int) []int {
	w := len(r.Scope)
	return r.vals[i*w : i*w+w : i*w+w]
}

// pos returns the scope position of variable v, or −1.
func (r *Relation) pos(v int) int {
	for i, s := range r.Scope {
		if s == v {
			return i
		}
	}
	return -1
}

// sharedVars appends to dst the variables occurring in both scopes, in a's
// scope order.
func sharedVars(dst []int, a, b *Relation) []int {
	for _, v := range a.Scope {
		if b.pos(v) >= 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// positions appends to dst the scope position in r of each of vars.
// Kernels call this once per operation and index rows through the result,
// instead of running an O(arity) pos() scan per row.
func (r *Relation) positions(dst, vars []int) []int {
	for _, v := range vars {
		dst = append(dst, r.pos(v))
	}
	return dst
}

// hashTuple is the 64-bit tuple hash of the kernels: FNV-1a over the values
// of t at the given positions, finished with a splitmix64-style avalanche
// (the bitset.Set.Hash idiom) so consecutive integer values — the common
// case for interned constants — spread over the whole word. Collisions are
// possible by construction; every kernel confirms hash matches with
// equalAt before treating two tuples as joinable.
func hashTuple(t []int, pos []int) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for _, p := range pos {
		v := uint64(t[p])
		// Hash all 8 bytes of the value word at once: FNV-1a's per-byte
		// loop costs 8x more and buys nothing for interned dense ints.
		h = (h ^ v) * prime64
	}
	return relHash(h)
}

// relHash finishes a tuple hash. It is a package variable solely as a test
// seam: collision tests swap in a degenerate finisher (e.g. h&1) to force
// every bucket into its equality-verified chain, proving correctness does
// not lean on hash quality. Production code never reassigns it.
var relHash func(uint64) uint64 = mix64

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// equalAt reports whether tuple ta at positions pa equals tuple tb at
// positions pb (the collision-chain verification step).
func equalAt(ta []int, pa []int, tb []int, pb []int) bool {
	for i, p := range pa {
		if ta[p] != tb[pb[i]] {
			return false
		}
	}
	return true
}

// slot is one entry of a tupleIndex's open-addressed table: the low 32 bits
// of a key hash, and the first row of its chain plus one, so that zero
// marks an empty slot. Keys whose hashes share those bits share a chain,
// which costs a probe but never an answer.
type slot struct {
	hash uint32
	head int32
}

// tupleIndex is a chained hash index over rows of one flat store, keyed by
// the values at fixed column positions. Its table holds one slot per
// chain, a power of two long and at most half full, probed linearly;
// next[i] is the row after i in the same chain (−1 ends it). Probes verify
// candidates by equality.
type tupleIndex struct {
	vals  []int // the indexed rows, width values each
	width int
	pos   []int // the key columns
	slots []slot
	used  int // occupied slots
	next  []int32
}

// grow returns s resliced to length n, reallocated only when too short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset empties the table, sized for keys chains.
func (x *tupleIndex) reset(keys int) {
	size := 8
	for size < 2*keys {
		size <<= 1
	}
	x.slots = grow(x.slots, size)
	clear(x.slots)
	x.used = 0
}

// row returns indexed row i.
func (x *tupleIndex) row(i int32) []int {
	k := int(i) * x.width
	return x.vals[k : k+x.width]
}

// slot returns the slot of hash h: the one holding it, or the empty slot
// where it goes.
func (x *tupleIndex) slot(h uint64) *slot {
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.head == 0 || s.hash == uint32(h) {
			return s
		}
	}
}

// first returns the first row of chain h, or −1 when the chain is empty.
func (x *tupleIndex) first(h uint64) int32 { return x.slot(h).head - 1 }

// link chains rows 0 … n−1 into the empty table, from last to first, so
// every chain runs in row order.
func (x *tupleIndex) link(n int) {
	for i := n - 1; i >= 0; i-- {
		h := hashTuple(x.row(int32(i)), x.pos)
		s := x.slot(h)
		if s.head == 0 {
			s.hash = uint32(h)
			x.used++
		}
		x.next[i] = s.head - 1
		s.head = int32(i) + 1
	}
}

// build indexes the rows of r keyed by the columns at pos. A probe meets
// its matches in the order they occur in r.
func (x *tupleIndex) build(r *Relation, pos []int) {
	x.vals, x.width, x.pos = r.vals, r.Arity(), pos
	x.reset(r.n)
	x.next = grow(x.next, r.n)
	x.link(r.n)
}

// find returns the first indexed row that matches probe (a tuple read
// through probePos), or −1 when none does.
func (x *tupleIndex) find(probe []int, probePos []int) int32 {
	for i := x.first(hashTuple(probe, probePos)); i >= 0; i = x.next[i] {
		if equalAt(probe, probePos, x.row(i), x.pos) {
			return i
		}
	}
	return -1
}

// rowSet collects distinct rows in first-occurrence order: an index over
// the rows kept so far, keyed by all their columns, whose table doubles
// once it is half full.
type rowSet struct {
	tupleIndex
	buf []int // the kept rows back to back; tupleIndex.vals views it
}

// reset empties the set for rows of the given width, sized for about rows
// distinct rows.
func (s *rowSet) reset(width, rows int) {
	s.pos = s.pos[:0]
	for i := 0; i < width; i++ {
		s.pos = append(s.pos, i)
	}
	s.width = width
	s.buf = s.buf[:0]
	s.vals = s.buf
	s.next = s.next[:0]
	s.tupleIndex.reset(rows)
}

// add returns the position of row in the set, first appending a copy of
// it unless the set already holds an equal row.
func (s *rowSet) add(row []int) int32 {
	h := hashTuple(row, s.pos)
	sl := s.slot(h)
	for i := sl.head - 1; i >= 0; i = s.next[i] {
		if equalAt(row, s.pos, s.row(i), s.pos) {
			return i
		}
	}
	if sl.head == 0 {
		if 2*(s.used+1) > len(s.slots) {
			// Double the table and relink the kept rows into it.
			s.tupleIndex.reset(len(s.slots))
			s.link(len(s.next))
			sl = s.slot(h)
		}
		sl.hash = uint32(h)
		s.used++
	}
	i := int32(len(s.next))
	s.next = append(s.next, sl.head-1)
	sl.head = i + 1
	s.buf = append(s.buf, row...)
	s.vals = s.buf
	return i
}

// relation returns the kept rows as a new relation over scope, allocated
// at its exact size.
func (s *rowSet) relation(scope []int) *Relation {
	vals := make([]int, len(s.buf))
	copy(vals, s.buf)
	return &Relation{Scope: scope, vals: vals, n: len(s.next)}
}

// scratch is the working memory of one kernel call: its index, its row
// set and its position maps. Kernels take one from scratchPool and put it
// back when they return, so a warm kernel allocates only its output.
type scratch struct {
	idx        tupleIndex
	set        rowSet
	shared     []int   // the variables both inputs hold
	aPos, bPos []int   // their positions in each input
	src        []int   // JoinProject's source column for each output column
	scope      []int   // an output scope being collected
	row        []int   // the row being offered to set
	keep       []int32 // Semijoin's surviving rows, Diff's unmatched ones
	hit        []bool  // Diff's matched rows of old
	totals     []int   // GroupSum's weight per group
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	s.shared, s.aPos, s.bPos = s.shared[:0], s.aPos[:0], s.bPos[:0]
	s.src, s.scope, s.keep = s.src[:0], s.scope[:0], s.keep[:0]
	return s
}

// release returns s to the pool, dropping its view of an input.
func (s *scratch) release() {
	s.idx.vals = nil
	scratchPool.Put(s)
}

// offer adds the values of t at pos to the set, through the row buffer.
func (s *scratch) offer(t []int, pos []int) int32 {
	for i, p := range pos {
		s.row[i] = t[p]
	}
	return s.set.add(s.row)
}

// DistinctRows returns the relation over scope holding each distinct row
// that fill passes to add, once and in first-occurrence order. add copies
// its row, so fill may reuse one buffer. An error from fill is returned
// with no relation.
func DistinctRows(scope []int, fill func(add func(row []int)) error) (*Relation, error) {
	s := getScratch()
	defer s.release()
	s.set.reset(len(scope), 0)
	if err := fill(func(row []int) { s.set.add(row) }); err != nil {
		return nil, err
	}
	return s.set.relation(append([]int(nil), scope...)), nil
}

// JoinProject returns π_vars(a ⋈ b) without materialising the join: a
// hash join on the shared variables, with b indexed once and a probing in
// row order, each probe meeting its matches in b's row order, that drops
// every projected row it has already emitted. Its output is therefore the
// projection of that join row for row: the same scope, the same rows in
// the same order. Variables in neither scope are ignored.
func JoinProject(a, b *Relation, vars []int) *Relation {
	s := getScratch()
	defer s.release()
	s.shared = sharedVars(s.shared, a, b)
	s.aPos = a.positions(s.aPos, s.shared)
	s.bPos = b.positions(s.bPos, s.shared)
	// src[i] locates output column i in a's row followed by b's row; a
	// shared variable is read from a.
	for _, v := range vars {
		if p := a.pos(v); p >= 0 {
			s.scope, s.src = append(s.scope, v), append(s.src, p)
		} else if p := b.pos(v); p >= 0 {
			s.scope, s.src = append(s.scope, v), append(s.src, a.Arity()+p)
		}
	}
	s.idx.build(b, s.bPos)
	s.set.reset(len(s.src), max(a.n, b.n))
	s.row = grow(s.row, len(s.src))
	wa := a.Arity()
	for i := 0; i < a.n; i++ {
		ta := a.Row(i)
		for ti := s.idx.first(hashTuple(ta, s.aPos)); ti >= 0; ti = s.idx.next[ti] {
			tb := s.idx.row(ti)
			if !equalAt(ta, s.aPos, tb, s.bPos) {
				continue
			}
			for k, p := range s.src {
				if p < wa {
					s.row[k] = ta[p]
				} else {
					s.row[k] = tb[p-wa]
				}
			}
			s.set.add(s.row)
		}
	}
	return s.set.relation(append([]int(nil), s.scope...))
}

// Semijoin returns a ⋉ b: a copy of the rows of a that join with some row
// of b, in a's order.
func Semijoin(a, b *Relation) *Relation {
	s := getScratch()
	defer s.release()
	s.shared = sharedVars(s.shared, a, b)
	switch {
	case len(s.shared) > 0:
		s.aPos = a.positions(s.aPos, s.shared)
		s.bPos = b.positions(s.bPos, s.shared)
		s.idx.build(b, s.bPos)
		for i := 0; i < a.n; i++ {
			if s.idx.find(a.Row(i), s.aPos) >= 0 {
				s.keep = append(s.keep, int32(i))
			}
		}
	case b.n > 0:
		// With no shared variable every row of a survives iff b is
		// non-empty.
		for i := 0; i < a.n; i++ {
			s.keep = append(s.keep, int32(i))
		}
	}
	return gather(a, s.keep)
}

// gather returns a copy of the given rows of r, in the given order.
func gather(r *Relation, rows []int32) *Relation {
	w := r.Arity()
	out := &Relation{Scope: append([]int(nil), r.Scope...), vals: make([]int, len(rows)*w), n: len(rows)}
	for k, i := range rows {
		copy(out.vals[k*w:], r.Row(int(i)))
	}
	return out
}

// Project returns π_vars(r) with duplicates removed, keeping each row's
// first occurrence. Variables not in r's scope are ignored.
func Project(r *Relation, vars []int) *Relation {
	s := getScratch()
	defer s.release()
	for _, v := range vars {
		if p := r.pos(v); p >= 0 {
			s.scope, s.aPos = append(s.scope, v), append(s.aPos, p)
		}
	}
	s.set.reset(len(s.aPos), r.n)
	s.row = grow(s.row, len(s.aPos))
	for i := 0; i < r.n; i++ {
		s.offer(r.Row(i), s.aPos)
	}
	return s.set.relation(append([]int(nil), s.scope...))
}

// SameSet reports whether a and b hold the same set of tuples over the same
// scope (order-insensitive; both relations must already be duplicate-free,
// which every kernel output is). The incremental evaluator uses it as its
// fixpoint test: when a recomputed node relation equals the old one as a
// set, delta propagation past that node is provably a no-op — every kernel
// consumes its inputs with set semantics.
func SameSet(a, b *Relation) bool {
	if len(a.Scope) != len(b.Scope) || a.n != b.n {
		return false
	}
	s := getScratch()
	defer s.release()
	s.bPos = b.positions(s.bPos, a.Scope)
	for i, p := range s.bPos {
		if p < 0 {
			return false
		}
		s.aPos = append(s.aPos, i)
	}
	s.idx.build(b, s.bPos)
	for i := 0; i < a.n; i++ {
		if s.idx.find(a.Row(i), s.aPos) < 0 {
			return false
		}
	}
	return true
}

// Diff returns what turns old into cur: added holds the rows of cur that
// old lacks, in cur's order and over its scope, and removed the rows of
// old that cur lacks, in old's order and over its scope. Both inputs must
// be duplicate-free, which every kernel output is; rows of relations over
// different variable sets never match. A standing query reads the change
// of a layer from it.
func Diff(old, cur *Relation) (added, removed *Relation) {
	s := getScratch()
	defer s.release()
	s.bPos = old.positions(s.bPos, cur.Scope)
	s.hit = grow(s.hit, old.n)
	clear(s.hit)
	if len(old.Scope) == len(cur.Scope) && !slices.Contains(s.bPos, -1) {
		for i := range cur.Scope {
			s.aPos = append(s.aPos, i)
		}
		s.idx.build(old, s.bPos)
		for i := 0; i < cur.n; i++ {
			if j := s.idx.find(cur.Row(i), s.aPos); j >= 0 {
				s.hit[j] = true
			} else {
				s.keep = append(s.keep, int32(i))
			}
		}
	} else {
		for i := 0; i < cur.n; i++ {
			s.keep = append(s.keep, int32(i))
		}
	}
	added = gather(cur, s.keep)
	s.keep = s.keep[:0]
	for j, hit := range s.hit {
		if !hit {
			s.keep = append(s.keep, int32(j))
		}
	}
	return added, gather(old, s.keep)
}

// Keys numbers distinct keys, tuples of one width, densely and in the
// order they are first met. It is a rowSet that outlives a kernel call,
// for callers that keep rows filed by key.
type Keys struct {
	set rowSet
	row []int
}

// NewKeys returns an empty numbering of keys of the given width.
func NewKeys(width int) *Keys {
	k := &Keys{row: make([]int, width)}
	k.set.reset(width, 0)
	return k
}

// ID returns the number of the key that t holds at pos, numbering it
// first when it is new.
func (k *Keys) ID(t, pos []int) int {
	for i, p := range pos {
		k.row[i] = t[p]
	}
	return int(k.set.add(k.row))
}

// Find returns the number of the key that t holds at pos, or −1 when the
// key has none. It writes nothing, so it may run alongside other Finds.
func (k *Keys) Find(t, pos []int) int { return int(k.set.find(t, pos)) }

// GroupSum returns, for each row of a, the total weight of the rows of b
// that agree with it on the shared variables, where weight[j] weighs row j
// of b: Semijoin's test with a sum in place of a bit. b's rows are grouped
// once by their shared values, a rowSet whose g-th row is group g. It
// reports false when a sum overflows int.
func GroupSum(a, b *Relation, weight []int) ([]int, bool) {
	s := getScratch()
	defer s.release()
	s.shared = sharedVars(s.shared, a, b)
	s.bPos = b.positions(s.bPos, s.shared)
	s.set.reset(len(s.shared), b.n)
	s.row = grow(s.row, len(s.shared))
	s.totals = s.totals[:0]
	for j := 0; j < b.n; j++ {
		g := s.offer(b.Row(j), s.bPos)
		if int(g) == len(s.totals) {
			s.totals = append(s.totals, 0)
		}
		sum, carry := bits.Add(uint(s.totals[g]), uint(weight[j]), 0)
		if carry != 0 || sum > math.MaxInt {
			return nil, false
		}
		s.totals[g] = int(sum)
	}
	s.aPos = a.positions(s.aPos, s.shared)
	sums := make([]int, a.n)
	for i := range sums {
		if g := s.set.find(a.Row(i), s.aPos); g >= 0 {
			sums[i] = s.totals[g]
		}
	}
	return sums, true
}

// Sorted returns a copy of the rows in lexicographic order (for stable
// tests).
func (r *Relation) Sorted() [][]int {
	vals := append([]int(nil), r.vals...)
	w := len(r.Scope)
	out := make([][]int, r.n)
	for i := range out {
		out[i] = vals[i*w : i*w+w : i*w+w]
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// String renders the relation for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "R%v%v", r.Scope, r.Sorted())
	return b.String()
}
