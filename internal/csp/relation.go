package csp

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Relation is a finite relation over a scope of variable indices: Tuples[i]
// is a row whose j-th entry is the value of variable Scope[j].
//
// The relational kernels below (Join, JoinProject, Semijoin, Project) never
// mutate their inputs, but for allocation economy some outputs alias input
// rows: Semijoin's output shares the surviving rows of its left input, and
// a degenerate Join (no right-private columns) shares rows likewise.
// JoinProject's and Project's rows never alias their inputs. Callers must
// treat tuple rows as immutable once handed to a kernel — which every
// consumer in this repository already does.
type Relation struct {
	Scope  []int
	Tuples [][]int
}

// NewRelation returns a relation with the given scope and rows. Rows are
// used as-is; the caller must not alias them afterwards.
func NewRelation(scope []int, tuples [][]int) *Relation {
	return &Relation{Scope: append([]int(nil), scope...), Tuples: tuples}
}

// Arity returns the number of scope variables.
func (r *Relation) Arity() int { return len(r.Scope) }

// Size returns the number of tuples.
func (r *Relation) Size() int { return len(r.Tuples) }

// pos returns the scope position of variable v, or −1.
func (r *Relation) pos(v int) int {
	for i, s := range r.Scope {
		if s == v {
			return i
		}
	}
	return -1
}

// sharedVars returns the variables occurring in both scopes.
func sharedVars(a, b *Relation) []int {
	var shared []int
	for _, v := range a.Scope {
		if b.pos(v) >= 0 {
			shared = append(shared, v)
		}
	}
	return shared
}

// positions maps each of vars to its scope position in r. Kernels call
// this once per operation and index tuples through the result, instead of
// running an O(arity) pos() scan per tuple.
func (r *Relation) positions(vars []int) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = r.pos(v)
	}
	return out
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

// tupleIndex is a chained hash index over one relation's tuples, keyed by
// the values at a fixed set of column positions. head maps a key hash to
// the first tuple of its chain and next[i] is the tuple after i in the same
// chain (−1 ends it): one map entry per distinct hash plus one int32 per
// tuple, with no per-bucket slice. Probes verify candidates by equality,
// so hash collisions cost a probe but never an answer.
type tupleIndex struct {
	rel  *Relation
	pos  []int
	head map[uint64]int32
	next []int32
}

// indexTuples builds a tupleIndex over r keyed by the columns at pos.
// Tuples are linked from last to first, so every chain runs in tuple order
// and a probe meets its matches in the order they occur in r.
func indexTuples(r *Relation, pos []int) *tupleIndex {
	idx := &tupleIndex{
		rel:  r,
		pos:  pos,
		head: make(map[uint64]int32, len(r.Tuples)),
		next: make([]int32, len(r.Tuples)),
	}
	for i := len(r.Tuples) - 1; i >= 0; i-- {
		h := hashTuple(r.Tuples[i], pos)
		idx.next[i] = idx.first(h)
		idx.head[h] = int32(i)
	}
	return idx
}

// first returns the first tuple of chain h, or −1 when the chain is empty.
func (idx *tupleIndex) first(h uint64) int32 {
	if i, ok := idx.head[h]; ok {
		return i
	}
	return -1
}

// find returns the first indexed tuple that matches probe (a tuple read
// through probePos), or −1 when none does.
func (idx *tupleIndex) find(probe []int, probePos []int) int32 {
	for i := idx.first(hashTuple(probe, probePos)); i >= 0; i = idx.next[i] {
		if equalAt(probe, probePos, idx.rel.Tuples[i], idx.pos) {
			return i
		}
	}
	return -1
}

// arenaRows is the number of rows a kernel carves from one allocation.
const arenaRows = 512

// rowArena hands out fixed-width output rows carved from blocks of
// arenaRows rows, so a kernel allocates once per block, not once per row.
type rowArena []int

// newRowArena returns an arena for an output of at most rows rows. Its
// first block holds min(rows, arenaRows) rows, so a small output does not
// pin a full block. The block is never nil, so a width-0 row is a non-nil
// empty slice, like any other row.
func newRowArena(rows, width int) rowArena {
	return make(rowArena, min(rows, arenaRows)*width)
}

func (a *rowArena) row(width int) []int {
	if len(*a) < width {
		*a = make([]int, arenaRows*width)
	}
	r := (*a)[:width:width]
	*a = (*a)[width:]
	return r
}

// rowSet collects distinct rows in first-occurrence order: a tupleIndex
// over the rows kept so far, keyed by all their columns.
type rowSet struct {
	tupleIndex
	arena rowArena
}

// newRowSet returns an empty set over scope that will be offered at most
// rows rows.
func newRowSet(scope []int, rows int) *rowSet {
	pos := make([]int, len(scope))
	for i := range pos {
		pos[i] = i
	}
	return &rowSet{
		tupleIndex: tupleIndex{
			rel:  &Relation{Scope: scope},
			pos:  pos,
			head: map[uint64]int32{},
		},
		arena: newRowArena(rows, len(scope)),
	}
}

// add returns the position of row in the set, first appending a copy of
// it unless the set already holds an equal row. A new row goes to the
// front of its chain; a set needs no chain order.
func (s *rowSet) add(row []int) int32 {
	h := hashTuple(row, s.pos)
	first := s.first(h)
	for i := first; i >= 0; i = s.next[i] {
		if equalAt(row, s.pos, s.rel.Tuples[i], s.pos) {
			return i
		}
	}
	kept := s.arena.row(len(row))
	copy(kept, row)
	i := int32(len(s.next))
	s.head[h] = i
	s.next = append(s.next, first)
	s.rel.Tuples = append(s.rel.Tuples, kept)
	return i
}

// Join returns the natural join a ⋈ b: a hash join on the shared variables,
// with b indexed once and a probing in tuple order, each probe meeting its
// matches in b's tuple order. All position maps are computed once up front;
// the per-tuple work is one hash and the chain walk, and output rows are
// carved from block allocations.
func Join(a, b *Relation) *Relation {
	shared := sharedVars(a, b)
	// Output scope: a's scope followed by b's private variables.
	outScope := append([]int(nil), a.Scope...)
	var bPrivate []int
	for _, v := range b.Scope {
		if a.pos(v) < 0 {
			outScope = append(outScope, v)
			bPrivate = append(bPrivate, v)
		}
	}
	aShared := a.positions(shared)
	bShared := b.positions(shared)
	bPriv := b.positions(bPrivate)

	idx := indexTuples(b, bShared)
	out := &Relation{Scope: outScope}
	var arena rowArena // only a join that adds columns carves rows
	if len(bPriv) > 0 {
		arena = newRowArena(len(a.Tuples)*len(b.Tuples), len(outScope))
	}
	for _, ta := range a.Tuples {
		for ti := idx.first(hashTuple(ta, aShared)); ti >= 0; ti = idx.next[ti] {
			tb := b.Tuples[ti]
			if !equalAt(ta, aShared, tb, bShared) {
				continue
			}
			if len(bPriv) == 0 {
				// b adds no columns: the output row aliases a's row, once
				// per match (same multiplicity, no per-tuple clone).
				out.Tuples = append(out.Tuples, ta)
				continue
			}
			row := arena.row(len(outScope))
			copy(row, ta)
			for i, p := range bPriv {
				row[len(a.Scope)+i] = tb[p]
			}
			out.Tuples = append(out.Tuples, row)
		}
	}
	return out
}

// JoinProject returns π_vars(a ⋈ b) without materialising the join: it
// probes exactly as Join does and drops every projected row it has already
// emitted, so its output is Project(Join(a, b), vars) row for row — the
// same scope and the same rows in the same order. Variables in neither
// scope are ignored.
func JoinProject(a, b *Relation, vars []int) *Relation {
	shared := sharedVars(a, b)
	aShared := a.positions(shared)
	bShared := b.positions(shared)
	// src[i] locates output column i in a's row followed by b's row; a
	// shared variable is read from a, as Join's output holds it.
	var keep, src []int
	for _, v := range vars {
		if p := a.pos(v); p >= 0 {
			keep, src = append(keep, v), append(src, p)
		} else if p := b.pos(v); p >= 0 {
			keep, src = append(keep, v), append(src, len(a.Scope)+p)
		}
	}

	idx := indexTuples(b, bShared)
	out := newRowSet(keep, len(a.Tuples)*len(b.Tuples))
	row := make([]int, len(keep))
	for _, ta := range a.Tuples {
		for ti := idx.first(hashTuple(ta, aShared)); ti >= 0; ti = idx.next[ti] {
			tb := b.Tuples[ti]
			if !equalAt(ta, aShared, tb, bShared) {
				continue
			}
			for i, p := range src {
				if p < len(ta) {
					row[i] = ta[p]
				} else {
					row[i] = tb[p-len(ta)]
				}
			}
			out.add(row)
		}
	}
	return out.rel
}

// Semijoin returns a ⋉ b: the tuples of a that join with some tuple of b.
// Surviving rows are shared with a, not cloned — a semijoin only filters.
func Semijoin(a, b *Relation) *Relation {
	shared := sharedVars(a, b)
	if len(shared) == 0 {
		// A tuple of a survives iff b is non-empty.
		if len(b.Tuples) == 0 {
			return &Relation{Scope: append([]int(nil), a.Scope...)}
		}
		out := &Relation{Scope: append([]int(nil), a.Scope...)}
		out.Tuples = append(out.Tuples, a.Tuples...)
		return out
	}
	aShared := a.positions(shared)
	bShared := b.positions(shared)
	idx := indexTuples(b, bShared)
	out := &Relation{Scope: append([]int(nil), a.Scope...)}
	for _, ta := range a.Tuples {
		if idx.find(ta, aShared) >= 0 {
			out.Tuples = append(out.Tuples, ta)
		}
	}
	return out
}

// Project returns π_vars(r) with duplicates removed, keeping each row's
// first occurrence. Variables not in r's scope are ignored.
func Project(r *Relation, vars []int) *Relation {
	var keep []int
	for _, v := range vars {
		if r.pos(v) >= 0 {
			keep = append(keep, v)
		}
	}
	keepPos := r.positions(keep)
	out := newRowSet(keep, len(r.Tuples))
	row := make([]int, len(keep))
	for _, t := range r.Tuples {
		for i, p := range keepPos {
			row[i] = t[p]
		}
		out.add(row)
	}
	return out.rel
}

// SameSet reports whether a and b hold the same set of tuples over the same
// scope (order-insensitive; both relations must already be duplicate-free,
// which every kernel output is). The incremental evaluator uses it as its
// fixpoint test: when a recomputed node relation equals the old one as a
// set, delta propagation past that node is provably a no-op — every kernel
// consumes its inputs with set semantics.
func SameSet(a, b *Relation) bool {
	if len(a.Scope) != len(b.Scope) || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	bPos := b.positions(a.Scope)
	for _, p := range bPos {
		if p < 0 {
			return false
		}
	}
	aPos := make([]int, len(a.Scope))
	for i := range aPos {
		aPos[i] = i
	}
	idx := indexTuples(b, bPos)
	for _, ta := range a.Tuples {
		if idx.find(ta, aPos) < 0 {
			return false
		}
	}
	return true
}

// GroupSum returns, for each tuple of a, the total weight of the tuples of
// b that agree with it on the shared variables, where weight[j] weighs
// b.Tuples[j]: Semijoin's test with a sum in place of a bit. b's tuples are
// grouped once by their shared values, a rowSet whose g-th row is group g.
// It reports false when a sum overflows int.
func GroupSum(a, b *Relation, weight []int) ([]int, bool) {
	shared := sharedVars(a, b)
	bPos := b.positions(shared)
	groups := newRowSet(shared, len(b.Tuples))
	var totals []int
	key := make([]int, len(shared))
	for j, t := range b.Tuples {
		for i, p := range bPos {
			key[i] = t[p]
		}
		g := groups.add(key)
		if int(g) == len(totals) {
			totals = append(totals, 0)
		}
		sum, carry := bits.Add(uint(totals[g]), uint(weight[j]), 0)
		if carry != 0 || sum > math.MaxInt {
			return nil, false
		}
		totals[g] = int(sum)
	}
	aPos := a.positions(shared)
	sums := make([]int, len(a.Tuples))
	for i, t := range a.Tuples {
		if g := groups.find(t, aPos); g >= 0 {
			sums[i] = totals[g]
		}
	}
	return sums, true
}

// Sorted returns the tuples in lexicographic order (for stable tests).
func (r *Relation) Sorted() [][]int {
	out := make([][]int, len(r.Tuples))
	copy(out, r.Tuples)
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
