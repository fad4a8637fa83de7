// Package ga implements the genetic algorithms of the thesis: the
// permutation crossover operators of §4.3.2 (Fig. 4.5) and mutation
// operators of §4.3.3 (Fig. 4.6), tournament selection, algorithm GA-tw
// (ch. 6) for treewidth upper bounds, algorithm GA-ghw (ch. 7.1) for
// generalized hypertree width upper bounds, and the self-adaptive island
// algorithm SAIGA-ghw (ch. 7.2).
//
// One population type runs the generation loop of Fig. 6.1 for all of
// them. GA-tw, GA-ghw and the weighted GA of §4.5 each run one population
// under the fixed Params of their Config, with elitism. SAIGA gives each
// island a population and a self-adapted Params vector, and evolves the
// islands in turn between migrations. Fitness +Inf marks an individual
// not yet evaluated, and a stop is polled before each evaluation.
package ga

import (
	"fmt"
	"math/rand"
)

// CrossoverOp identifies a permutation crossover operator.
type CrossoverOp int

// Crossover operators of §4.3.2.
const (
	PMX CrossoverOp = iota // partially-mapped crossover
	CX                     // cycle crossover
	OX1                    // order crossover
	OX2                    // order-based crossover
	POS                    // position-based crossover
	AP                     // alternating-position crossover
	numCrossoverOps
)

// AllCrossoverOps lists every crossover operator.
var AllCrossoverOps = []CrossoverOp{PMX, CX, OX1, OX2, POS, AP}

// String returns the thesis abbreviation of the operator.
func (op CrossoverOp) String() string {
	switch op {
	case PMX:
		return "PMX"
	case CX:
		return "CX"
	case OX1:
		return "OX1"
	case OX2:
		return "OX2"
	case POS:
		return "POS"
	case AP:
		return "AP"
	}
	return fmt.Sprintf("CrossoverOp(%d)", int(op))
}

// MutationOp identifies a permutation mutation operator.
type MutationOp int

// Mutation operators of §4.3.3.
const (
	DM  MutationOp = iota // displacement mutation
	EM                    // exchange mutation
	ISM                   // insertion mutation
	SIM                   // simple-inversion mutation
	IVM                   // inversion mutation
	SM                    // scramble mutation
	numMutationOps
)

// AllMutationOps lists every mutation operator.
var AllMutationOps = []MutationOp{DM, EM, ISM, SIM, IVM, SM}

// String returns the thesis abbreviation of the operator.
func (op MutationOp) String() string {
	switch op {
	case DM:
		return "DM"
	case EM:
		return "EM"
	case ISM:
		return "ISM"
	case SIM:
		return "SIM"
	case IVM:
		return "IVM"
	case SM:
		return "SM"
	}
	return fmt.Sprintf("MutationOp(%d)", int(op))
}

// Crossover applies the operator to two parent permutations and returns two
// offspring. Parents are not modified.
func Crossover(op CrossoverOp, p1, p2 []int, rng *rand.Rand) ([]int, []int) {
	if len(p1) != len(p2) {
		panic("ga: parent length mismatch")
	}
	switch op {
	case PMX:
		return pmx(p1, p2, rng), pmx(p2, p1, rng)
	case CX:
		return cx(p1, p2), cx(p2, p1)
	case OX1:
		return ox1(p1, p2, rng), ox1(p2, p1, rng)
	case OX2:
		mask := coinMask(len(p1), rng)
		return ox2(p1, p2, mask), ox2(p2, p1, mask)
	case POS:
		mask := coinMask(len(p1), rng)
		return pos(p1, p2, mask), pos(p2, p1, mask)
	case AP:
		return ap(p1, p2), ap(p2, p1)
	}
	panic("ga: unknown crossover operator")
}

// cutPoints returns 0 ≤ i < j ≤ n so the segment [i, j) is non-empty.
func cutPoints(n int, rng *rand.Rand) (int, int) {
	i := rng.Intn(n)
	j := rng.Intn(n)
	if i > j {
		i, j = j, i
	}
	return i, j + 1
}

func coinMask(n int, rng *rand.Rand) []bool {
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = rng.Intn(2) == 0
	}
	return mask
}

// pmx builds one offspring: the crossover segment is copied from p2 into
// p1's positions; conflicts outside the segment follow the induced mapping.
func pmx(p1, p2 []int, rng *rand.Rand) []int {
	n := len(p1)
	lo, hi := cutPoints(n, rng)
	child := make([]int, n)
	copy(child, p1)
	// mapTo[x] = y means x (from p2 segment) occupies y's (from p1 segment)
	// place, so stray occurrences of x become y.
	mapTo := make(map[int]int, hi-lo)
	for i := lo; i < hi; i++ {
		child[i] = p2[i]
		mapTo[p2[i]] = p1[i]
	}
	for i := 0; i < n; i++ {
		if i >= lo && i < hi {
			continue
		}
		v := child[i]
		for {
			w, ok := mapTo[v]
			if !ok {
				break
			}
			v = w
		}
		child[i] = v
	}
	return child
}

// cx builds one offspring: positions of the first cycle keep p1's genes,
// all other positions take p2's genes.
func cx(p1, p2 []int) []int {
	n := len(p1)
	posIn1 := make(map[int]int, n)
	for i, v := range p1 {
		posIn1[v] = i
	}
	inCycle := make([]bool, n)
	i := 0
	for !inCycle[i] {
		inCycle[i] = true
		i = posIn1[p2[i]]
	}
	child := make([]int, n)
	for j := 0; j < n; j++ {
		if inCycle[j] {
			child[j] = p1[j]
		} else {
			child[j] = p2[j]
		}
	}
	return child
}

// ox1 builds one offspring: the segment is copied from p1; the remaining
// genes are filled in the cyclic order they occur in p2, starting after the
// segment.
func ox1(p1, p2 []int, rng *rand.Rand) []int {
	n := len(p1)
	lo, hi := cutPoints(n, rng)
	child := make([]int, n)
	used := make(map[int]bool, hi-lo)
	for i := lo; i < hi; i++ {
		child[i] = p1[i]
		used[p1[i]] = true
	}
	// Collect p2's genes starting from hi, skipping used.
	fill := make([]int, 0, n-(hi-lo))
	for k := 0; k < n; k++ {
		v := p2[(hi+k)%n]
		if !used[v] {
			fill = append(fill, v)
		}
	}
	// Place them starting at hi.
	for k, v := range fill {
		child[(hi+k)%n] = v
	}
	return child
}

// ox2 builds one offspring from p1: the genes that p2 holds at the masked
// positions are reordered within p1 to match their order in p2; all other
// genes keep their p1 positions.
func ox2(p1, p2 []int, mask []bool) []int {
	n := len(p1)
	selected := make(map[int]bool)
	var inOrder []int // selected genes in p2 order
	for i := 0; i < n; i++ {
		if mask[i] {
			selected[p2[i]] = true
			inOrder = append(inOrder, p2[i])
		}
	}
	child := make([]int, n)
	k := 0
	for i, v := range p1 {
		if selected[v] {
			child[i] = inOrder[k]
			k++
		} else {
			child[i] = v
		}
	}
	return child
}

// pos builds one offspring: masked positions are fixed to p2's genes; the
// remaining positions are filled with the other genes in p1 order.
func pos(p1, p2 []int, mask []bool) []int {
	n := len(p1)
	child := make([]int, n)
	used := make(map[int]bool)
	for i := 0; i < n; i++ {
		if mask[i] {
			child[i] = p2[i]
			used[p2[i]] = true
		} else {
			child[i] = -1
		}
	}
	k := 0
	for _, v := range p1 {
		if used[v] {
			continue
		}
		for child[k] != -1 {
			k++
		}
		child[k] = v
	}
	return child
}

// ap builds one offspring by alternately taking the next unused gene of p1
// and p2.
func ap(p1, p2 []int) []int {
	n := len(p1)
	child := make([]int, 0, n)
	used := make(map[int]bool, n)
	i, j := 0, 0
	takeFrom1 := true
	for len(child) < n {
		if takeFrom1 {
			for i < n && used[p1[i]] {
				i++
			}
			if i < n {
				child = append(child, p1[i])
				used[p1[i]] = true
			}
		} else {
			for j < n && used[p2[j]] {
				j++
			}
			if j < n {
				child = append(child, p2[j])
				used[p2[j]] = true
			}
		}
		takeFrom1 = !takeFrom1
	}
	return child
}

// Mutate applies the operator to the permutation in place.
func Mutate(op MutationOp, s []int, rng *rand.Rand) {
	n := len(s)
	if n < 2 {
		return
	}
	switch op {
	case DM:
		displace(s, rng, false)
	case EM:
		i, j := rng.Intn(n), rng.Intn(n)
		s[i], s[j] = s[j], s[i]
	case ISM:
		i := rng.Intn(n)
		v := s[i]
		rest := append(append([]int{}, s[:i]...), s[i+1:]...)
		j := rng.Intn(n)
		copy(s, rest[:j])
		s[j] = v
		copy(s[j+1:], rest[j:])
	case SIM:
		lo, hi := cutPoints(n, rng)
		reverse(s[lo:hi])
	case IVM:
		displace(s, rng, true)
	case SM:
		lo, hi := cutPoints(n, rng)
		rng.Shuffle(hi-lo, func(a, b int) {
			s[lo+a], s[lo+b] = s[lo+b], s[lo+a]
		})
	default:
		panic("ga: unknown mutation operator")
	}
}

// displace removes a random substring and reinserts it at a random
// position, reversed when rev is set (DM and IVM share this skeleton).
func displace(s []int, rng *rand.Rand, rev bool) {
	n := len(s)
	lo, hi := cutPoints(n, rng)
	seg := append([]int{}, s[lo:hi]...)
	if rev {
		reverse(seg)
	}
	rest := append(append([]int{}, s[:lo]...), s[hi:]...)
	j := rng.Intn(len(rest) + 1)
	copy(s, rest[:j])
	copy(s[j:], seg)
	copy(s[j+len(seg):], rest[j:])
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
