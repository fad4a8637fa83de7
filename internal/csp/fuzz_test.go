package csp

import "testing"

// fuzzRelation decodes one small relation from next: an arity byte, that
// many scope variables (mod 6, repeats dropped), a row-count byte, then the
// row values (mod 3, so rows collide and join). next yields 0 once the
// input runs out, so every byte string decodes.
func fuzzRelation(next func() int) *Relation {
	r := &Relation{}
	for k := next() % 4; k > 0; k-- {
		if v := next() % 6; r.pos(v) < 0 {
			r.Scope = append(r.Scope, v)
		}
	}
	for k := next() % 12; k > 0; k-- {
		row := make([]int, len(r.Scope))
		for i := range row {
			row[i] = next() % 3
		}
		r.AppendRow(row)
	}
	return r
}

// FuzzJoinProject checks the fused kernel's contract, JoinProject(a, b,
// vars) equal to Project(Join(a, b), vars) row for row, on two relations
// decoded from the input followed by a variable list (one byte each, mod
// 8, so some variables lie in neither scope and some repeat). Both hash
// finishers run: the normal one and the degenerate one that chains every
// tuple. The committed corpus is testdata/fuzz/FuzzJoinProject; CI runs
// the target for a short budget on every push.
func FuzzJoinProject(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("oversized input")
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		a, b := fuzzRelation(next), fuzzRelation(next)
		var vars []int
		for len(data) > 0 {
			vars = append(vars, next()%8)
		}
		checkJoinProject(t, a, b, vars)
		withDegenerateHash(t, func() { checkJoinProject(t, a, b, vars) })
	})
}
