package cq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"hypertree/internal/csp"
	"hypertree/internal/telemetry"
)

// checkOutGroups reports how s's out layer departs from a full recompute.
// Each node's groups, read as one set, must equal outStep over the current
// down layer computed from scratch; every run must hold only rows of its
// own key, and the runs the live row count. The answers must be those the
// full root relation renders. While the emptiness short-circuit holds
// there must be neither an out layer nor answers.
func (s *StandingQuery) checkOutGroups() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.isEmpty {
		if s.outs != nil || s.answers != nil {
			return errors.New("the emptiness short-circuit holds, but an out layer or answers remain")
		}
		return nil
	}
	fresh := make([]*csp.Relation, len(s.nodes))
	for lvl := len(s.levels) - 1; lvl >= 0; lvl-- {
		for _, i := range s.levels[lvl] {
			fresh[i] = s.outStep(i, s.down[i], s.kids(fresh, i))
		}
	}
	for i, l := range s.outs {
		ids, live := make([]int, len(l.groups)), 0
		for g, run := range l.groups {
			ids[g] = g
			live += int(run.hi - run.lo)
			for j := run.lo; j < run.hi; j++ {
				if l.keys.Find(l.row(j), l.keyPos) != g {
					return fmt.Errorf("node %d: the run of key %d holds a row of another key", i, g)
				}
			}
		}
		got := l.gather(ids)
		if live != l.live || !csp.SameSet(got, fresh[i]) || !csp.SameSet(fresh[i], got) {
			return fmt.Errorf("node %d: the groups hold %v (live %d), outStep gives %v", i, got, l.live, fresh[i])
		}
	}
	want, err := assembleAnswers(s.q, s.in, fresh[s.root])
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(s.answers, want) {
		return fmt.Errorf("answers %v, the full root relation renders %v", s.answers, want)
	}
	return nil
}

// doneAfter is a context whose Done channel is open for its first n calls
// and closed from then on; Err reports context.Canceled once a closed one
// was handed out. The engine takes Done once per cancellation checker, so
// with Jobs 1 doneAfter{n: n} stops a delta at its (n+1)-th checker.
type doneAfter struct {
	n      int
	closed bool
}

func (c *doneAfter) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *doneAfter) Done() <-chan struct{} {
	ch := make(chan struct{})
	if c.n > 0 {
		c.n--
		return ch
	}
	c.closed = true
	close(ch)
	return ch
}
func (c *doneAfter) Err() error {
	if c.closed {
		return context.Canceled
	}
	return nil
}
func (c *doneAfter) Value(any) any { return nil }

// TestStandingCancelInOutLayerRollsBack cancels one answer-changing delta
// at each of its cancellation checkers in turn, those between the out
// layer's levels included. After each cancellation the answers must be as
// before and the groups must still match a full recompute, so the runs and
// stores rolled back with the down layer. The uncancelled delta must then
// agree with a full re-evaluation.
func TestStandingCancelInOutLayerRollsBack(t *testing.T) {
	q := mustParse(t, "ans(A, E) :- r(A, B), s(B, C), t(C, D), u(D, E).")
	db := NewDatabase()
	for _, i := range []string{"1", "2", "3"} {
		db.Add("r", "a"+i, "b"+i)
		db.Add("s", "b"+i, "c"+i)
		db.Add("t", "c"+i, "d"+i)
		db.Add("u", "d"+i, "e"+i)
	}
	ctx := context.Background()
	tr := telemetry.NewTrace(0)
	sq, err := NewStandingQuery(ctx, q, db, nil, EvalOptions{Jobs: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	before := sq.Answers()
	outSpans := func() (n int) {
		for _, ev := range tr.Events() {
			if ev.Name == "cq.delta.out" && ev.Kind == telemetry.KindBegin {
				n++
			}
		}
		return n
	}
	inOut := 0
	for n := 0; ; n++ {
		if n > 1000 {
			t.Fatal("the delta never ran to the end")
		}
		spans := outSpans()
		err := sq.Insert(&doneAfter{n: n}, "t", "c1", "d2")
		if err == nil {
			break
		}
		if err != context.Canceled {
			t.Fatalf("checker %d: error %v, want context.Canceled", n, err)
		}
		if outSpans() > spans {
			inOut++
		}
		if got := sq.Answers(); !reflect.DeepEqual(got, before) {
			t.Fatalf("checker %d: the cancelled delta changed the answers to %v", n, got)
		}
		if err := sq.checkOutGroups(); err != nil {
			t.Fatalf("checker %d: %v", n, err)
		}
	}
	if inOut == 0 {
		t.Fatal("no cancellation struck inside the out layer")
	}
	shadow := db.Clone()
	shadow.Add("t", "c1", "d2")
	want, err := EvaluateCtx(ctx, q, shadow, EvalOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sq.Answers(); !reflect.DeepEqual(got, want) || reflect.DeepEqual(got, before) {
		t.Fatalf("the delta gave %v, want %v (before: %v)", got, want, before)
	}
	if err := sq.checkOutGroups(); err != nil {
		t.Fatal(err)
	}
}

// TestAnswerSortMatchesSortRows pins assembleAnswers' counting sort to
// sortRows on random relations under a head that repeats a variable, with
// values whose string order is not their code order, and with more codes
// than rows.
func TestAnswerSortMatchesSortRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := mustParse(t, "ans(X, Y, X, Z) :- r(X, Y, Z).")
	moreCodes := 0
	for trial := 0; trial < 100; trial++ {
		db := NewDatabase()
		for i := rng.Intn(30); i >= 0; i-- {
			db.Add("r", strconv.Itoa(rng.Intn(500)), strconv.Itoa(rng.Intn(40)), strconv.Itoa(rng.Intn(500)))
		}
		in, err := newInstance(q, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		root := in.atomRel[0]
		got, err := assembleAnswers(q, in, root)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]string
		for k := 0; k < root.Size(); k++ {
			r := root.Row(k)
			want = append(want, []string{in.value(r[0]), in.value(r[1]), in.value(r[0]), in.value(r[2])})
		}
		sortRows(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d:\n got %v\nwant %v", trial, got, want)
		}
		if len(in.terms.dict) > root.Size() {
			moreCodes++
		}
	}
	if moreCodes == 0 {
		t.Fatal("no trial had more codes than rows")
	}
}

// standingDeltaShape is the standing_delta benchmark's shape: chain_5 over
// the values 0 … 199, each with two successors in every relation. It
// returns the query, the database and each relation's rows.
func standingDeltaShape() (*Query, *Database, [][][2]string) {
	q, err := Parse("ans(X0,X5) :- r0(X0,X1), r1(X1,X2), r2(X2,X3), r3(X3,X4), r4(X4,X5).")
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))
	db := NewDatabase()
	rows := make([][][2]string, 5)
	for r := range rows {
		for a := 0; a < 200; a++ {
			for _, b := range rng.Perm(200)[:2] {
				t := [2]string{strconv.Itoa(a), strconv.Itoa(b)}
				db.Add("r"+strconv.Itoa(r), t[0], t[1])
				rows[r] = append(rows[r], t)
			}
		}
	}
	return q, db, rows
}

func BenchmarkStandingOpen(b *testing.B) {
	q, db, _ := standingDeltaShape()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewStandingQuery(ctx, q, db, nil, EvalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStandingDelta runs the standing_delta stream, one delta per
// iteration: a delete of a present tuple, then an insert that gives its
// source a new successor, so every value keeps two.
func BenchmarkStandingDelta(b *testing.B) {
	q, db, rows := standingDeltaShape()
	ctx := context.Background()
	sq, err := NewStandingQuery(ctx, q, db, nil, EvalOptions{})
	if err != nil {
		b.Fatal(err)
	}
	present := make([]map[[2]string]bool, len(rows))
	for r := range rows {
		present[r] = map[[2]string]bool{}
		for _, t := range rows[r] {
			present[r][t] = true
		}
	}
	rng := rand.New(rand.NewSource(2))
	var r, k int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			r = rng.Intn(len(rows))
			k = rng.Intn(len(rows[r]))
			t := rows[r][k]
			delete(present[r], t)
			err = sq.Delete(ctx, "r"+strconv.Itoa(r), t[0], t[1])
		} else {
			t := rows[r][k]
			for present[r][t] || t == rows[r][k] {
				t[1] = strconv.Itoa(rng.Intn(200))
			}
			rows[r][k], present[r][t] = t, true
			err = sq.Insert(ctx, "r"+strconv.Itoa(r), t[0], t[1])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
