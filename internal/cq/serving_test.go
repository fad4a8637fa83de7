package cq

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypertree/internal/telemetry"
)

// randomServingInstance builds one database plus nQueries random queries
// over it (shared relation names, fixed arities) — the batch and standing
// differential workload. Returns the per-relation arities so delta streams
// can generate well-formed tuples.
func randomServingInstance(rng *rand.Rand, nQueries int) ([]*Query, *Database, []int) {
	consts := []string{"a", "b", "c", "1", "2"}
	vars := []string{"X", "Y", "Z", "W", "V"}
	nRels := 1 + rng.Intn(3)
	arity := make([]int, nRels)
	db := NewDatabase()
	for r := 0; r < nRels; r++ {
		arity[r] = 1 + rng.Intn(3)
		for i := rng.Intn(8); i > 0; i-- {
			row := make([]string, arity[r])
			for j := range row {
				row[j] = consts[rng.Intn(len(consts))]
			}
			db.Add(fmt.Sprintf("r%d", r), row...)
		}
	}
	qs := make([]*Query, nQueries)
	for qi := range qs {
		q := &Query{}
		for i := 1 + rng.Intn(4); i > 0; i-- {
			r := rng.Intn(nRels)
			terms := make([]Term, arity[r])
			for j := range terms {
				if rng.Intn(4) == 0 {
					terms[j] = Term{Value: consts[rng.Intn(len(consts))]}
				} else {
					terms[j] = Term{Value: vars[rng.Intn(len(vars))], IsVar: true}
				}
			}
			q.Body = append(q.Body, Atom{Relation: fmt.Sprintf("r%d", r), Terms: terms})
		}
		for _, v := range q.Vars() {
			if rng.Intn(2) == 0 {
				q.Head = append(q.Head, v)
			}
		}
		qs[qi] = q
	}
	return qs, db, arity
}

// randomDelta draws one insert or delete over the instance's relations.
// Deletes prefer existing rows so they actually exercise removal.
func randomDelta(rng *rand.Rand, db *Database, arity []int) (rel string, tuple []string, insert bool) {
	consts := []string{"a", "b", "c", "1", "2"}
	r := rng.Intn(len(arity))
	rel = fmt.Sprintf("r%d", r)
	insert = rng.Intn(2) == 0
	if !insert {
		if rows := db.Relation(rel); len(rows) > 0 && rng.Intn(4) != 0 {
			return rel, append([]string(nil), rows[rng.Intn(len(rows))]...), false
		}
	}
	tuple = make([]string, arity[r])
	for j := range tuple {
		tuple[j] = consts[rng.Intn(len(consts))]
	}
	return rel, tuple, insert
}

// TestStandingMatchesFullReeval is the incremental differential property
// suite: 250 randomized insert/delete streams, asserting after every delta
// that the standing answer set is bit-identical to a full EvaluateCtx over
// a shadow database mutated in lockstep, at Jobs 1 and 3.
func TestStandingMatchesFullReeval(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ctx := context.Background()
	for trial := 0; trial < 250; trial++ {
		qs, db, arity := randomServingInstance(rng, 1)
		q := qs[0]
		jobs := []int{1, 3}[trial%2]
		opt := EvalOptions{Jobs: jobs}
		sq, err := NewStandingQuery(ctx, q, db, nil, opt)
		if err != nil {
			t.Fatalf("trial %d: NewStandingQuery: %v", trial, err)
		}
		shadow := db.Clone()
		for step := 0; step < 6; step++ {
			rel, tuple, insert := randomDelta(rng, shadow, arity)
			if insert {
				shadow.Add(rel, tuple...)
				if err := sq.Insert(ctx, rel, tuple...); err != nil {
					t.Fatalf("trial %d step %d: insert: %v", trial, step, err)
				}
			} else {
				shadow.Delete(rel, tuple...)
				if err := sq.Delete(ctx, rel, tuple...); err != nil {
					t.Fatalf("trial %d step %d: delete: %v", trial, step, err)
				}
			}
			want, err := EvaluateCtx(ctx, q, shadow, opt)
			if err != nil {
				t.Fatalf("trial %d step %d: full re-eval: %v", trial, step, err)
			}
			if got := sq.Answers(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d (jobs=%d): standing diverged on %s after %s %s%v\n got %v\nwant %v",
					trial, step, jobs, q, map[bool]string{true: "insert", false: "delete"}[insert],
					rel, tuple, got, want)
			}
		}
	}
}

// TestBatchMatchesPerQuery is the batch differential suite: shared-base
// batch answers must be bit-identical to evaluating each query alone, at
// Jobs 1 and 3.
func TestBatchMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ctx := context.Background()
	for trial := 0; trial < 250; trial++ {
		qs, db, _ := randomServingInstance(rng, 1+rng.Intn(4))
		jobs := []int{1, 3}[trial%2]
		opt := EvalOptions{Jobs: jobs}
		got, err := EvaluateBatchCtx(ctx, qs, db, opt)
		if err != nil {
			t.Fatalf("trial %d: batch: %v", trial, err)
		}
		if len(got) != len(qs) {
			t.Fatalf("trial %d: batch returned %d result sets for %d queries", trial, len(got), len(qs))
		}
		for i, q := range qs {
			want, err := EvaluateCtx(ctx, q, db, opt)
			if err != nil {
				t.Fatalf("trial %d query %d: per-query: %v", trial, i, err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("trial %d query %d (jobs=%d): batch diverged on %s\n got %v\nwant %v",
					trial, i, jobs, q, got[i], want)
			}
		}
	}
}

// TestBatchSharedJoinsCounter pins the amortization telemetry: a batch
// whose queries reuse relations must serve base relations from the shared
// intern store and say so in cq_batch_shared_joins.
func TestBatchSharedJoinsCounter(t *testing.T) {
	q, db := movieData()
	st := new(telemetry.Stats)
	qs := []*Query{q, q, q}
	rows, err := EvaluateBatchCtx(context.Background(), qs, db, EvalOptions{Stats: st, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if !reflect.DeepEqual(rows[i], want) {
			t.Fatalf("batch query %d diverged from solo evaluation", i)
		}
	}
	if got := st.Snapshot().CQBatchSharedJoins; got == 0 {
		t.Fatal("cq_batch_shared_joins = 0; batch interning amortized nothing")
	}
}

// TestStandingDeltaTelemetry pins the delta counter and trace spans: every
// Insert/Delete ticks cq_delta_tuples, and propagation emits balanced
// cq.delta spans on the configured track.
func TestStandingDeltaTelemetry(t *testing.T) {
	q, db := movieData()
	st := new(telemetry.Stats)
	tr := telemetry.NewTrace(0)
	ctx := context.Background()
	sq, err := NewStandingQuery(ctx, q, db, nil, EvalOptions{Jobs: 2, Stats: st, Trace: tr, Track: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sq.Insert(ctx, "cast", "heat", "kilmer"); err != nil {
		t.Fatal(err)
	}
	if err := sq.Delete(ctx, "cast", "heat", "kilmer"); err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshot().CQDeltaTuples; got != 2 {
		t.Fatalf("cq_delta_tuples = %d, want 2", got)
	}
	begins, ends := 0, 0
	for _, ev := range tr.Events() {
		if ev.Name != "cq.delta" {
			continue
		}
		switch ev.Kind {
		case telemetry.KindBegin:
			begins++
		case telemetry.KindEnd:
			ends++
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("cq.delta spans unbalanced: %d begins, %d ends", begins, ends)
	}
}

// TestStandingConcurrentDeltasDeterministic hammers one standing movie
// query with concurrent inserts and deletes (the -race workout for the
// delta mutex) and asserts the final answer set equals a full re-eval of
// the net database at every Jobs value.
func TestStandingConcurrentDeltasDeterministic(t *testing.T) {
	for _, jobs := range []int{0, 1, 2, 3} {
		q, db := movieData()
		ctx := context.Background()
		sq, err := NewStandingQuery(ctx, q, db, nil, EvalOptions{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		// Each worker inserts a private tuple set and deletes half of it
		// again, so the net database is independent of interleaving.
		const workers = 8
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				movie := fmt.Sprintf("movie%d", w)
				actor := fmt.Sprintf("actor%d", w)
				for _, step := range []func() error{
					func() error { return sq.Insert(ctx, "cast", movie, actor) },
					func() error { return sq.Insert(ctx, "directed", "mann", movie) },
					func() error { return sq.Insert(ctx, "worked", actor, "mann") },
					func() error { return sq.Delete(ctx, "worked", actor, "mann") },
					func() error { _ = sq.Answers(); return nil },
				} {
					if err := step(); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		shadow := db.Clone()
		for w := 0; w < workers; w++ {
			shadow.Add("cast", fmt.Sprintf("movie%d", w), fmt.Sprintf("actor%d", w))
			shadow.Add("directed", "mann", fmt.Sprintf("movie%d", w))
		}
		want, err := EvaluateCtx(ctx, q, shadow, EvalOptions{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if got := sq.Answers(); !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d: concurrent deltas diverged\n got %v\nwant %v", jobs, got, want)
		}
	}
}

// cancelCtx is a deterministic mid-flight cancellation harness: Done() is
// always closed (so pollers notice immediately), but Err() stays nil for
// the first `after` calls — letting entry checks pass and cancellation
// strike inside the work loops.
type cancelCtx struct {
	calls int32
	after int32
}

func (c *cancelCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *cancelCtx) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}
func (c *cancelCtx) Err() error {
	if atomic.AddInt32(&c.calls, 1) > c.after {
		return context.Canceled
	}
	return nil
}
func (c *cancelCtx) Value(any) any { return nil }

// TestStandingCancelMidDeltaRollsBack pins the rollback contract: a delta
// cancelled during propagation returns ctx.Err(), leaves the answer set
// untouched, and later deltas still agree with full re-evaluation.
func TestStandingCancelMidDeltaRollsBack(t *testing.T) {
	q, db := movieData()
	ctx := context.Background()
	sq, err := NewStandingQuery(ctx, q, db, nil, EvalOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := sq.Answers()
	// Entry check (one Err() call) passes; the first propagation poll hits
	// the closed Done channel and observes the cancellation.
	if err := sq.Insert(&cancelCtx{after: 1}, "cast", "heat", "kilmer"); err != context.Canceled {
		t.Fatalf("mid-delta cancel error = %v, want context.Canceled", err)
	}
	if got := sq.Answers(); !reflect.DeepEqual(got, before) {
		t.Fatalf("cancelled delta left partial answers\n got %v\nwant %v", got, before)
	}
	// An already-cancelled context must refuse before mutating anything.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sq.Insert(cctx, "cast", "heat", "kilmer"); err != context.Canceled {
		t.Fatalf("pre-cancelled delta error = %v, want context.Canceled", err)
	}
	// The handle must still work and agree with full re-eval.
	if err := sq.Insert(ctx, "cast", "heat", "kilmer"); err != nil {
		t.Fatal(err)
	}
	if err := sq.Insert(ctx, "worked", "kilmer", "mann"); err != nil {
		t.Fatal(err)
	}
	shadow := db.Clone()
	shadow.Add("cast", "heat", "kilmer")
	shadow.Add("worked", "kilmer", "mann")
	want, err := EvaluateCtx(ctx, q, shadow, EvalOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := sq.Answers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-rollback delta diverged\n got %v\nwant %v", got, want)
	}
}

// TestStandingDeadlinePassedBeforeTimerFires pins the rollback contract for
// a deadline the runtime has not yet delivered (see lateTimerCtx): opening
// and applying a delta both report context.DeadlineExceeded, the delta
// leaves the answer set untouched, and the next delta still agrees with a
// full re-evaluation.
func TestStandingDeadlinePassedBeforeTimerFires(t *testing.T) {
	q, db := movieData()
	ctx := context.Background()
	for _, jobs := range []int{1, 2} {
		opt := EvalOptions{Jobs: jobs}
		if sq, err := NewStandingQuery(lateTimerCtx{}, q, db, nil, opt); err != context.DeadlineExceeded || sq != nil {
			t.Fatalf("jobs=%d: NewStandingQuery = %v, %v; want nil, DeadlineExceeded", jobs, sq, err)
		}
		sq, err := NewStandingQuery(ctx, q, db, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		before := sq.Answers()
		if err := sq.Insert(lateTimerCtx{}, "cast", "taxi", "pacino"); err != context.DeadlineExceeded {
			t.Fatalf("jobs=%d: Insert error = %v, want context.DeadlineExceeded", jobs, err)
		}
		if got := sq.Answers(); !reflect.DeepEqual(got, before) {
			t.Fatalf("jobs=%d: expired delta changed the answers\n got %v\nwant %v", jobs, got, before)
		}
		if err := sq.Insert(ctx, "cast", "taxi", "pacino"); err != nil {
			t.Fatal(err)
		}
		shadow := db.Clone()
		shadow.Add("cast", "taxi", "pacino")
		want, err := EvaluateCtx(ctx, q, shadow, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := sq.Answers(); !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d: delta after the expired one diverged\n got %v\nwant %v", jobs, got, want)
		}
	}
}

// TestBatchCancelReturnsNoPartial pins batch cancellation: both a
// pre-cancelled context and one expiring mid-batch yield ctx.Err() and a
// nil result set.
func TestBatchCancelReturnsNoPartial(t *testing.T) {
	q, db := movieData()
	qs := []*Query{q, q, q}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := EvaluateBatchCtx(cctx, qs, db, EvalOptions{Jobs: 2})
	if err != context.Canceled || out != nil {
		t.Fatalf("pre-cancelled batch: out=%v err=%v", out, err)
	}
	out, err = EvaluateBatchCtx(&cancelCtx{after: 3}, qs, db, EvalOptions{Jobs: 1})
	if err != context.Canceled {
		t.Fatalf("mid-batch cancel error = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("mid-batch cancel returned partial results: %v", out)
	}
}

// TestStandingDeltaValidation pins the edge contracts: arity mismatches
// are rejected before any state changes, deletes of absent tuples are
// no-ops, and duplicate inserts keep set semantics.
func TestStandingDeltaValidation(t *testing.T) {
	q, db := movieData()
	ctx := context.Background()
	sq, err := NewStandingQuery(ctx, q, db, nil, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := sq.Answers()
	if err := sq.Insert(ctx, "cast", "heat"); err == nil {
		t.Fatal("arity-mismatched insert must error")
	}
	if got := sq.Answers(); !reflect.DeepEqual(got, before) {
		t.Fatal("failed insert mutated answers")
	}
	if err := sq.Delete(ctx, "cast", "nosuch", "row"); err != nil {
		t.Fatalf("delete of absent tuple: %v", err)
	}
	if got := sq.Answers(); !reflect.DeepEqual(got, before) {
		t.Fatal("no-op delete mutated answers")
	}
	// Duplicate insert then single delete: set semantics keep the row.
	if err := sq.Insert(ctx, "cast", "heat", "deniro"); err != nil {
		t.Fatal(err)
	}
	if err := sq.Delete(ctx, "cast", "heat", "deniro"); err != nil {
		t.Fatal(err)
	}
	if got := sq.Answers(); !reflect.DeepEqual(got, before) {
		t.Fatalf("multiplicity bookkeeping broke set semantics\n got %v\nwant %v", got, before)
	}
}

// TestBatchSharesPlans asserts shape-identical queries reuse one
// decomposition through the plan cache while still answering correctly.
func TestBatchSharesPlans(t *testing.T) {
	db := NewDatabase()
	db.Add("r0", "a", "b")
	db.Add("r0", "b", "c")
	q1, err := Parse("ans(X, Z) :- r0(X, Y), r0(Y, Z).")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse("ans(A, C) :- r0(A, B), r0(B, C).")
	if err != nil {
		t.Fatal(err)
	}
	out, err := EvaluateBatchCtx(context.Background(), []*Query{q1, q2}, db, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a", "c"}}
	if !reflect.DeepEqual(out[0], want) || !reflect.DeepEqual(out[1], want) {
		t.Fatalf("plan-shared batch answered %v / %v, want %v", out[0], out[1], want)
	}
	if _, err := EvaluateBatchWithCtx(context.Background(), []*Query{q1, q2}, db, nil, EvalOptions{}); err == nil {
		t.Fatal("mismatched plan slice must error")
	}
}
