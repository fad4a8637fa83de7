package cq

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/telemetry"
)

// movieData replicates the examples/queries workload: the movie database
// and its cyclic triangle join.
func movieData() (*Query, *Database) {
	db := NewDatabase()
	for _, t := range [][2]string{
		{"heat", "deniro"}, {"heat", "pacino"},
		{"taxi", "deniro"}, {"irishman", "deniro"}, {"irishman", "pacino"},
		{"serpico", "pacino"},
	} {
		db.Add("cast", t[0], t[1])
	}
	for _, t := range [][2]string{
		{"mann", "heat"}, {"scorsese", "taxi"}, {"scorsese", "irishman"},
		{"lumet", "serpico"},
	} {
		db.Add("directed", t[0], t[1])
	}
	for _, t := range [][2]string{
		{"deniro", "scorsese"}, {"pacino", "scorsese"},
		{"deniro", "mann"}, {"pacino", "mann"}, {"pacino", "lumet"},
	} {
		db.Add("worked", t[0], t[1])
	}
	q, err := Parse("ans(A, M, D) :- cast(M, A), directed(D, M), worked(A, D).")
	if err != nil {
		panic(err)
	}
	return q, db
}

// randomEvalInstance builds a small random query + database pair: shared
// relation names with fixed arities, repeated variables, constants, and
// occasionally fully ground atoms.
func randomEvalInstance(rng *rand.Rand) (*Query, *Database) {
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
	return q, db
}

// TestEvaluateCtxMatchesNaive is the differential property test: the
// decomposition engine must agree with the nested-loop reference
// row-for-row on randomized instances, sequentially and in parallel.
func TestEvaluateCtxMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ctx := context.Background()
	for trial := 0; trial < 250; trial++ {
		q, db := randomEvalInstance(rng)
		want, err := NaiveEvaluate(q, db)
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}
		seq, err := EvaluateCtx(ctx, q, db, EvalOptions{Jobs: 1})
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		if !reflect.DeepEqual(seq, want) {
			t.Fatalf("trial %d: engine disagrees with naive on %s\n got %v\nwant %v",
				trial, q, seq, want)
		}
		par, err := EvaluateCtx(ctx, q, db, EvalOptions{Jobs: 1 + rng.Intn(7)})
		if err != nil {
			t.Fatalf("trial %d: parallel: %v", trial, err)
		}
		if !reflect.DeepEqual(par, seq) {
			t.Fatalf("trial %d: parallel differs from sequential on %s", trial, q)
		}
		sat, err := BooleanCtx(ctx, q, db, EvalOptions{Jobs: 2})
		if err != nil {
			t.Fatalf("trial %d: boolean: %v", trial, err)
		}
		if sat != (len(want) > 0) {
			t.Fatalf("trial %d: boolean %v but naive found %d rows on %s",
				trial, sat, len(want), q)
		}
	}
}

// TestParallelDeterministicOnMovieWorkload runs the examples/queries
// triangle join concurrently at several Jobs settings sharing one Stats
// sink — the -race workout for the worker pool and the atomic counters.
func TestParallelDeterministicOnMovieWorkload(t *testing.T) {
	q, db := movieData()
	want, err := Evaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("movie workload must have answers")
	}
	st := new(telemetry.Stats)
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs := []int{0, 1, 2, 3}[i%4]
			rows, err := EvaluateCtx(context.Background(), q, db, EvalOptions{Jobs: jobs, Stats: st})
			if err != nil {
				errs[i] = err
				return
			}
			if !reflect.DeepEqual(rows, want) {
				errs[i] = fmt.Errorf("jobs=%d: rows diverged", jobs)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := st.Snapshot()
	if snap.CQJoinTuples == 0 || snap.CQOutputJoins == 0 {
		t.Fatalf("counters not recorded: %+v", snap)
	}
}

// TestExpiredContextReturnsPromptly pins the cancellation contract: an
// already-expired context yields ctx.Err() and no partial results, from
// both the evaluating and the Boolean entry points.
func TestExpiredContextReturnsPromptly(t *testing.T) {
	q, db := movieData()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rows, err := EvaluateCtx(ctx, q, db, EvalOptions{Jobs: 3})
	if err != context.Canceled {
		t.Fatalf("EvaluateCtx error = %v, want context.Canceled", err)
	}
	if rows != nil {
		t.Fatalf("cancelled evaluation returned partial results: %v", rows)
	}
	if _, err := BooleanCtx(ctx, q, db, EvalOptions{}); err != context.Canceled {
		t.Fatalf("BooleanCtx error = %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := EvaluateCtx(dctx, q, db, EvalOptions{Jobs: 2}); err != context.DeadlineExceeded {
		t.Fatalf("expired deadline error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled runs took %v; cancellation must be prompt", elapsed)
	}
}

// lateTimerCtx is a context whose deadline has passed but whose timer the
// runtime has not delivered yet: Done is still open and Err still nil.
// interrupt.Checker stops on the wall clock in this window, so whatever a
// fired poll reports must not come from Err.
type lateTimerCtx struct{}

var lateTimerDone = make(chan struct{})

func (lateTimerCtx) Deadline() (time.Time, bool) { return time.Unix(1, 0), true }
func (lateTimerCtx) Done() <-chan struct{}       { return lateTimerDone }
func (lateTimerCtx) Err() error                  { return nil }
func (lateTimerCtx) Value(any) any               { return nil }

// TestFiredPollNeverReportsNil pins what a cancellation poll reports when
// it fires while ctx.Err() is still nil. With the deadline past but its
// timer not yet delivered, every one-shot entry point reports
// context.DeadlineExceeded; with Done closed but Err lagging (the
// countdown harness at its limit), context.Canceled. Either way there are
// no rows and no verdict, and no pass runs on with half-computed node
// relations.
func TestFiredPollNeverReportsNil(t *testing.T) {
	q, db := movieData()
	unsat, err := Parse("ans() :- cast(M, A), directed(nobody, M).")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"deadline passed before its timer fired", lateTimerCtx{}, context.DeadlineExceeded},
		{"done closed before Err is set", &cancelCtx{after: math.MaxInt32}, context.Canceled},
	} {
		for _, jobs := range []int{1, 2} {
			opt := EvalOptions{Jobs: jobs}
			rows, err := EvaluateCtx(tc.ctx, q, db, opt)
			if err != tc.want || rows != nil {
				t.Fatalf("%s, jobs=%d: EvaluateCtx = %v, %v; want no rows, %v", tc.name, jobs, rows, err, tc.want)
			}
			batch, err := EvaluateBatchCtx(tc.ctx, []*Query{q, q}, db, opt)
			if err != tc.want || batch != nil {
				t.Fatalf("%s, jobs=%d: EvaluateBatchCtx = %v, %v; want no rows, %v", tc.name, jobs, batch, err, tc.want)
			}
			for _, bq := range []*Query{q, unsat} {
				sat, err := BooleanCtx(tc.ctx, bq, db, opt)
				if err != tc.want || sat {
					t.Fatalf("%s, jobs=%d: BooleanCtx(%s) = %v, %v; want false, %v", tc.name, jobs, bq, sat, err, tc.want)
				}
			}
		}
	}
}

// TestBooleanSkipsOutputPass is the regression test for the old Boolean
// implementation, which materialized and sorted every answer row: the
// Boolean path must perform zero output-pass joins (it stops after the
// bottom-up full reducer), while full evaluation performs at least one
// per node.
func TestBooleanSkipsOutputPass(t *testing.T) {
	q, db := movieData()
	st := new(telemetry.Stats)
	sat, err := BooleanCtx(context.Background(), q, db, EvalOptions{Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Fatal("movie workload must be satisfiable")
	}
	if got := st.Snapshot().CQOutputJoins; got != 0 {
		t.Fatalf("Boolean ran %d output-pass node visits, want 0", got)
	}
	if st.Snapshot().CQSemijoinTuples == 0 {
		t.Fatal("Boolean recorded no semijoin work; did the reducer run?")
	}
	st2 := new(telemetry.Stats)
	if _, err := EvaluateCtx(context.Background(), q, db, EvalOptions{Stats: st2}); err != nil {
		t.Fatal(err)
	}
	if st2.Snapshot().CQOutputJoins == 0 {
		t.Fatal("full evaluation recorded no output-pass work")
	}

	// An unsatisfiable body must come back false without output work too.
	uq, err := Parse("ans() :- cast(M, A), directed(nobody, M).")
	if err != nil {
		t.Fatal(err)
	}
	st3 := new(telemetry.Stats)
	sat, err = BooleanCtx(context.Background(), uq, db, EvalOptions{Stats: st3})
	if err != nil || sat {
		t.Fatalf("unsatisfiable query: sat=%v err=%v", sat, err)
	}
	if got := st3.Snapshot().CQOutputJoins; got != 0 {
		t.Fatalf("unsatisfiable Boolean ran %d output-pass node visits", got)
	}
}

// TestEngineTraceSpansBalanced asserts the engine emits balanced
// per-pass spans on the configured track.
func TestEngineTraceSpansBalanced(t *testing.T) {
	q, db := movieData()
	tr := telemetry.NewTrace(0)
	if _, err := EvaluateCtx(context.Background(), q, db, EvalOptions{Jobs: 2, Trace: tr, Track: 7}); err != nil {
		t.Fatal(err)
	}
	depth := 0
	seen := map[string]bool{}
	for _, ev := range tr.Events() {
		if ev.Track != 7 {
			t.Fatalf("event %q on track %d, want 7", ev.Name, ev.Track)
		}
		switch ev.Kind {
		case telemetry.KindBegin:
			depth++
			seen[ev.Name] = true
		case telemetry.KindEnd:
			depth--
			if depth < 0 {
				t.Fatal("End without Begin")
			}
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced spans: depth %d at end", depth)
	}
	for _, name := range []string{"cq.base", "cq.reduce.up", "cq.reduce.down", "cq.output"} {
		if !seen[name] {
			t.Fatalf("missing %s span; saw %v", name, seen)
		}
	}
}

// TestAnswerRowsDistinctWithoutDedupe pins the invariant assembleAnswers
// relies on instead of a seen-set: the root's out rows are distinct and all
// its columns are head variables. A head that repeats a variable and a head
// that is a strict subset of the root bag both make many body matches
// collapse onto one answer; each must yield distinct rows equal to
// NaiveEvaluate's, one-shot and standing, over the default decomposition
// and over one bag holding the whole body.
func TestAnswerRowsDistinctWithoutDedupe(t *testing.T) {
	db := NewDatabase()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		db.Add("e", fmt.Sprint(rng.Intn(6)), fmt.Sprint(rng.Intn(6)))
	}
	ctx := context.Background()
	for _, text := range []string{
		"ans(X, X) :- e(X, Y), e(Y, Z).",
		"ans(Y, Y, X) :- e(X, Y), e(Y, Z), e(Z, X).",
		"ans(Y) :- e(X, Y), e(Y, Z), e(Z, X).",
	} {
		q, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NaiveEvaluate(q, db)
		if err != nil {
			t.Fatal(err)
		}
		oneBag := decomp.New(q.Hypergraph())
		root := addBag(oneBag, nil, q.Vars())
		for e := range q.Body {
			root.Lambda = append(root.Lambda, e)
		}
		distinct := map[string]bool{}
		for _, hv := range q.Head {
			distinct[hv] = true
		}
		if len(distinct) >= root.Chi.Len() {
			t.Fatalf("%s: the head is no strict subset of the root bag", text)
		}
		for _, d := range []*decomp.Decomposition{defaultDecomposition(q), oneBag} {
			got, err := EvaluateWithCtx(ctx, q, db, d, EvalOptions{Jobs: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\n got %v\nwant %v", text, got, want)
			}
			for i := 1; i < len(got); i++ {
				if reflect.DeepEqual(got[i-1], got[i]) {
					t.Fatalf("%s: duplicate answer row %v", text, got[i])
				}
			}
			sq, err := NewStandingQuery(ctx, q, db, d, EvalOptions{Jobs: 2})
			if err != nil {
				t.Fatal(err)
			}
			if ans := sq.Answers(); !reflect.DeepEqual(ans, want) {
				t.Fatalf("%s: standing answers\n got %v\nwant %v", text, ans, want)
			}
		}
	}
}

// TestProjectingStepsKeepJoinKeys pins the keep sets of the projecting
// steps on a decomposition built to need each of them. The root's λ joins
// r(A,X), t(A,B), s(X,B) with χ = {A,B}: X lies outside χ, but r and s
// share it, so trimming must keep it, and so must the join of r with t,
// which s still follows. The root's three children all share B, which is
// neither a head nor a parent variable, so the output join with the first
// child must keep B for the later two. Every base relation must equal
// π_χ(⋈λ) and the answers NaiveEvaluate's.
func TestProjectingStepsKeepJoinKeys(t *testing.T) {
	q := mustParse(t, "ans(C, D) :- r(A, X), t(A, B), s(X, B), u(B, C), w(B, D).")
	// Only X ties A to B, and only B ties C to D: t holds every (A, B) pair,
	// but r and s admit (a1, b1) and (a2, b2) alone, so the answers are
	// (c1, d1) and (c2, d2), not all four pairs.
	db := NewDatabase()
	for _, row := range [][3]string{
		{"r", "a1", "x1"}, {"r", "a2", "x2"},
		{"s", "x1", "b1"}, {"s", "x2", "b2"},
		{"t", "a1", "b1"}, {"t", "a1", "b2"}, {"t", "a2", "b1"}, {"t", "a2", "b2"},
		{"u", "b1", "c1"}, {"u", "b2", "c2"},
		{"w", "b1", "d1"}, {"w", "b2", "d2"},
	} {
		db.Add(row[0], row[1], row[2])
	}
	d := decomp.New(q.Hypergraph())
	root := addBag(d, nil, []string{"A", "B"}, 0, 1, 2)
	addBag(d, root, []string{"A", "X", "B"}, 0, 2)
	addBag(d, root, []string{"B", "C"}, 3)
	addBag(d, root, []string{"B", "D"}, 4)
	if err := d.ValidateGHD(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	in, err := newInstance(q, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	name := map[int]string{}
	for v, i := range in.varIndex {
		name[i] = v
	}
	f, err := newFlow(in, d, q.Head, EvalOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range f.nodes {
		base, err := f.baseStep(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		// π_χ(⋈λ) by the nested-loop reference: λ as body, χ as head.
		bag := &Query{}
		for _, a := range n.Lambda {
			bag.Body = append(bag.Body, q.Body[a])
		}
		for _, v := range n.Chi.Slice() {
			bag.Head = append(bag.Head, name[v])
		}
		want, err := NaiveEvaluate(bag, db)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := assembleAnswers(bag, in, base); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: base %v (%v), want %v", i, got, err, want)
		}
	}

	want, err := NaiveEvaluate(q, db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateWithCtx(ctx, q, db, d, EvalOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || len(want) != 2 {
		t.Fatalf("answers\n got %v\nwant %v (two rows)", got, want)
	}
}

// addBag adds a node to d with χ the named variables and λ the given atoms.
func addBag(d *decomp.Decomposition, parent *decomp.Node, vars []string, atoms ...int) *decomp.Node {
	chi := bitset.New(d.H.NumVertices())
	for _, v := range vars {
		chi.Add(d.H.VertexIndex(v))
	}
	n := d.AddNode(chi, parent)
	n.Lambda = atoms
	return n
}
