package htd

import (
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypertree/internal/cq"
)

// colouringCycle is the 3-colouring CSP of an n-cycle.
func colouringCycle(n int) *CSP {
	c := &CSP{VarNames: make([]string, n), Domains: make([][]int, n)}
	for v := range c.Domains {
		c.VarNames[v] = "v" + strconv.Itoa(v)
		c.Domains[v] = []int{0, 1, 2}
	}
	for v := range n {
		var neq [][]int
		for x := range 3 {
			for y := range 3 {
				if x != y {
					neq = append(neq, []int{x, y})
				}
			}
		}
		c.Constraints = append(c.Constraints, &Constraint{
			Name: "e" + strconv.Itoa(v), Rel: NewRelation([]int{v, (v + 1) % n}, neq),
		})
	}
	return c
}

// 64 binary variables under one unary constraint have 2^64 solutions,
// which no int holds: counting must report the overflow, not wrap to 0.
func TestCountCSPOverflow(t *testing.T) {
	c := &CSP{VarNames: make([]string, 64), Domains: make([][]int, 64)}
	for v := range c.Domains {
		c.VarNames[v] = "x" + strconv.Itoa(v)
		c.Domains[v] = []int{0, 1}
	}
	c.Constraints = []*Constraint{{Name: "u", Rel: NewRelation([]int{0}, [][]int{{0}, {1}})}}
	if n, err := CountCSP(c, Options{Method: MethodMinFill}); err == nil {
		t.Fatalf("CountCSP = %d with no error; the count is 2^64", n)
	}
	// One variable fewer fits: 2^63 does not, 2^62 does.
	c.VarNames, c.Domains = c.VarNames[:62], c.Domains[:62]
	if n, err := CountCSP(c, Options{Method: MethodMinFill}); err != nil || n != 1<<62 {
		t.Fatalf("CountCSP = %d, %v; want 2^62", n, err)
	}
}

// SolveCSPFromDecomposition validates the CSP before solving: a tuple
// outside its variables' domains is an error, not a solution that Check
// rejects.
func TestSolveCSPFromDecompositionValidates(t *testing.T) {
	c := &CSP{
		VarNames:    []string{"x", "y"},
		Domains:     [][]int{{0}, {0}},
		Constraints: []*Constraint{{Name: "xy", Rel: NewRelation([]int{0, 1}, [][]int{{1, 1}})}},
	}
	d, err := DecomposeOrdering(c.Hypergraph(), Ordering{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol, ok, err := SolveCSPFromDecomposition(c, d); err == nil {
		t.Fatalf("invalid CSP solved: %v, %v", sol, ok)
	}
}

// A decomposition of another hypergraph is an error on every query entry
// point that takes one, never a panic in a worker.
func TestQueryRejectsForeignDecomposition(t *testing.T) {
	q, err := ParseQuery("ans(X) :- r(X, Y), s(Y).")
	if err != nil {
		t.Fatal(err)
	}
	big, err := ParseQuery("ans(X) :- r(X, Y), s(Y, Z), t(Z, W), u(W).")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.Add("r", "1", "2")
	db.Add("s", "2")
	ctx := context.Background()
	for _, jobs := range []int{1, 3} {
		opt := Options{Jobs: jobs}
		foreign := func() *Decomposition {
			d, err := Decompose(big.Hypergraph(), Options{Method: MethodMinFill})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		if rows, err := AnswerQueryWithCtx(ctx, q, db, foreign(), opt); err == nil {
			t.Fatalf("AnswerQueryWithCtx = %v, want an error", rows)
		}
		if sat, err := BooleanQueryWithCtx(ctx, q, db, foreign(), opt); err == nil || sat {
			t.Fatalf("BooleanQueryWithCtx = %v, %v; want an error", sat, err)
		}
		if sq, err := OpenStandingQueryWith(ctx, q, db, foreign(), opt); err == nil || sq != nil {
			t.Fatalf("OpenStandingQueryWith = %v, %v; want an error", sq, err)
		}
		if rows, err := cq.EvaluateBatchWithCtx(ctx, []*Query{q}, db, []*Decomposition{foreign()}, evalOptions(opt)); err == nil {
			t.Fatalf("EvaluateBatchWithCtx = %v, want an error", rows)
		}
	}
	// A decomposition of the right hypergraph that is no GHD of it is
	// refused as well: here λ is missing.
	d, err := Decompose(q.Hypergraph(), Options{Method: MethodMinFill})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nodes() {
		n.Lambda = nil
	}
	if _, err := AnswerQueryWithCtx(ctx, q, db, d, Options{}); err == nil || !strings.Contains(err.Error(), "invalid decomposition") {
		t.Fatalf("AnswerQueryWithCtx over a λ-less decomposition: %v", err)
	}
}

// countdownCtx is a context that cancels itself at the after-th call of
// Done. Every cancellation poller takes Done once when it is made, so the
// cancellation lands at a fixed point of a run, whatever the timing.
type countdownCtx struct {
	context.Context
	after int32
	calls atomic.Int32
	done  chan struct{}
	once  sync.Once
}

func newCountdownCtx(after int32) *countdownCtx {
	return &countdownCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} {
	if c.calls.Add(1) >= c.after {
		c.once.Do(func() { close(c.done) })
	}
	return c.done
}

func (c *countdownCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestCSPCtxCancellation holds SolveCSPCtx and CountCSPCtx to cq's
// cancellation contract: an expired deadline returns
// context.DeadlineExceeded promptly, and a cancel that lands while the
// flow runs returns context.Canceled; neither returns a partial result.
// The mid-run cancel fires at a Done call half way between the end of the
// decomposition and the end of the uncancelled run.
func TestCSPCtxCancellation(t *testing.T) {
	c := colouringCycle(40)
	for _, jobs := range []int{1, 3} {
		opt := Options{Method: MethodMinFill, Jobs: jobs}
		runs := []struct {
			name string
			run  func(ctx context.Context) (any, error)
		}{
			{"SolveCSPCtx", func(ctx context.Context) (any, error) {
				sol, ok, err := SolveCSPCtx(ctx, c, opt)
				if ok {
					return sol, err
				}
				return nil, err
			}},
			{"CountCSPCtx", func(ctx context.Context) (any, error) {
				n, err := CountCSPCtx(ctx, c, opt)
				if n != 0 {
					return n, err
				}
				return nil, err
			}},
		}
		for _, r := range runs {
			start := time.Now()
			dctx, cancel := context.WithDeadline(context.Background(), start.Add(-time.Second))
			res, err := r.run(dctx)
			cancel()
			if err != context.DeadlineExceeded || res != nil {
				t.Fatalf("jobs=%d: %s past its deadline = %v, %v; want no result, context.DeadlineExceeded", jobs, r.name, res, err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("jobs=%d: %s took %v past its deadline", jobs, r.name, elapsed)
			}

			count := newCountdownCtx(math.MaxInt32)
			if _, err := DecomposeCtx(count, c.Hypergraph(), opt); err != nil {
				t.Fatal(err)
			}
			planned := count.calls.Load()
			count = newCountdownCtx(math.MaxInt32)
			if res, err := r.run(count); err != nil || res == nil {
				t.Fatalf("jobs=%d: %s = %v, %v", jobs, r.name, res, err)
			}
			total := count.calls.Load()
			if total < planned+2 {
				t.Fatalf("jobs=%d: %s polled %d times, %d of them to decompose", jobs, r.name, total, planned)
			}
			mid := newCountdownCtx(planned + (total-planned)/2 + 1)
			if res, err := r.run(mid); err != context.Canceled || res != nil {
				t.Fatalf("jobs=%d: %s cancelled mid-run = %v, %v; want no result, context.Canceled", jobs, r.name, res, err)
			}
		}
	}
}
