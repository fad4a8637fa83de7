// Package interrupt provides a low-overhead cancellation poller for the
// inner loops of the decomposition searches.
//
// Checking a context.Context's Done channel involves a select, which is too
// expensive to run on every search-tree node or fitness evaluation. A
// Checker amortises the cost: it polls only once every `every` calls, and
// latches once cancellation has been observed. For contexts that can never
// be cancelled (context.Background, context.TODO) the Done channel is nil
// and every call takes the trivial fast path.
//
// Deadlines are additionally checked against the wall clock. The runtime
// delivers context timers through the scheduler, which under a busy
// single-P process can lag the deadline by tens of milliseconds; comparing
// time.Now() against the deadline at each poll keeps cancellation latency
// bounded by the polling stride alone.
package interrupt

import (
	"context"
	"time"
)

// Checker polls a context's cancellation state at a configurable stride.
// It is NOT safe for concurrent use; create one per goroutine.
type Checker struct {
	done        <-chan struct{}
	deadline    time.Time
	hasDeadline bool
	every       uint32
	calls       uint32
	stopped     bool
}

// New returns a Checker over ctx that inspects the cancellation state once
// every `every` calls to Stop (minimum 1).
func New(ctx context.Context, every uint32) *Checker {
	c := new(Checker)
	c.Reset(ctx, every)
	return c
}

// Reset makes c a fresh Checker over ctx, as New would return, without
// allocating: a kernel that runs many short polled loops keeps one Checker
// and resets it per loop.
func (c *Checker) Reset(ctx context.Context, every uint32) {
	if every == 0 {
		every = 1
	}
	*c = Checker{done: ctx.Done(), every: every}
	c.deadline, c.hasDeadline = ctx.Deadline()
}

// Stop reports whether the context has been cancelled or its deadline has
// passed. At most one in `every` calls actually polls; once cancellation is
// observed the result stays true forever.
func (c *Checker) Stop() bool {
	if c.stopped {
		return true
	}
	if c.done == nil {
		return false
	}
	c.calls++
	if c.calls%c.every != 0 {
		return false
	}
	return c.poll()
}

// Stopped reports whether an earlier Stop or Now call has observed
// cancellation, without polling: runs that share one Checker use it to
// leave off work once any of them has stopped.
func (c *Checker) Stopped() bool { return c.stopped }

// Now reports whether the context has been cancelled, polling
// unconditionally (for use at natural checkpoints such as phase
// boundaries, where the amortised stride would delay detection).
func (c *Checker) Now() bool {
	if c.stopped {
		return true
	}
	if c.done == nil {
		return false
	}
	return c.poll()
}

// Cause returns ctx's cancellation error for reporting purposes. A passed
// deadline whose runtime timer has not yet been delivered (so ctx.Err() is
// still nil) maps to context.DeadlineExceeded, matching what Checker
// observed via the wall clock.
func Cause(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *Checker) poll() bool {
	if c.hasDeadline && !time.Now().Before(c.deadline) {
		c.stopped = true
		return true
	}
	select {
	case <-c.done:
		c.stopped = true
		return true
	default:
		return false
	}
}
