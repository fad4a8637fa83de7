package interrupt

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestBackgroundNeverStops(t *testing.T) {
	c := New(context.Background(), 1)
	for i := 0; i < 1000; i++ {
		if c.Stop() {
			t.Fatal("background context reported cancelled")
		}
	}
	if c.Now() {
		t.Fatal("Now() on background context reported cancelled")
	}
}

func TestStopLatchesAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ctx, 4)
	if c.Stop() {
		t.Fatal("cancelled before cancel()")
	}
	cancel()
	if c.Stopped() {
		t.Fatal("Stopped reported a cancellation no poll has observed")
	}
	// The stride means up to `every` calls may pass before detection.
	seen := false
	for i := 0; i < 8; i++ {
		if c.Stop() {
			seen = true
			break
		}
	}
	if !seen {
		t.Fatal("cancellation not observed within one stride")
	}
	if !c.Stopped() || !c.Stop() || !c.Now() {
		t.Fatal("cancellation did not latch")
	}
}

func TestNowDetectsImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ctx, 1000)
	cancel()
	if !c.Now() {
		t.Fatal("Now() missed cancellation")
	}
}

// TestDeadlineByWallClock exercises the time.Now() fallback: a passed
// deadline must be detected at the next poll even if the runtime has not
// yet delivered the context's timer (GOMAXPROCS=1 under load can lag the
// Done channel by tens of milliseconds).
func TestDeadlineByWallClock(t *testing.T) {
	deadline := time.Now().Add(time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	c := New(ctx, 1)
	for time.Now().Before(deadline) {
		c.Stop() // may or may not fire while the deadline is in the future
	}
	if !c.Stop() {
		t.Fatal("poll after the deadline did not report stopped")
	}
	if err := Cause(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Cause = %v, want DeadlineExceeded", err)
	}
}

func TestCause(t *testing.T) {
	if err := Cause(context.Background()); err != nil {
		t.Fatalf("Cause(Background) = %v, want nil", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Cause(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Cause(cancelled) = %v, want Canceled", err)
	}
	future, cancel2 := context.WithTimeout(context.Background(), time.Hour)
	defer cancel2()
	if err := Cause(future); err != nil {
		t.Fatalf("Cause(future deadline) = %v, want nil", err)
	}
}

func TestZeroStrideDefaultsToOne(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := New(ctx, 0)
	if c.every != 1 {
		t.Fatalf("every = %d, want 1", c.every)
	}
}
