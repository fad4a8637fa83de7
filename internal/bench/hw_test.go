package bench

import (
	"regexp"
	"testing"
	"time"
)

// TestRunHWExactRecordsCarryTheirBound runs the hypertree-width shoot-out
// on adder_10, where det-k and the balanced engine both close the
// instance: every exact record must carry LowerBound == Width, det-k's
// included.
func TestRunHWExactRecordsCarryTheirBound(t *testing.T) {
	rep := RunHW(Config{Seed: 1, Timeout: 10 * time.Second, Instances: regexp.MustCompile(`^adder_10$`)})
	if want := 1 + len(hwJobs); len(rep.Records) != want {
		t.Fatalf("%d records, want %d", len(rep.Records), want)
	}
	for _, r := range rep.Records {
		if r.Error != "" {
			t.Fatalf("%s %s: %s", r.Instance, r.Method, r.Error)
		}
		if !r.Exact || r.Width != 2 || r.LowerBound != r.Width {
			t.Errorf("%s %s: width=%d lower_bound=%d exact=%v, want an exact width 2 with its bound",
				r.Instance, r.Method, r.Width, r.LowerBound, r.Exact)
		}
	}
}
