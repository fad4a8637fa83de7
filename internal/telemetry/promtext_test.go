package telemetry

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promFamily is one parsed metric family of a text-format exposition.
type promFamily struct {
	typ     string
	samples map[string]float64 // sample suffix+labels → value
	buckets []promBucket       // histogram buckets in exposition order
}

type promBucket struct {
	le  float64
	cum float64
}

// parseProm is a small validating parser for the Prometheus text format
// v0.0.4 subset WriteProm emits: it checks HELP/TYPE ordering, that every
// sample belongs to a declared family, numeric values, and histogram
// bucket shape. It is intentionally strict — a malformed exposition should
// fail the test, not round-trip.
func parseProm(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	var cur string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if _, dup := fams[parts[0]]; dup {
				t.Fatalf("line %d: duplicate family %q", ln+1, parts[0])
			}
			fams[parts[0]] = &promFamily{samples: map[string]float64{}}
			cur = parts[0]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || parts[0] != cur {
				t.Fatalf("line %d: TYPE not immediately after its HELP: %q", ln+1, line)
			}
			fams[cur].typ = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment: %q", ln+1, line)
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("line %d: no value: %q", ln+1, line)
		}
		name, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		base := name
		if i := strings.Index(base, "{"); i >= 0 {
			base = base[:i]
		}
		base = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base, "_bucket"), "_sum"), "_count")
		fam, ok := fams[base]
		if !ok {
			t.Fatalf("line %d: sample %q has no declared family", ln+1, name)
		}
		fam.samples[strings.TrimPrefix(name, base)] = val
		if strings.Contains(name, "_bucket{le=") {
			leStr := name[strings.Index(name, `le="`)+4:]
			leStr = leStr[:strings.Index(leStr, `"`)]
			le := 0.0
			if leStr == "+Inf" {
				le = float64(1 << 62)
			} else if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				t.Fatalf("line %d: bad le %q: %v", ln+1, leStr, err)
			}
			fam.buckets = append(fam.buckets, promBucket{le: le, cum: val})
		}
	}
	return fams
}

// TestWritePromValid drives a Stats through every histogram point, renders
// the exposition, and validates it with the parser: ≥ 4 histogram
// families with observations, cumulative non-decreasing buckets ending at
// +Inf == _count, and counters matching the snapshot.
func TestWritePromValid(t *testing.T) {
	var s Stats
	s.Add(Nodes, 1)
	s.Add(Nodes, 1)
	s.AddSnapshot(Snapshot{CoverHits: 3, CoverMisses: 2, CoverEvictions: 1})
	for i := 0; i < 100; i++ {
		s.Observe(CoverProbeNs, time.Duration(i)*time.Microsecond)
		s.Observe(CoverSolveNs, time.Duration(i)*3*time.Microsecond)
		s.Observe(CQLevelWaitNs, time.Duration(i)*10*time.Nanosecond)
		s.Observe(CQBatchNs, time.Duration(i)*time.Millisecond)
		s.Observe(CQDeltaApplyNs, time.Duration(i)*7*time.Microsecond)
	}
	s.Observe(FirstIncumbentNs, 42*time.Millisecond)

	var b strings.Builder
	if err := WriteProm(&b, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	fams := parseProm(t, b.String())

	if v := fams["htd_nodes_total"].samples[""]; v != 2 {
		t.Errorf("htd_nodes_total = %v, want 2", v)
	}
	if v := fams["htd_cover_hits_total"].samples[""]; v != 3 {
		t.Errorf("htd_cover_hits_total = %v, want 3", v)
	}

	histFams := 0
	for name, fam := range fams {
		if fam.typ != "histogram" {
			continue
		}
		count := fam.samples["_count"]
		if count > 0 {
			histFams++
		}
		if len(fam.buckets) == 0 {
			t.Errorf("%s: no buckets", name)
			continue
		}
		for i := 1; i < len(fam.buckets); i++ {
			if fam.buckets[i].le <= fam.buckets[i-1].le {
				t.Errorf("%s: le not increasing at %d", name, i)
			}
			if fam.buckets[i].cum < fam.buckets[i-1].cum {
				t.Errorf("%s: cumulative count decreasing at %d", name, i)
			}
		}
		last := fam.buckets[len(fam.buckets)-1]
		if last.le != float64(1<<62) {
			t.Errorf("%s: final bucket is not +Inf", name)
		}
		if last.cum != count {
			t.Errorf("%s: +Inf bucket %v != _count %v", name, last.cum, count)
		}
		if count > 0 && fam.samples["_sum"] <= 0 {
			t.Errorf("%s: _sum not positive with %v observations", name, count)
		}
	}
	if histFams < 4 {
		t.Errorf("only %d histogram families carry observations, want ≥ 4", histFams)
	}
}

// TestPromHandler scrapes the /metrics handler over HTTP, exactly as a
// Prometheus collector would against the -pprof debug server, and checks
// content type, swappable-holder behaviour, and quantile plausibility.
func TestPromHandler(t *testing.T) {
	var a Stats
	a.Observe(CoverProbeNs, time.Millisecond)
	PublishExpvar("promtext_test_stats", &a)

	srv := httptest.NewServer(PromHandler("promtext_test_stats"))
	defer srv.Close()

	scrape := func() (string, *http.Response) {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
			t.Fatal(err)
		}
		return b.String(), resp
	}
	body, resp := scrape()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks version=0.0.4", ct)
	}
	fams := parseProm(t, body)
	if fams["htd_cover_probe_seconds"].samples["_count"] != 1 {
		t.Errorf("scrape missed the observation: %v", fams["htd_cover_probe_seconds"].samples)
	}

	// Re-publishing under the same name must swap what /metrics serves.
	var b2 Stats
	for i := 0; i < 5; i++ {
		b2.Observe(CoverProbeNs, time.Second)
	}
	PublishExpvar("promtext_test_stats", &b2)
	body, _ = scrape()
	fams = parseProm(t, body)
	hist := fams["htd_cover_probe_seconds"]
	if hist.samples["_count"] != 5 {
		t.Fatalf("handler still pinned to the first Stats: %v", hist.samples)
	}
	// A 1s observation must land near 1s: p50 within the [0.5s, 2s] octave.
	var snap Snapshot
	snap.CoverProbeNs = histFromProm(t, hist)
	if p50 := snap.CoverProbeNs.P50() / 1e9; p50 < 0.5 || p50 > 2 {
		t.Errorf("p50 of five 1s observations = %vs, want within [0.5, 2]", p50)
	}
}

// histFromProm reconstructs a HistSnapshot from parsed bucket lines.
func histFromProm(t *testing.T, fam *promFamily) HistSnapshot {
	t.Helper()
	hs := HistSnapshot{Count: int64(fam.samples["_count"]), Sum: int64(fam.samples["_sum"] * 1e9)}
	sort.Slice(fam.buckets, func(i, j int) bool { return fam.buckets[i].le < fam.buckets[j].le })
	var prev float64
	for _, b := range fam.buckets {
		if b.le == float64(1<<62) {
			break
		}
		idx := 0
		for HistBucketUpper(idx) < int64(b.le*1e9+0.5) {
			idx++
		}
		for len(hs.Buckets) <= idx {
			hs.Buckets = append(hs.Buckets, 0)
		}
		hs.Buckets[idx] += int64(b.cum - prev)
		prev = b.cum
	}
	return hs
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}
