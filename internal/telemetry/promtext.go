// Prometheus text-format (v0.0.4) exposition of the run counters and
// latency histograms, so a long-lived process (the -pprof debug server
// today, the htdserve daemon tomorrow) can be scraped by any Prometheus-
// compatible collector without taking on a client-library dependency.
//
// The format is the plain-text one every scraper accepts: one HELP/TYPE
// header per family, counter samples as bare numbers, histogram samples as
// cumulative `_bucket{le="..."}` lines plus `_sum` and `_count`. Durations
// are exposed in seconds (the Prometheus base unit); the log₂-nanosecond
// buckets translate to le bounds of 2^i/1e9 seconds.
package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// WriteProm writes the snapshot in Prometheus text format v0.0.4, one
// family per table row (the phase and rule clocks share a labeled family
// each). Every family is always present (scrapers prefer stable family
// sets); unused histograms expose only their +Inf bucket.
func WriteProm(w io.Writer, snap Snapshot) error {
	var prev string
	for i := range table {
		m := &table[i]
		fam, typ := m.family()
		if fam != prev {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam, m.help, fam, typ); err != nil {
				return err
			}
			prev = fam
		}
		if err := writePromSamples(w, m, fam, &snap); err != nil {
			return err
		}
	}
	return nil
}

// writePromSamples writes one row's samples. Clock and latency rows hold
// nanoseconds and go out in seconds; raw histograms (the frac-bound
// margin, in width units) keep their log₂ bucket scale.
func writePromSamples(w io.Writer, m *metric, fam string, snap *Snapshot) error {
	var err error
	switch m.kind {
	case kindCounter, kindGauge:
		_, err = fmt.Fprintf(w, "%s %d\n", fam, *m.val(snap))
	case kindPhase:
		_, err = fmt.Fprintf(w, "%s{phase=%q} %s\n", fam, m.stem(), seconds(*m.val(snap)))
	case kindRule:
		_, err = fmt.Fprintf(w, "%s{rule=%q} %s\n", fam, m.stem(), seconds(*m.val(snap)))
	default:
		unit := seconds
		if m.kind == kindHist {
			unit = func(v int64) string { return strconv.FormatInt(v, 10) }
		}
		hs := *m.hist(snap)
		var cum int64
		for i, c := range hs.Buckets {
			cum += c
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", fam, unit(HistBucketUpper(i)), cum); err != nil {
				return err
			}
		}
		_, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			fam, hs.Count, fam, unit(hs.Sum), fam, hs.Count)
	}
	return err
}

// seconds renders nanoseconds as Prometheus base-unit seconds.
func seconds(ns int64) string { return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64) }

// PromHandler returns an http.Handler exposing the Stats published under
// name (via PublishExpvar) in Prometheus text format — the /metrics
// endpoint of the -pprof debug server. The handler reads through the same
// swappable holder expvar does, so a long-lived process always serves its
// latest run. Unpublished names serve the zero snapshot.
func PromHandler(name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		expvarMu.Lock()
		holder := expvarHolders[name]
		expvarMu.Unlock()
		var st *Stats
		if holder != nil {
			st = holder.Load()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteProm(w, st.Snapshot()); err != nil {
			// Headers are gone; nothing to do but drop the connection.
			return
		}
	})
}
