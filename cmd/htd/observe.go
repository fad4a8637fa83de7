// The run frame shared by the commands that run a decomposition
// (decompose, explain, tw, hw, fhw, query): the deadline context, the
// observability session and its flight recorder, and what follows a run.
// -v streams structured progress to stderr via log/slog, -pprof serves
// net/http/pprof plus the live search counters over expvar, -trace exports
// the run's structured timeline as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing), -ledger appends one JSON line per run to a
// script-friendly run ledger, and -postmortem arms the flight recorder.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"sync"
	"time"

	"hypertree"
	"hypertree/internal/telemetry"
)

// obsFlags holds the unified observability flag values; register them on
// any subcommand's FlagSet with addObsFlags.
type obsFlags struct {
	verbose    bool
	pprofAddr  string
	tracePath  string
	ledgerPath string
	postmortem string
}

// metricsOnce guards the /metrics registration on the default mux: the
// handler reads through the swappable expvar holder, so one registration
// serves every subsequent run of the process.
var metricsOnce sync.Once

// addObsFlags registers -v, -pprof, -trace, -ledger, and -postmortem on
// fs. Every command that runs a frame calls this, so the flags behave
// identically across them.
func addObsFlags(fs *flag.FlagSet) *obsFlags {
	var of obsFlags
	fs.BoolVar(&of.verbose, "v", false,
		"stream search progress (incumbents, phases, portfolio workers) to stderr")
	fs.StringVar(&of.pprofAddr, "pprof", "",
		"serve net/http/pprof, expvar search counters, and Prometheus /metrics on this address, e.g. :6060")
	fs.StringVar(&of.tracePath, "trace", "",
		"write the run's structured timeline as Chrome trace-event JSON (Perfetto-loadable) to this file")
	fs.StringVar(&of.ledgerPath, "ledger", "",
		"append a one-line JSON run record to this file (run ledger)")
	fs.StringVar(&of.postmortem, "postmortem", "",
		"arm the flight recorder: on deadline, cancellation, or panic, dump a post-mortem bundle (trace, stats, heap, goroutines) into this directory; render it with `htd report`")
	return &of
}

// obsSession is the live observability state of one run: the sinks to
// attach to htd.Options plus the exporters to flush at the end. All fields
// may be nil (every consumer is nil-safe), so a run with no observability
// flags pays nothing.
type obsSession struct {
	flags   *obsFlags
	stats   *htd.Stats
	obs     *htd.Observer
	trace   *htd.Trace
	logger  *slog.Logger
	sampler *telemetry.MemSampler
	flight  *telemetry.FlightRecorder
}

// start builds the session: debug server, progress observer, event ring,
// and the background MemStats sampler (attached whenever any sink exists,
// so traces carry a heap counter track and ledger entries carry memory
// telemetry). The pprof server goroutine intentionally outlives the run so
// post-run inspection works.
func (of *obsFlags) start() *obsSession {
	s := &obsSession{flags: of}
	if !of.verbose && of.pprofAddr == "" && of.tracePath == "" && of.ledgerPath == "" && of.postmortem == "" {
		return s
	}
	s.stats = new(htd.Stats)
	if of.verbose {
		s.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		s.obs = progressObserver(s.logger)
	}
	if of.tracePath != "" || of.postmortem != "" {
		// The flight recorder needs the event ring too: its bundle carries
		// the Chrome trace of whatever the run managed to record.
		s.trace = htd.NewTrace(0)
	}
	if of.postmortem != "" {
		s.flight = telemetry.NewFlightRecorder(of.postmortem, s.stats, s.trace)
	}
	if of.pprofAddr != "" {
		telemetry.PublishExpvar("htd_search", s.stats)
		metricsOnce.Do(func() {
			http.Handle("/metrics", telemetry.PromHandler("htd_search"))
		})
		go func() {
			if err := http.ListenAndServe(of.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "htd: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr,
			"htd: serving pprof on http://%s/debug/pprof/, search counters on /debug/vars (key htd_search), and Prometheus text on /metrics\n",
			of.pprofAddr)
	}
	s.sampler = telemetry.StartMemSampler(s.stats, s.trace, 0)
	return s
}

// frame is one run of a command that runs a decomposition: what it runs
// on, named in the ledger line and the post-mortem bundle, what it
// produces, named in the deadline wording, its deadline, and its
// observability flags.
type frame struct {
	cmd, instance, method string
	noun                  string        // what the run produces, e.g. "decomposition"
	timeout               time.Duration // 0 = no deadline
	flags                 *obsFlags
}

// outcome is what a run hands back to its frame: the width its ledger line
// records, its Result (bounds, exactness, winner) for the ledger and the
// -v summary, and whether the answer is final, which silences the note
// that the deadline cut the run short.
type outcome struct {
	width float64
	res   htd.Result
	final bool
}

// run executes body under f's deadline with a fresh observability session,
// then settles the session: the trace file, the ledger line, the
// post-mortem bundle or disarm, and the -v summary. It returns the run's
// wall time. A body that a deadline or cancellation left with nothing at
// all fails with "no <noun> produced before the deadline"; one whose
// answer the deadline only cut short succeeds, with a note on stderr.
func (f frame) run(body func(ctx context.Context, s *obsSession) (outcome, error)) (time.Duration, error) {
	ctx := context.Background()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	s := f.flags.start()
	defer s.flight.HandlePanic()
	s.arm(ctx, f)
	start := time.Now()
	out, err := body(ctx, s)
	wall := time.Since(start)
	// Read the deadline off the clock, not ctx.Err(): the searches stop on
	// their own deadline polls, which can beat the context timer's delivery.
	deadline, ok := ctx.Deadline()
	expired := ok && !time.Now().Before(deadline)
	ferr := s.finish(f, out, err, expired, wall)
	switch {
	case isCtxErr(err):
		return wall, fmt.Errorf("no %s produced before the deadline (%w)", f.noun, err)
	case err != nil:
		return wall, err
	case ferr != nil:
		return wall, ferr
	}
	s.summarize(out.res)
	if expired && !out.final {
		fmt.Fprintf(os.Stderr, "htd: deadline expired; reporting the best %s found before it\n", f.noun)
	}
	return wall, nil
}

// isCtxErr reports whether err is a deadline or cancellation error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// options attaches the session's sinks to opt.
func (s *obsSession) options(opt htd.Options) htd.Options {
	opt.Stats, opt.Observer, opt.Trace = s.stats, s.obs, s.trace
	return opt
}

// arm points the flight recorder at the run's context and stamps the
// bundle metadata; a session without -postmortem makes this a no-op.
func (s *obsSession) arm(ctx context.Context, f frame) {
	if s.flight == nil {
		return
	}
	s.flight.SetMeta("cmd", f.cmd)
	s.flight.SetMeta("instance", f.instance)
	s.flight.SetMeta("method", f.method)
	s.flight.Watch(ctx)
}

// settleFlight resolves the flight recorder at the end of a run: a run
// whose deadline passed (expired) or that returned a deadline or
// cancellation error dumps the bundle; a clean run disarms the watcher.
// Either way the watcher goroutine is waited out so the process never
// exits over a half-written bundle.
func (s *obsSession) settleFlight(runErr error, expired bool) {
	if s.flight == nil {
		return
	}
	if !expired && !isCtxErr(runErr) {
		s.flight.Disarm()
		s.flight.Sync(time.Second)
		return
	}
	reason := "cancelled"
	if expired || errors.Is(runErr, context.DeadlineExceeded) {
		reason = "deadline"
	}
	dir, err := s.flight.Dump(reason)
	s.flight.Disarm()
	s.flight.Sync(3 * time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "htd: post-mortem dump failed: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "htd: post-mortem bundle written to %s (render with `htd report %s`)\n", dir, dir)
}

// ledgerEntry is one line of the append-only JSONL run ledger.
type ledgerEntry struct {
	Time       string            `json:"time"`
	Cmd        string            `json:"cmd"`
	Instance   string            `json:"instance"`
	Method     string            `json:"method,omitempty"`
	Width      float64           `json:"width"`
	LowerBound int               `json:"lower_bound,omitempty"`
	Exact      bool              `json:"exact"`
	WallMs     float64           `json:"wall_ms"`
	Winner     string            `json:"winner,omitempty"`
	Counters   htd.StatsSnapshot `json:"counters"`
	Error      string            `json:"error,omitempty"`
}

// finish stops the sampler and flushes the exporters: the Chrome trace to
// -trace and one ledger line to -ledger. frame.run calls it exactly once
// per run, after the body returns (also on error, so failed runs are
// ledgered).
func (s *obsSession) finish(f frame, out outcome, runErr error, expired bool, wall time.Duration) error {
	if s.sampler != nil {
		s.sampler.Stop()
	}
	// Fold the event ring's drop counter into the run counters before any
	// snapshot is taken, so the ledger, expvar, and /metrics all report how
	// much of the timeline was lost to ring wrap-around.
	if s.trace != nil {
		s.stats.Add(telemetry.TraceDropped, s.trace.Dropped())
	}
	s.settleFlight(runErr, expired)
	if s.flags.tracePath != "" {
		f, err := os.Create(s.flags.tracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := s.trace.WriteChrome(f); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if dropped := s.trace.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "htd: trace ring wrapped, oldest %d events dropped\n", dropped)
		}
	}
	if s.flags.ledgerPath != "" {
		entry := ledgerEntry{
			Time: time.Now().UTC().Format(time.RFC3339), Cmd: f.cmd,
			Instance: f.instance, Method: f.method, Width: out.width,
			LowerBound: out.res.LowerBound, Exact: out.res.Exact,
			WallMs: float64(wall.Microseconds()) / 1e3,
			Winner: out.res.Winner, Counters: s.stats.Snapshot(),
		}
		if runErr != nil {
			entry.Error = runErr.Error()
		}
		if err := telemetry.AppendJSONL(s.flags.ledgerPath, entry); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
	}
	return nil
}

// progressObserver renders telemetry events as slog lines on stderr.
func progressObserver(logger *slog.Logger) *htd.Observer {
	return &htd.Observer{
		OnIncumbent: func(inc htd.Incumbent) {
			logger.Info("incumbent", "width", inc.Width, "method", inc.Method, "elapsed", inc.Elapsed)
		},
		OnPhase: func(p htd.Phase) {
			logger.Info("phase", "method", p.Method, "event", p.Name, "elapsed", p.Elapsed)
		},
		OnPortfolioOutcome: func(o htd.PortfolioOutcome) {
			if o.Err != "" {
				logger.Info("worker", "slot", o.Slot, "method", o.Method, "error", o.Err, "elapsed", o.Elapsed)
				return
			}
			logger.Info("worker", "slot", o.Slot, "method", o.Method,
				"width", o.Width, "lower_bound", o.LowerBound, "exact", o.Exact,
				"nodes", o.Stats.Nodes, "elapsed", o.Elapsed)
		},
	}
}

// summarize logs every non-zero counter and gauge under its wire name,
// then the run's provenance.
func (s *obsSession) summarize(res htd.Result) {
	if s.logger == nil {
		return
	}
	var attrs []any
	s.stats.Snapshot().EachScalar(func(name string, v int64) {
		if v != 0 {
			attrs = append(attrs, name, v)
		}
	})
	if res.Winner != "" {
		attrs = append(attrs, "winner", res.Winner)
	}
	if res.LowerBoundBy != "" {
		attrs = append(attrs, "lower_bound_by", res.LowerBoundBy)
	}
	s.logger.Info("search done", attrs...)
}
