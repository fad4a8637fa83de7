// Observability wiring shared by the decompose, tw, hw, and fhw
// subcommands: -v streams structured progress to stderr via log/slog,
// -pprof serves net/http/pprof plus the live search counters over expvar,
// -trace exports the run's structured timeline as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing), and -ledger appends one JSON
// line per run to a script-friendly run ledger.
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
// fs. Every subcommand that runs a decomposition calls this, so the flags
// behave identically across decompose, tw, hw, fhw, and query.
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
	runCtx  context.Context // the context arm() watched (nil when unarmed)
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

// arm points the flight recorder at the run's context and stamps the
// bundle metadata. Call it once per run, right after start(); a session
// without -postmortem makes this a no-op. The deferred-panic hook is the
// caller's job (`defer s.flight.HandlePanic()`), since recover only works
// one frame down.
func (s *obsSession) arm(ctx context.Context, cmd, instance, method string) {
	if s.flight == nil {
		return
	}
	s.runCtx = ctx
	s.flight.SetMeta("cmd", cmd)
	s.flight.SetMeta("instance", instance)
	if method != "" {
		s.flight.SetMeta("method", method)
	}
	s.flight.Watch(ctx)
}

// settleFlight resolves the flight recorder at the end of a run: a run
// whose context died (deadline or cancellation — checked on the context
// itself, because the engines' own deadline polls can beat the context
// timer and return a nil or non-context error) dumps the bundle; a clean
// run disarms the watcher. Either way the watcher goroutine is waited out
// so the process never exits over a half-written bundle.
func (s *obsSession) settleFlight(runErr error) {
	if s.flight == nil {
		return
	}
	ctxDead := s.runCtx != nil && s.runCtx.Err() != nil
	if !ctxDead && (errors.Is(runErr, context.DeadlineExceeded) || errors.Is(runErr, context.Canceled)) {
		ctxDead = true
	}
	if !ctxDead {
		s.flight.Disarm()
		s.flight.Sync(time.Second)
		return
	}
	reason := "cancelled"
	if errors.Is(runErr, context.DeadlineExceeded) ||
		(s.runCtx != nil && errors.Is(s.runCtx.Err(), context.DeadlineExceeded)) {
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
// -trace and one ledger line to -ledger. Call exactly once per run, after
// the decomposition returns (also on error, so failed runs are ledgered).
func (s *obsSession) finish(cmd, instance, method string, width float64, res htd.Result, runErr error, wall time.Duration) error {
	if s.sampler != nil {
		s.sampler.Stop()
	}
	// Fold the event ring's drop counter into the run counters before any
	// snapshot is taken, so the ledger, expvar, and /metrics all report how
	// much of the timeline was lost to ring wrap-around.
	if s.trace != nil {
		s.stats.Add(telemetry.TraceDropped, s.trace.Dropped())
	}
	s.settleFlight(runErr)
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
			Time: time.Now().UTC().Format(time.RFC3339), Cmd: cmd,
			Instance: instance, Method: method, Width: width,
			LowerBound: res.LowerBound, Exact: res.Exact,
			WallMs: float64(wall.Microseconds()) / 1e3,
			Winner: res.Winner, Counters: s.stats.Snapshot(),
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
