// The hypertree-width engine shoot-out behind `htdbench -hw`: the det-k
// width search against the balanced-separator facade, per hypergraph
// catalog instance, under one shared budget.
// The records pin the promoted balsep engine's reason to exist — on
// edge-order-hostile instances (adder_48_perm) the det-k row exhausts its
// deadline and errors while balsep still closes the instance exactly —
// and the CI perf gate diffs them against the committed BENCH_balsep.json.
package bench

import (
	"context"
	"time"

	"hypertree"
	"hypertree/internal/exp"
)

// hwJobs are the Jobs values of the balsep runs per instance; each
// contributes one "balsep-jN" record. Balsep is sequential and ignores
// Jobs, so the records repeat one search (CI asserts they agree on width
// and work); both stay because the committed baseline is keyed by them.
var hwJobs = []int{1, 4}

// RunHW executes the hypertree-width harness: per catalog hypergraph, one
// "detk" record (the sequential exact width search, an error record when
// the budget kills it — Compare then gates nothing on that row) and one
// "balsep-jN" record per hwJobs entry, all Kind "hw".
func RunHW(cfg Config) Report {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	rep := Report{
		GeneratedBy: "htdbench -hw",
		Timeout:     cfg.Timeout.String(),
		Seed:        cfg.Seed,
		Full:        cfg.Full,
		Methods:     []string{"detk", "balsep-j1", "balsep-j4"},
	}
	for _, inst := range exp.Hypergraphs(cfg.Full) {
		if !cfg.keep(inst.Name) {
			continue
		}
		h := inst.Build()

		rep.measure(cfg, &Record{
			Instance: inst.Name, Family: inst.Family, Kind: "hw",
			Vertices: h.NumVertices(), Edges: h.NumEdges(),
			Method: "detk", Seed: cfg.Seed,
		}, func(ctx context.Context, st *htd.Stats) (htd.Result, error) {
			w, _, err := htd.HypertreeWidthCtx(ctx, h, 0, st, nil)
			// A det-k run that ends without an error has decided hw(H): w is
			// proven from both sides, so the record keeps Exact ⇒ LowerBound
			// == Width like every other.
			return htd.Result{Width: w, LowerBound: w, Exact: true}, err
		})

		for _, jobs := range hwJobs {
			rep.measure(cfg, &Record{
				Instance: inst.Name, Family: inst.Family, Kind: "hw",
				Vertices: h.NumVertices(), Edges: h.NumEdges(),
				Method: "balsep-j" + string(rune('0'+jobs)), Seed: cfg.Seed,
			}, func(ctx context.Context, st *htd.Stats) (htd.Result, error) {
				return htd.GHWCtx(ctx, h, htd.Options{
					Method: htd.MethodBalSep, Jobs: jobs, Seed: cfg.Seed, Stats: st,
					DisableCoverCache: cfg.DisableCoverCache,
				})
			})
		}
	}
	return rep
}
