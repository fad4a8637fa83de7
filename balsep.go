package htd

import (
	"context"
	"math/rand"

	"hypertree/internal/cover"
	"hypertree/internal/detk"
	"hypertree/internal/elim"
	"hypertree/internal/heur"
	"hypertree/internal/order"
)

// balsepGHW drives MethodBalSep under the house anytime contract: a
// min-fill ordering seeds the incumbent, then the balanced-separator
// engine deepens k from the tw-ksc lower bound towards the incumbent's
// width, stepping by Approx+1 in approx mode. Each level either produces
// a witness (its extracted elimination ordering becomes the incumbent) or
// a completeness-flagged failure; a deadline mid-level falls back to the
// incumbent with Exact=false.
func balsepGHW(ctx context.Context, h *Hypergraph, opt Options, sc *scope, orc *cover.Oracle) (Result, error) {
	g := h.PrimalGraph()
	ord, _, err := heur.MinFillCtxStats(ctx, elim.New(g),
		rand.New(rand.NewSource(opt.Seed)), sc.engineStats())
	if err != nil {
		// Cancelled before any incumbent exists.
		return Result{}, err
	}
	w0 := order.GHWidth(h, ord, nil, true, orc)
	if hook := sc.incumbentHook(); hook != nil {
		hook(w0)
	}
	// The tw-ksc bound passes the min-fill width only on a hypergraph
	// whose χ-sets need no edges (all widths 0), so the reported bound is
	// capped at the width.
	lb := ghwLowerBound(ctx, h, g, opt.Seed)
	best := Result{Width: w0, Ordering: ord, LowerBound: min(lb, w0)}
	if w0 <= lb {
		best.Exact = true
		return best, nil
	}
	approx := opt.Approx
	if approx < 0 {
		approx = 0
	}
	// A level that fails, even completely, proves only hw(H) > k: ghw may
	// still be k or less, so failed levels drive the deepening but never
	// the exactness claim, which only the tw-ksc bound (a true ghw bound)
	// can make.
	for k := lb; k < w0; k += approx + 1 {
		r, err := detk.DecomposeBalanced(ctx, h, k, detk.BalancedOptions{
			MaxGuesses: opt.MaxNodes,
			Approx:     approx,
			Seed:       opt.Seed,
			Oracle:     orc,
			Stats:      sc.engineStats(),
			Trace:      sc.traceRef(),
			Track:      sc.trackID(),
		})
		if err != nil {
			// Deadline mid-level: the incumbent stands, unproven.
			return best, nil
		}
		if r.Decomposition != nil {
			o := order.FromDecomposition(r.Decomposition)
			w := order.GHWidth(h, o, nil, true, orc)
			if hook := sc.incumbentHook(); hook != nil {
				hook(w)
			}
			if w <= best.Width {
				best.Width = w
				best.Ordering = o
			}
			best.Exact = best.Width == lb
			return best, nil
		}
	}
	// Every level below w0 failed, which bounds hw, not ghw: the min-fill
	// incumbent stands unproven.
	return best, nil
}
