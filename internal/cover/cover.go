// Package cover is the shared cover-oracle layer of the GHW engines: it
// wraps setcover.Solver behind an interned-bag API and memoizes cover
// results in a sharded, lock-striped transposition table keyed by 64-bit
// bag hashes (bitset.Set.Hash) with Equal-verified chains, so a hash
// collision can never corrupt a result.
//
// Every engine that turns elimination cliques into λ-covers — the
// ordering-based BB/A* searches, the width evaluators behind the genetic
// algorithms, and the min-fill facade path — re-solves the same set-cover
// subproblems for the same candidate bags, within one run and across the
// racing workers of a portfolio. The det-k-decomp lineage and BalancedGo
// (Gottlob–Okulmus–Pichler) get their speed from exactly this kind of
// subproblem caching; this package makes it a single concurrency-safe
// substrate.
//
// Determinism contract: everything an Oracle memoizes is computed
// deterministically (exact covers, and greedy covers with lowest-index
// tie-breaking), so cache state — shared, evicted, or disabled — is
// invisible in results: a query returns the same value whether it hits,
// misses, or the cache is off. Randomized greedy covers (GA tie-breaking)
// are therefore NOT served by the oracle; callers that need them keep a
// private rng solver. This is what makes cross-worker sharing safe and
// keeps Jobs=1 portfolio runs bit-for-bit reproducible.
package cover

import (
	"sync"
	"sync/atomic"
	"time"

	"hypertree/internal/bitset"
	"hypertree/internal/hypergraph"
	"hypertree/internal/setcover"
	"hypertree/internal/telemetry"
)

// numShards stripes the transposition table; queries lock only their
// bag-hash's shard, so portfolio workers rarely contend.
const numShards = 32

// defaultMaxEntries bounds the cached bags per Oracle. Each entry retains
// an interned bag plus up to two small covers; 1<<17 entries keep worst
// cases in the tens of megabytes.
const defaultMaxEntries = 1 << 17

// Options configures an Oracle.
type Options struct {
	// Disabled turns memoization off: queries still use pooled solvers and
	// scratch buffers, but nothing is cached. Results are identical either
	// way (see the package determinism contract); the toggle exists for
	// ablation and cache-consistency testing.
	Disabled bool
	// MaxEntries bounds the number of cached bags (0 = default). When a
	// shard exceeds its share, half of it is evicted (random map order —
	// harmless, since recomputation is deterministic).
	MaxEntries int
	// Trace, when non-nil, receives pulsed cache events on track 0 (the
	// oracle is a run-level shared structure, not a per-worker one):
	// "cover.pulse" instants on the first miss and then every 256th miss /
	// 4096th hit, and a "cover.evict" instant per eviction sweep. The
	// counters are read with atomics; tracing never takes the shard locks
	// longer and never changes any query result.
	Trace *telemetry.Trace
	// Timed makes every query observe the latency histograms that
	// LatencySnapshots reads. An untimed oracle reads no clock, except to
	// split a query's time into the phase clock of a Stats the query
	// carries, and its snapshots stay empty.
	Timed bool
}

// CounterSnapshot is a plain copy of an oracle's counters.
type CounterSnapshot struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any query.
func (c CounterSnapshot) HitRate() float64 {
	if t := c.Hits + c.Misses; t > 0 {
		return float64(c.Hits) / float64(t)
	}
	return 0
}

// Oracle answers greedy, exact and fractional cover queries against a
// fixed hypergraph's edge set, memoizing per interned bag. Safe for
// concurrent use; one Oracle may be shared by every worker attacking the
// instance.
type Oracle struct {
	h         *hypergraph.Hypergraph
	coverable *bitset.Set // vertices occurring in at least one hyperedge
	disabled  bool
	timed     bool
	perShard  int
	tr        *telemetry.Trace
	shards    [numShards]coverShard

	solvers sync.Pool // *setcover.Solver with deterministic tie-breaking
	scratch sync.Pool // *bitset.Set canonical-bag buffers
	fracLPs sync.Pool // *fracScratch fractional-LP assembly workspaces

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// Latency distributions, owned by the oracle for the same reason the
	// counters are: the oracle is shared across portfolio workers, so the
	// facade folds these into the run-level Stats once per run (via
	// Stats.AddCoverLatency). probeNs covers every query end-to-end (hit
	// or miss); solveNs covers exact set-cover solves only, fed by the
	// pooled solvers' ExactLatency hook; fracNs covers fractional-LP
	// solves only (frac-memo misses). Only a timed oracle fills them.
	probeNs telemetry.Histogram
	solveNs telemetry.Histogram
	fracNs  telemetry.Histogram
}

type coverShard struct {
	mu sync.Mutex
	m  map[uint64]*coverEntry
	n  int // interned bags in this shard
}

// coverEntry memoizes the answers of one interned bag, one slot per kind
// (nil until that kind is solved). Entries with equal hashes chain through
// next and are distinguished by Equal.
type coverEntry struct {
	bag  *bitset.Set
	next *coverEntry
	ans  [numKinds]*answer
}

// New returns an Oracle over h's hyperedges.
func New(h *hypergraph.Hypergraph, opt Options) *Oracle {
	maxEntries := opt.MaxEntries
	if maxEntries <= 0 {
		maxEntries = defaultMaxEntries
	}
	perShard := maxEntries / numShards
	if perShard < 2 {
		perShard = 2
	}
	coverable := bitset.New(h.NumVertices())
	for e := 0; e < h.NumEdges(); e++ {
		coverable.UnionWith(h.EdgeSet(e))
	}
	o := &Oracle{
		h:         h,
		coverable: coverable,
		disabled:  opt.Disabled,
		timed:     opt.Timed,
		perShard:  perShard,
		tr:        opt.Trace,
	}
	o.solvers.New = func() any {
		sv := setcover.New(h, nil)
		if o.timed {
			sv.ExactLatency = &o.solveNs
		}
		return sv
	}
	o.scratch.New = func() any { return bitset.New(h.NumVertices()) }
	o.fracLPs.New = func() any { return &fracScratch{edgeRow: make(map[int]int)} }
	return o
}

// Hypergraph returns the instance this oracle answers queries for.
func (o *Oracle) Hypergraph() *hypergraph.Hypergraph { return o.h }

// Counters reads the hit/miss/eviction counters.
func (o *Oracle) Counters() CounterSnapshot {
	return CounterSnapshot{
		Hits:      o.hits.Load(),
		Misses:    o.misses.Load(),
		Evictions: o.evictions.Load(),
	}
}

// LatencySnapshots reads the probe, exact-solve, and fractional-LP
// latency distributions (all empty unless the oracle is timed).
func (o *Oracle) LatencySnapshots() (probe, solve, frac telemetry.HistSnapshot) {
	return o.probeNs.Snapshot(), o.solveNs.Snapshot(), o.fracNs.Snapshot()
}

// kind is one of the oracle's three query kinds. Each has its own slot in
// a bag's entry: a greedy query is never served an exact cover, nor the
// other way round, because the two can differ in size and serving one for
// the other would make cache state visible in results.
type kind uint8

const (
	greedyKind kind = iota // deterministic greedy cover
	exactKind              // minimum-cardinality cover
	fracKind               // optimal fractional cover (frac.go)
	numKinds
)

// answer is one query's result. The memo shares answers, so an answer is
// never written after it is made, and its slices are copied before they
// leave the package.
type answer struct {
	cover []int        // greedy or exact cover
	val   float64      // ρ*(bag)
	frac  []EdgeWeight // positive weights of an optimal fractional cover
}

// emptyAnswer answers every kind for a bag with no coverable vertex.
var emptyAnswer = &answer{}

// GreedySize returns the size of the deterministic greedy cover of target
// (lowest-index tie-breaking, Fig. 7.2), memoized. st, when non-nil, is
// the calling worker's phase clock: probe time lands in its cover-probe
// clock and miss solves in its cover-solve clock. The clocks never feed
// back into the answer.
func (o *Oracle) GreedySize(target *bitset.Set, st *telemetry.Stats) int {
	a, _ := o.query(target, greedyKind, st)
	return len(a.cover)
}

// Greedy returns the deterministic greedy cover of target as a fresh
// slice, memoized.
func (o *Oracle) Greedy(target *bitset.Set) []int {
	a, _ := o.query(target, greedyKind, nil)
	return append([]int(nil), a.cover...)
}

// ExactSize returns the minimum cover cardinality of target, memoized,
// with st's phase clocks as in GreedySize (st may be nil).
func (o *Oracle) ExactSize(target *bitset.Set, st *telemetry.Stats) int {
	a, _ := o.query(target, exactKind, st)
	return len(a.cover)
}

// Exact returns a minimum-cardinality cover of target as a fresh slice,
// memoized.
func (o *Oracle) Exact(target *bitset.Set) []int {
	a, _ := o.query(target, exactKind, nil)
	return append([]int(nil), a.cover...)
}

// query answers one query of kind k. On a timed oracle every query — hit,
// miss, or trivial empty bag — lands in probeNs, so the distribution
// reflects what callers actually wait for. st, when non-nil, is the
// calling worker's phase clock (the oracle is shared, so per-worker
// attribution must ride in with the caller rather than live on the
// oracle): an integral query's solve time goes to the cover-solve phase
// and the rest to the cover-probe phase, and a fractional query goes to
// the LP phase whole. With neither, the query reads no clock. Only a
// fractional query can fail, so the integral methods drop the error.
func (o *Oracle) query(target *bitset.Set, k kind, st *telemetry.Stats) (*answer, error) {
	if !o.timed && st == nil {
		return o.probe(target, k, nil)
	}
	t0 := time.Now()
	var solved time.Duration
	a, err := o.probe(target, k, &solved)
	d := time.Since(t0)
	if o.timed {
		o.probeNs.ObserveDuration(d)
	}
	if st != nil {
		if k == fracKind {
			st.AddPhase(telemetry.PhaseLP, d)
		} else {
			st.AddPhase(telemetry.PhaseCoverSolve, solved)
			st.AddPhase(telemetry.PhaseCoverProbe, d-solved)
		}
	}
	return a, err
}

// probe canonicalizes target, consults the transposition table, and
// solves on a miss, storing the answer unless the solve failed. When
// solved is non-nil it receives the solve's duration.
func (o *Oracle) probe(target *bitset.Set, k kind, solved *time.Duration) (*answer, error) {
	// Canonical bag: covers ignore vertices in no hyperedge, so interning
	// target ∩ coverable makes e.g. {v} ∪ N(v) and its constrained subset
	// share one entry.
	bag := o.scratch.Get().(*bitset.Set)
	defer o.scratch.Put(bag)
	bag.CopyFrom(target)
	bag.IntersectWith(o.coverable)
	if bag.Empty() {
		return emptyAnswer, nil
	}
	if o.disabled {
		return o.solve(bag, k, solved)
	}

	hash := bag.Hash()
	shard := &o.shards[hash&(numShards-1)]

	shard.mu.Lock()
	if e := shard.lookup(hash, bag); e != nil && e.ans[k] != nil {
		a := e.ans[k]
		shard.mu.Unlock()
		if n := o.hits.Add(1); o.tr != nil && n&4095 == 1 {
			o.pulse()
		}
		return a, nil
	}
	shard.mu.Unlock()

	// Miss: solve outside the lock so other queries proceed. Two workers
	// may race to the same bag; both compute the same deterministic answer
	// and the second store below is a no-op.
	if n := o.misses.Add(1); o.tr != nil && n&255 == 1 {
		o.pulse() // n==1 on the very first miss: a traced run always pulses
	}
	a, err := o.solve(bag, k, solved)
	if err != nil {
		return nil, err
	}

	shard.mu.Lock()
	e := shard.lookup(hash, bag)
	if e == nil {
		if shard.m == nil {
			shard.m = make(map[uint64]*coverEntry)
		}
		e = &coverEntry{bag: bag.Clone(), next: shard.m[hash]}
		shard.m[hash] = e
		shard.n++
		if shard.n > o.perShard {
			dropped := int64(shard.evictHalf())
			o.evictions.Add(dropped)
			if o.tr != nil {
				o.tr.Instant(0, "cover.evict",
					telemetry.Arg{Key: "dropped", Val: dropped})
			}
		}
	}
	if e.ans[k] == nil {
		e.ans[k] = a
	}
	shard.mu.Unlock()
	return a, nil
}

// pulse emits a "cover.pulse" instant with the current counter values.
// Called on sampled hit/miss counts; o.tr is non-nil at every call site.
func (o *Oracle) pulse() {
	o.tr.Instant(0, "cover.pulse",
		telemetry.Arg{Key: "hits", Val: o.hits.Load()},
		telemetry.Arg{Key: "misses", Val: o.misses.Load()},
		telemetry.Arg{Key: "evictions", Val: o.evictions.Load()})
}

// solve computes bag's answer of kind k with pooled scratch. The answer's
// slices are fresh, so the memo can keep them. When solved is non-nil it
// receives the solve's duration.
func (o *Oracle) solve(bag *bitset.Set, k kind, solved *time.Duration) (*answer, error) {
	if solved != nil {
		defer func(s0 time.Time) { *solved = time.Since(s0) }(time.Now())
	}
	if k == fracKind {
		val, w, err := o.solveFrac(bag)
		if err != nil {
			return nil, err
		}
		return &answer{val: val, frac: w}, nil
	}
	sv := o.solvers.Get().(*setcover.Solver)
	defer o.solvers.Put(sv)
	if k == exactKind {
		return &answer{cover: sv.Exact(bag)}, nil
	}
	return &answer{cover: sv.Greedy(bag)}, nil
}

// lookup finds the entry for bag in the hash chain, or nil. Caller holds
// the shard lock.
func (s *coverShard) lookup(hash uint64, bag *bitset.Set) *coverEntry {
	for e := s.m[hash]; e != nil; e = e.next {
		if e.bag.Equal(bag) {
			return e
		}
	}
	return nil
}

// evictHalf drops roughly half the shard's entries (random map order) and
// returns how many bags were evicted. Caller holds the shard lock.
// Deterministic recomputation makes the victim choice harmless.
func (s *coverShard) evictHalf() int {
	keep := s.n / 2
	dropped := 0
	for hash, e := range s.m {
		if s.n <= keep {
			break
		}
		for ; e != nil; e = e.next {
			s.n--
			dropped++
		}
		delete(s.m, hash)
	}
	return dropped
}
