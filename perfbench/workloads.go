package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"hypertree"
	catalog "hypertree/internal/bench"
	"hypertree/internal/gen"
)

// workloads maps each workload name to the set-up that builds its inputs
// from the seed.
var workloads = map[string]func(seed int64) (*bench, error){
	"decompose_small": newDecomposeSmall,
	"search_exact":    newSearchExact,
	"query_eval":      newQueryEval,
	"standing_delta":  newStandingDelta,
}

// refWidth is the exact width of each catalog instance (ghw for
// hypergraphs, tw for graphs), as proven in the committed baselines.
// Relabelling vertices and edges leaves every width unchanged.
var refWidth = map[string]int{
	"adder_10": 2, "bridge_10": 2, "clique_10": 5, "chain_15": 1,
	"queenhg_4": 6, "rand16*": 3,
	"myciel3": 5, "myciel4": 10, "queen5_5": 18,
}

// mixEntry is one catalog instance of a mix and its occurrences per cycle.
type mixEntry struct {
	name   string
	weight int
}

// --- decompose_small ---------------------------------------------------

// The decompose_small mix: the trivial instances, where the portfolio's
// fixed cost is all there is, carry the median; rand16* (real branching)
// carries the p90.
var (
	decomposeGHW = []mixEntry{{"adder_10", 1}, {"bridge_10", 5}, {"clique_10", 1}, {"chain_15", 5}, {"queenhg_4", 1}, {"rand16*", 3}}
	decomposeTW  = []mixEntry{{"myciel3", 5}, {"myciel4", 1}}
)

// newDecomposeSmall builds the htd decompose path over the small exact
// catalog: TU-Wien (or DIMACS) text in, portfolio, validated witness out.
// Every op gets a freshly relabelled copy of its instance.
func newDecomposeSmall(seed int64) (*bench, error) {
	b := &bench{}
	for _, e := range decomposeGHW {
		h, err := catalogHypergraph(e.name)
		if err != nil {
			return nil, err
		}
		ref := refWidth[e.name]
		b.add(template{name: "ghw/" + e.name, kind: kindPortfolio, weight: e.weight, next: func(i int) op {
			var sb strings.Builder
			err := htd.WriteHypergraph(&sb, relabel(h, opRNG(seed, e.name, i)))
			return decomposeOp(sb.String(), err, ref)
		}})
	}
	for _, e := range decomposeTW {
		g, err := catalogGraph(e.name)
		if err != nil {
			return nil, err
		}
		ref := refWidth[e.name]
		b.add(template{name: "tw/" + e.name, kind: kindPortfolio, weight: e.weight, next: func(i int) op {
			var sb strings.Builder
			err := htd.WriteDIMACS(&sb, relabelGraph(g, opRNG(seed, e.name, i)))
			return treewidthOp(sb.String(), err, ref)
		}})
	}
	return b, nil
}

// decomposeOp parses text and decomposes it with the portfolio; textErr is
// the error of writing the text, reported as the op's failure.
func decomposeOp(text string, textErr error, ref int) op {
	return func(ctx context.Context, p *probe) (func() error, error) {
		if textErr != nil {
			return nil, textErr
		}
		end := p.span("parse")
		h, err := htd.ParseHypergraph(strings.NewReader(text))
		end()
		if err != nil {
			return nil, err
		}
		end = p.span("explain")
		d, res, err := htd.ExplainCtx(ctx, h, p.options(htd.Options{Method: htd.MethodPortfolio, Seed: 1}))
		end()
		p.returned(res)
		if err != nil {
			return nil, err
		}
		return func() error { return checkGHD(d, res, ref) }, nil
	}
}

func treewidthOp(text string, textErr error, ref int) op {
	return func(ctx context.Context, p *probe) (func() error, error) {
		if textErr != nil {
			return nil, textErr
		}
		end := p.span("parse")
		g, err := htd.ParseDIMACS(strings.NewReader(text))
		end()
		if err != nil {
			return nil, err
		}
		end = p.span("treewidth")
		res, err := htd.TreewidthCtx(ctx, g, p.options(htd.Options{Method: htd.MethodPortfolio, Seed: 1}))
		end()
		p.returned(res)
		if err != nil {
			return nil, err
		}
		return func() error { return checkTW(g, res, ref) }, nil
	}
}

// --- search_exact ------------------------------------------------------

// Sizes of the search_exact mix: the fhw op's per-worker round budget, the
// balanced-separator engine's pool size (the machine's 2 CPUs) and the
// traced run's count of Jobs=1 vs Jobs=2 balsep pairs.
const (
	fhwRounds   = 40
	balsepJobs  = 2
	balsepPairs = 40
)

// The search_exact mix: fhw and both balsep instances hold the lowest
// 30 % of ops, BB-ghw the next 50 %, with the median in its middle, and
// BB-tw the top 20 %, with the p90 in its middle. With two adder_40 ops
// the median fell where adder_40's latencies end and rand16*'s begin.
var (
	searchFHW    = mixEntry{"queenhg_4", 1}
	searchGHW    = mixEntry{"rand16*", 5}
	searchTW     = mixEntry{"queen5_5", 2}
	searchBalSep = []struct{ bits, weight int }{{28, 1}, {40, 1}}
)

// newSearchExact builds single named engines on instances where search,
// not the portfolio, dominates. Every op gets a freshly relabelled copy.
func newSearchExact(seed int64) (*bench, error) {
	b := &bench{}
	rand16, err := catalogHypergraph(searchGHW.name)
	if err != nil {
		return nil, err
	}
	b.add(template{name: "bb_ghw/rand16", kind: kindSearch, weight: searchGHW.weight, next: func(i int) op {
		return searchGHWOp(relabel(rand16, opRNG(seed, searchGHW.name, i)), refWidth[searchGHW.name])
	}})

	queen, err := catalogGraph(searchTW.name)
	if err != nil {
		return nil, err
	}
	b.add(template{name: "bb_tw/" + searchTW.name, kind: kindSearch, weight: searchTW.weight, next: func(i int) op {
		return searchTWOp(relabelGraph(queen, opRNG(seed, searchTW.name, i)), refWidth[searchTW.name])
	}})

	fh, err := catalogHypergraph(searchFHW.name)
	if err != nil {
		return nil, err
	}
	b.add(template{name: "fhw/" + searchFHW.name, kind: kindFHW, weight: searchFHW.weight, next: func(i int) op {
		return fhwOp(relabel(fh, opRNG(seed, "fhw/"+searchFHW.name, i)), refWidth[searchFHW.name])
	}})

	// Balanced-separator ops get edge-shuffled adders, as in the catalog's
	// adder_48_perm: renumbering vertices as well turns some instances
	// into multi-second searches, which no per-op percentile survives.
	adder := func(bits, i int) *htd.Hypergraph {
		return gen.ShuffleEdges(gen.Adder(bits), opRNG(seed, fmt.Sprint("adder_", bits), i).Int63())
	}
	for _, e := range searchBalSep {
		b.add(template{name: fmt.Sprint("balsep/adder_", e.bits), kind: kindBalSep, weight: e.weight, next: func(i int) op {
			return balsepOp(adder(e.bits, i), balsepJobs)
		}})
	}
	// The traced run also times balsep pairs, Jobs=1 and Jobs=2 on the same
	// input, alternating which runs first: the bases of
	// detk.balsep_jobs_speedup.
	b.extra = func(agg *layerAgg) error {
		ctx := context.Background()
		for i := 0; i < balsepPairs; i++ {
			h := adder(searchBalSep[i/2%len(searchBalSep)].bits, i)
			jobs := []int{1, 2}
			if i%2 == 1 {
				jobs = []int{2, 1}
			}
			var ms [3]float64
			for _, j := range jobs {
				t0 := time.Now()
				check, err := balsepOp(h, j)(ctx, nil)
				ms[j] = msOf(time.Since(t0))
				if err == nil {
					err = check()
				}
				if err != nil {
					return err
				}
			}
			agg.balsepJ1Ms = append(agg.balsepJ1Ms, ms[1])
			agg.balsepJ2Ms = append(agg.balsepJ2Ms, ms[2])
			agg.balsepRatio = append(agg.balsepRatio, ms[1]/ms[2])
		}
		return nil
	}
	return b, nil
}

func searchGHWOp(h *htd.Hypergraph, ref int) op {
	return func(ctx context.Context, p *probe) (func() error, error) {
		end := p.span("search")
		d, res, err := htd.ExplainCtx(ctx, h, p.options(htd.Options{Method: htd.MethodBB, Seed: 1}))
		end()
		if err != nil {
			return nil, err
		}
		return func() error { return checkGHD(d, res, ref) }, nil
	}
}

func searchTWOp(g *htd.Graph, ref int) op {
	return func(ctx context.Context, p *probe) (func() error, error) {
		end := p.span("search")
		res, err := htd.TreewidthCtx(ctx, g, p.options(htd.Options{Method: htd.MethodBB, Seed: 1}))
		end()
		if err != nil {
			return nil, err
		}
		return func() error { return checkTW(g, res, ref) }, nil
	}
}

func fhwOp(h *htd.Hypergraph, ghw int) op {
	return func(ctx context.Context, p *probe) (func() error, error) {
		end := p.span("fhw")
		res, err := htd.FHWCtx(ctx, h, p.options(htd.Options{Seed: 1, MaxNodes: fhwRounds, Jobs: 1}))
		end()
		if err != nil {
			return nil, err
		}
		return func() error {
			if !res.Complete {
				return fmt.Errorf("fhw: round budget not completed")
			}
			if res.Width < 1 || res.Width > float64(ghw)+1e-9 {
				return fmt.Errorf("fhw: width %.6f outside [1, ghw %d]", res.Width, ghw)
			}
			if err := res.Ordering.Validate(h.NumVertices()); err != nil {
				return err
			}
			if w := htd.FractionalWidth(h, res.Ordering); math.Abs(w-res.Width) > 1e-6 {
				return fmt.Errorf("fhw: reported width %.6f, its ordering has %.6f", res.Width, w)
			}
			return nil
		}, nil
	}
}

// balsepOp decomposes an adder, whose ghw is 2 at every size.
func balsepOp(h *htd.Hypergraph, jobs int) op {
	return func(ctx context.Context, p *probe) (func() error, error) {
		end := p.span("balsep")
		d, res, err := htd.ExplainCtx(ctx, h, p.options(htd.Options{Method: htd.MethodBalSep, Jobs: jobs, Seed: 1}))
		end()
		if err != nil {
			return nil, err
		}
		return func() error { return checkGHD(d, res, 2) }, nil
	}
}

// --- query_eval --------------------------------------------------------

// The query_eval mix over the catalog's five shapes: triangle, const_filter
// and star_6 form the fast mode, chain_5 the median's, and cycle_6 the
// p90's.
var queryMix = []mixEntry{{"chain_5", 5}, {"star_6", 1}, {"triangle", 1}, {"cycle_6", 2}, {"const_filter", 1}}

// queryRows caps the tuples a database keeps per relation, for the shapes
// whose catalog databases are too slow to give a run enough ops: catalog
// chain_5 takes about 100 ms per op, and cycle_6 at half its catalog size
// about 140 ms.
var queryRows = map[string]int{"chain_5": 260, "cycle_6": 220}

// queryVariants is the number of catalog databases per shape and seed.
const queryVariants = 8

// newQueryEval builds one-shot CQ answering over the catalog's databases:
// a min-fill plan, then the parallel Yannakakis engine at the default Jobs.
func newQueryEval(seed int64) (*bench, error) {
	insts := map[string]int{}
	cat := catalog.QueryCatalog()
	for i, inst := range cat {
		insts[inst.Name] = i
	}
	b := &bench{}
	var refs []func() error
	for _, e := range queryMix {
		inst := cat[insts[e.name]]
		q, err := htd.ParseQuery(inst.Text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		dbs := make([]*htd.Database, queryVariants)
		want := make([][][]string, queryVariants)
		for v := range dbs {
			dbs[v] = inst.Build(opRNG(seed, e.name, v).Int63())
			if n, ok := queryRows[e.name]; ok {
				dbs[v] = thin(dbs[v], n)
			}
			refs = append(refs, func() (err error) {
				want[v], err = referenceAnswers(q, dbs[v])
				return err
			})
		}
		b.add(template{name: "cq/" + e.name, kind: kindQuery, weight: e.weight, next: func(i int) op {
			v := i % queryVariants
			return queryOp(q, dbs[v], &want[v])
		}})
	}
	b.references = func() error {
		for _, ref := range refs {
			if err := ref(); err != nil {
				return err
			}
		}
		return nil
	}
	return b, nil
}

// thin keeps the first n tuples of each relation of db. The catalog draws
// tuples at random, so these are a random subset.
func thin(db *htd.Database, n int) *htd.Database {
	out := htd.NewDatabase()
	for _, name := range db.Relations() {
		rows := db.Relation(name)
		for _, row := range rows[:min(n, len(rows))] {
			out.Add(name, row...)
		}
	}
	return out
}

// referenceAnswers evaluates q the second way: the naive nested-loop join
// is exponential at these sizes, so the reference is the sequential engine
// over an independently searched (BB) plan instead of the measured
// parallel engine over the min-fill plan.
func referenceAnswers(q *htd.Query, db *htd.Database) ([][]string, error) {
	ctx := context.Background()
	d, err := htd.DecomposeCtx(ctx, q.Hypergraph(), htd.Options{Method: htd.MethodBB})
	if err != nil {
		return nil, err
	}
	return htd.AnswerQueryWithCtx(ctx, q, db, d, htd.Options{Jobs: 1})
}

func queryOp(q *htd.Query, db *htd.Database, want *[][]string) op {
	return func(ctx context.Context, p *probe) (func() error, error) {
		end := p.span("plan")
		d, err := htd.DecomposeCtx(ctx, q.Hypergraph(), p.options(htd.Options{}))
		end()
		if err != nil {
			return nil, err
		}
		end = p.span("eval")
		rows, err := htd.AnswerQueryWithCtx(ctx, q, db, d, p.options(htd.Options{}))
		end()
		if err != nil {
			return nil, err
		}
		return func() error { return equalRows(rows, *want) }, nil
	}
}

// --- standing_delta ----------------------------------------------------

// The standing query's database: chain_5's five relations, in which every
// value of a domain wide enough that the answer set stays far from
// saturated starts with deltaOut successors.
const (
	deltaDomain    = 200
	deltaOut       = 2
	deltasPerCycle = 50
)

func newStandingDelta(seed int64) (*bench, error) { return standingBench(seed, nil) }

// standingBench opens one standing chain_5 query over a seeded database
// and feeds it a seeded stream of deltas that all reach the join tree: it
// alternates deleting a present tuple with inserting an absent one.
func standingBench(seed int64, st *htd.Stats) (*bench, error) {
	var text string
	for _, inst := range catalog.QueryCatalog() {
		if inst.Name == "chain_5" {
			text = inst.Text
		}
	}
	q, err := htd.ParseQuery(text)
	if err != nil {
		return nil, err
	}
	s := newStream(rand.New(rand.NewSource(seed)), 5)
	sq, err := htd.OpenStandingQuery(context.Background(), q, s.mirror, htd.Options{Stats: st})
	if err != nil {
		return nil, err
	}
	s.answers = len(sq.Answers())
	// The open evaluates the query in full, which is the warm-up pass.
	// Warm-up deltas would make setup_s a function of how many of the
	// seed's first deltas change the answers: about 10 ms each if they
	// do, 0.3 ms if not.
	b := &bench{openWarms: true}
	b.add(template{name: "delta/chain_5", kind: kindDelta, weight: deltasPerCycle, next: func(int) op {
		return s.next(sq)
	}})
	// After every cycle the maintained answers must equal a full
	// re-evaluation of the mutated database.
	b.endCycle = func() error {
		want, err := htd.AnswerQuery(q, s.mirror)
		if err != nil {
			return err
		}
		return equalRows(sq.Answers(), want)
	}
	b.twin = func(st *htd.Stats) (*bench, error) { return standingBench(seed, st) }
	return b, nil
}

// relSet is one relation's present tuples, indexable for uniform deletes.
type relSet struct {
	name  string
	rows  [][2]string
	index map[[2]string]int
}

func (r *relSet) add(t [2]string) {
	r.index[t] = len(r.rows)
	r.rows = append(r.rows, t)
}

func (r *relSet) has(t [2]string) bool {
	_, ok := r.index[t]
	return ok
}

func (r *relSet) remove(t [2]string) {
	i := r.index[t]
	last := r.rows[len(r.rows)-1]
	r.rows[i] = last
	r.index[last] = i
	r.rows = r.rows[:len(r.rows)-1]
	delete(r.index, t)
}

// stream draws the delta sequence and keeps a mirror database in step
// with it, for the end-of-cycle re-evaluation.
type stream struct {
	rng     *rand.Rand
	consts  []string
	rels    []*relSet
	mirror  *htd.Database
	n       int // deltas drawn
	answers int // answer count after the last delta
	// last is the tuple the last delete removed, from relation lastRel.
	// The insert that follows gives its source a new successor, so every
	// out-degree returns to deltaOut and the database keeps one shape for
	// the whole stream, however far a run gets.
	last    [2]string
	lastRel *relSet
}

// newStream draws a database of rels relations r0 … r(rels-1) over
// [0, deltaDomain), each value with deltaOut distinct successors.
func newStream(rng *rand.Rand, rels int) *stream {
	s := &stream{rng: rng, mirror: htd.NewDatabase()}
	for i := 0; i < deltaDomain; i++ {
		s.consts = append(s.consts, fmt.Sprint(i))
	}
	for r := 0; r < rels; r++ {
		rs := &relSet{name: fmt.Sprintf("r%d", r), index: map[[2]string]int{}}
		for a := 0; a < deltaDomain; a++ {
			for _, b := range rng.Perm(deltaDomain)[:deltaOut] {
				t := [2]string{s.consts[a], s.consts[b]}
				rs.add(t)
				s.mirror.Add(rs.name, t[0], t[1])
			}
		}
		s.rels = append(s.rels, rs)
	}
	return s
}

// next draws the next delta, outside the timed calls, and returns the op
// that applies it and reads the refreshed answers.
func (s *stream) next(sq *htd.StandingQuery) op {
	insert := s.n%2 == 1
	s.n++
	rs, t := s.lastRel, s.last
	if insert {
		for t == s.last || rs.has(t) {
			t = [2]string{s.last[0], s.consts[s.rng.Intn(deltaDomain)]}
		}
		rs.add(t)
		s.mirror.Add(rs.name, t[0], t[1])
	} else {
		rs = s.rels[s.rng.Intn(len(s.rels))]
		t = rs.rows[s.rng.Intn(len(rs.rows))]
		rs.remove(t)
		s.mirror.Delete(rs.name, t[0], t[1])
		s.last, s.lastRel = t, rs
	}
	return func(ctx context.Context, p *probe) (func() error, error) {
		prev := s.answers
		end := p.span("delta")
		var err error
		if insert {
			err = sq.Insert(ctx, rs.name, t[0], t[1])
		} else {
			err = sq.Delete(ctx, rs.name, t[0], t[1])
		}
		n := len(sq.Answers())
		end()
		if err != nil {
			return nil, err
		}
		s.answers = n
		p.changed(n != prev)
		return func() error {
			if insert && n < prev || !insert && n > prev {
				return fmt.Errorf("insert=%v moved the answer count %d -> %d", insert, prev, n)
			}
			return nil
		}, nil
	}
}
