// Query-workload mode of the harness (htdbench -json -queries): a
// deterministic catalog of conjunctive queries over generated databases,
// each evaluated end-to-end — decomposition plus the parallel Yannakakis
// engine — under the same telemetry and timeout regime as the
// decomposition catalog. Records carry Kind "cq", so the -compare gate
// applies unchanged: width (here the ghw of the evaluation decomposition)
// and the answer count are gated exactly, wall/heap through their noise
// factors.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"hypertree"
)

// queryInstance is one catalog entry: a fixed query text plus a seeded
// database builder, so every run over the same seed sees byte-identical
// inputs.
type queryInstance struct {
	Name  string
	Text  string
	Build func(seed int64) *htd.Database
}

// pairs adds n random 2-tuples over [0,domain) to relation rel.
func pairs(db *htd.Database, rng *rand.Rand, rel string, n, domain int) {
	for i := 0; i < n; i++ {
		db.Add(rel, fmt.Sprint(rng.Intn(domain)), fmt.Sprint(rng.Intn(domain)))
	}
}

// QueryCatalog returns the deterministic query workloads: chains, stars,
// cycles, a triangle, and a constant-filtered join — the CQ shapes whose
// decompositions exercise distinct tree topologies (paths, bushy stars,
// width-2 cycles).
func QueryCatalog() []queryInstance {
	return []queryInstance{
		{
			Name: "chain_5",
			Text: "ans(X0,X5) :- r0(X0,X1), r1(X1,X2), r2(X2,X3), r3(X3,X4), r4(X4,X5).",
			Build: func(seed int64) *htd.Database {
				rng := rand.New(rand.NewSource(seed))
				db := htd.NewDatabase()
				for i := 0; i < 5; i++ {
					pairs(db, rng, fmt.Sprintf("r%d", i), 2000, 60)
				}
				return db
			},
		},
		{
			Name: "star_6",
			Text: "ans(C) :- s0(C,L0), s1(C,L1), s2(C,L2), s3(C,L3), s4(C,L4), s5(C,L5).",
			Build: func(seed int64) *htd.Database {
				rng := rand.New(rand.NewSource(seed))
				db := htd.NewDatabase()
				for i := 0; i < 6; i++ {
					pairs(db, rng, fmt.Sprintf("s%d", i), 1500, 50)
				}
				return db
			},
		},
		{
			Name: "triangle",
			Text: "ans(X,Y,Z) :- e(X,Y), e(Y,Z), e(Z,X).",
			Build: func(seed int64) *htd.Database {
				rng := rand.New(rand.NewSource(seed))
				db := htd.NewDatabase()
				pairs(db, rng, "e", 600, 70)
				return db
			},
		},
		{
			Name: "cycle_6",
			Text: "ans(X0,X3) :- e0(X0,X1), e1(X1,X2), e2(X2,X3), e3(X3,X4), e4(X4,X5), e5(X5,X0).",
			Build: func(seed int64) *htd.Database {
				rng := rand.New(rand.NewSource(seed))
				db := htd.NewDatabase()
				for i := 0; i < 6; i++ {
					pairs(db, rng, fmt.Sprintf("e%d", i), 800, 40)
				}
				return db
			},
		},
		{
			Name: "const_filter",
			Text: "ans(X,Z) :- r(X,Y), s(Y,Z), t(Z,'7').",
			Build: func(seed int64) *htd.Database {
				rng := rand.New(rand.NewSource(seed))
				db := htd.NewDatabase()
				pairs(db, rng, "r", 2500, 50)
				pairs(db, rng, "s", 2500, 50)
				pairs(db, rng, "t", 2500, 10)
				return db
			},
		},
	}
}

// queryJobs pins the evaluation worker count: the harness measures the
// parallel engine, so it must not degrade to the sequential path on
// single-core runners (Jobs 0 resolves to GOMAXPROCS). Answers are
// scheduling-independent; only the latency distributions see the workers.
const queryJobs = 4

// RunQueries executes the query workloads sequentially and returns the
// report (the -queries counterpart of Run).
func RunQueries(cfg Config) Report {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if len(cfg.Methods) == 0 {
		cfg.Methods = []htd.Method{htd.MethodMinFill}
	}
	rep := Report{
		GeneratedBy: "htdbench -json -queries",
		Timeout:     cfg.Timeout.String(),
		Seed:        cfg.Seed,
		Full:        cfg.Full,
	}
	for _, m := range cfg.Methods {
		rep.Methods = append(rep.Methods, m.String())
	}

	for _, inst := range QueryCatalog() {
		if !cfg.keep(inst.Name) {
			continue
		}
		q, err := htd.ParseQuery(inst.Text)
		if err != nil {
			rep.Records = append(rep.Records, Record{
				Instance: inst.Name, Family: "query", Kind: "cq",
				Error: err.Error(),
			})
			continue
		}
		db := inst.Build(cfg.Seed)
		h := q.Hypergraph()
		for _, m := range cfg.Methods {
			rec := &Record{
				Instance: inst.Name, Family: "query", Kind: "cq",
				Vertices: h.NumVertices(), Edges: h.NumEdges(),
				Method: m.String(), Seed: cfg.Seed,
			}
			rep.measure(cfg, rec, func(ctx context.Context, st *htd.Stats) (htd.Result, error) {
				opt := htd.Options{Method: m, Seed: cfg.Seed, Stats: st, Jobs: queryJobs}
				d, err := htd.DecomposeCtx(ctx, h, opt)
				if err != nil {
					return htd.Result{}, err
				}
				rows, err := htd.AnswerQueryWithCtx(ctx, q, db, d, opt)
				if err == nil {
					rec.Answers = int64(len(rows))
				}
				return htd.Result{Width: d.GHWidth()}, err
			})
		}
	}
	rep.batchCatalog(cfg)
	rep.deltaChain(cfg)
	return rep
}

// batchCatalog records the whole query catalog evaluated as one
// shared-base batch over the union database (relation names are disjoint
// across entries): the serving-mode counterpart of the per-query records.
// Answers is the total row count across the batch, gated exactly by
// -compare; the counters carry cq_batch_shared_joins, which the CI gate
// asserts positive (the triangle query alone reuses its e relation twice).
func (rep *Report) batchCatalog(cfg Config) {
	const name = "batch_catalog"
	if !cfg.keep(name) {
		return
	}
	rec := &Record{
		Instance: name, Family: "query", Kind: "cq",
		Method: "minfill", Seed: cfg.Seed,
	}
	var qs []*htd.Query
	db := htd.NewDatabase()
	for _, inst := range QueryCatalog() {
		q, err := htd.ParseQuery(inst.Text)
		if err != nil {
			rec.Error = err.Error()
			rep.add(cfg, *rec)
			return
		}
		qs = append(qs, q)
		h := q.Hypergraph()
		rec.Vertices += h.NumVertices()
		rec.Edges += h.NumEdges()
		idb := inst.Build(cfg.Seed)
		for _, rel := range idb.Relations() {
			for _, row := range idb.Relation(rel) {
				db.Add(rel, row...)
			}
		}
	}
	rep.measure(cfg, rec, func(ctx context.Context, st *htd.Stats) (htd.Result, error) {
		results, err := htd.AnswerQueryBatchCtx(ctx, qs, db, htd.Options{Stats: st, Jobs: queryJobs})
		if err == nil {
			for _, rows := range results {
				rec.Answers += int64(len(rows))
			}
		}
		return htd.Result{}, err
	})
}

// deltaChain records the chain_5 workload served through a standing query
// under a deterministic seeded insert/delete stream: the incremental-mode
// record. Answers is the final answer count after every delta, gated
// exactly; the counters carry cq_delta_tuples.
func (rep *Report) deltaChain(cfg Config) {
	const name = "delta_chain"
	if !cfg.keep(name) {
		return
	}
	rec := &Record{
		Instance: name, Family: "query", Kind: "cq",
		Method: "minfill", Seed: cfg.Seed,
	}
	var chain *queryInstance
	for _, inst := range QueryCatalog() {
		if inst.Name == "chain_5" {
			inst := inst
			chain = &inst
			break
		}
	}
	q, err := htd.ParseQuery(chain.Text)
	if err != nil {
		rec.Error = err.Error()
		rep.add(cfg, *rec)
		return
	}
	h := q.Hypergraph()
	rec.Vertices, rec.Edges = h.NumVertices(), h.NumEdges()
	db := chain.Build(cfg.Seed)
	rep.measure(cfg, rec, func(ctx context.Context, st *htd.Stats) (htd.Result, error) {
		sq, err := htd.OpenStandingQuery(ctx, q, db, htd.Options{Stats: st, Jobs: queryJobs})
		if err != nil {
			return htd.Result{}, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		for i := 0; i < 150 && err == nil; i++ {
			rel := fmt.Sprintf("r%d", rng.Intn(5))
			a, b := fmt.Sprint(rng.Intn(60)), fmt.Sprint(rng.Intn(60))
			if rng.Intn(3) == 0 {
				err = sq.Delete(ctx, rel, a, b)
			} else {
				err = sq.Insert(ctx, rel, a, b)
			}
		}
		if err == nil {
			rec.Answers = int64(len(sq.Answers()))
		}
		return htd.Result{}, err
	})
}
