// Batch-mode query serving: evaluate many conjunctive queries over one
// database while interning the hashed base relations once. Per-query
// evaluation re-interns every relation it touches; across a batch the same
// (relation, arity) pair recurs — in one query's repeated atoms and across
// queries — so the canonical deduped row set is built a single time and
// every further plain atom (all-distinct variables, no constants) aliases
// it for free. Decompositions are likewise shared: queries whose hypergraphs
// are index-identical reuse one plan. Results are bit-identical to running
// EvaluateCtx per query at every Jobs value — sharing only changes which
// integers encode which constants, never the relational structure, and
// answers are rendered back through the shared dictionary before the final
// deterministic sort.
package cq

import (
	"context"
	"strings"

	"hypertree/internal/csp"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/telemetry"
)

// relKey identifies one canonical base relation of a batch.
type relKey struct {
	name  string
	arity int
}

// sharedRel is one memoized canonical relation: the deduped interned rows
// of (name, arity) in column order, or the arity error per-query
// evaluation would have reported.
type sharedRel struct {
	rel *csp.Relation
	err error
}

// sharedBase interns one database's relations once for a whole batch: a
// shared constant dictionary plus canonical deduped row sets keyed by
// (relation, arity). Not safe for concurrent use — the batch loop runs
// queries sequentially (parallelism lives inside each query's passes).
type sharedBase struct {
	db    *Database
	terms *interner
	rels  map[relKey]*sharedRel
	stats *telemetry.Stats
}

func newSharedBase(db *Database, stats *telemetry.Stats) *sharedBase {
	return &sharedBase{
		db:    db,
		terms: newInterner(),
		rels:  map[relKey]*sharedRel{},
		stats: stats,
	}
}

// canonical returns the deduped interned rows of the named relation at the
// given arity, over the scope 0 … arity−1, building them on first use.
// Every further request is a shared-base-join hit: the rows are shared,
// not copied, and the batch counter records the amortization.
func (sb *sharedBase) canonical(name string, arity int) (*csp.Relation, error) {
	k := relKey{name, arity}
	if sr, ok := sb.rels[k]; ok {
		if sr.err == nil {
			sb.stats.Add(telemetry.CQBatchSharedJoins, 1)
		}
		return sr.rel, sr.err
	}
	// The shape of a plain atom over the relation: column i is variable i.
	cols := make([]int, arity)
	for i := range cols {
		cols[i] = i
	}
	sh := atomShape{relation: name, first: cols, cols: cols}
	sr := &sharedRel{}
	sr.rel, sr.err = csp.DistinctRows(sh.cols, func(add func([]int)) error {
		return sh.intern(sb.db.Relation(name), sb.terms, add)
	})
	sb.rels[k] = sr
	return sr.rel, sr.err
}

// hypergraphSig renders the index structure of a hypergraph — vertex count
// plus each edge's vertex indices in edge order — as a plan-cache key. Two
// queries with equal signatures induce identical decompositions (the
// decomposition machinery sees only indices), so a batch decomposes each
// distinct shape once, and a flow accepts a decomposition only of its
// instance's signature.
func hypergraphSig(h *hypergraph.Hypergraph) string {
	var b strings.Builder
	b.WriteString("v")
	writeInt(&b, h.NumVertices())
	for e := 0; e < h.NumEdges(); e++ {
		b.WriteByte('|')
		h.EdgeSet(e).ForEach(func(v int) bool {
			writeInt(&b, v)
			b.WriteByte(',')
			return true
		})
	}
	return b.String()
}

func writeInt(b *strings.Builder, n int) {
	if n == 0 {
		b.WriteByte('0')
		return
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	b.Write(buf[i:])
}

// EvaluateBatchCtx evaluates every query of the batch over db, building
// each query's default decomposition (min-fill, exact covers) with a
// plan cache over identical hypergraph shapes and interning the hashed
// base relations once for the whole batch. Answers are bit-identical to
// calling EvaluateCtx per query, at every Jobs value. On cancellation it
// returns the context's error and no partial answer set.
func EvaluateBatchCtx(ctx context.Context, qs []*Query, db *Database, opt EvalOptions) ([][][]string, error) {
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	plans := make([]*decomp.Decomposition, len(qs))
	cache := map[string]*decomp.Decomposition{}
	for i, q := range qs {
		sig := hypergraphSig(q.Hypergraph())
		if d, ok := cache[sig]; ok {
			plans[i] = d
			continue
		}
		plans[i] = defaultDecomposition(q)
		cache[sig] = plans[i]
	}
	return EvaluateBatchWithCtx(ctx, qs, db, plans, opt)
}

// EvaluateBatchWithCtx is EvaluateBatchCtx over caller-supplied
// decompositions, one per query (ds[i] decomposes qs[i].Hypergraph(); the
// same *Decomposition may appear at several positions — plans are
// reusable). Queries run sequentially, sharing interned base relations;
// each query's internal passes parallelize per opt.Jobs.
func EvaluateBatchWithCtx(ctx context.Context, qs []*Query, db *Database, ds []*decomp.Decomposition, opt EvalOptions) ([][][]string, error) {
	if len(ds) != len(qs) {
		return nil, errBatchPlans(len(qs), len(ds))
	}
	tr, track := opt.Trace, opt.Track
	tr.Begin(track, "cq.batch")
	defer tr.End(track, "cq.batch")
	sb := newSharedBase(db, opt.Stats)
	out := make([][][]string, len(qs))
	for i, q := range qs {
		rows, _, err := evaluate(ctx, q, db, ds[i], opt, sb, true)
		if err != nil {
			return nil, err
		}
		out[i] = rows
		tr.Instant(track, "cq.batch.query",
			telemetry.Arg{Key: "query", Val: int64(i)},
			telemetry.Arg{Key: "answers", Val: int64(len(rows))})
	}
	return out, nil
}
