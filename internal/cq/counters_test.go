package cq_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertree"
	"hypertree/internal/bench"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/counters.golden from the current engine")

const countersGolden = "testdata/counters.golden"

// TestCounterGolden pins the engine's work, not just its answers: for every
// shape of the benchmark query catalog at database seed 1 it records the
// cq_* counters of a one-shot evaluation, a Boolean evaluation, opening a
// standing query, and a seeded 60-delta insert/delete stream into it, and
// compares them with testdata/counters.golden. Jobs 1 and 3 must both
// reproduce the golden exactly: the engine's dataflow is level-synchronous,
// so the kernels run on the same inputs whatever the worker count.
// Regenerate with `go test ./internal/cq -run TestCounterGolden -update`.
func TestCounterGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("exact work counts are scheduling-free; under -race this only runs ~5x slower")
	}
	var got []string
	for _, jobs := range []int{1, 3} {
		var lines []string
		for _, inst := range bench.QueryCatalog() {
			q, err := htd.ParseQuery(inst.Text)
			if err != nil {
				t.Fatalf("%s: %v", inst.Name, err)
			}
			lines = append(lines, catalogWork(t, inst.Name, q, inst.Build(1), jobs)...)
		}
		if got == nil {
			got = lines
			continue
		}
		for i := range lines {
			if lines[i] != got[i] {
				t.Errorf("jobs=3 differs from jobs=1:\n got %s\nwant %s", lines[i], got[i])
			}
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(countersGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countersGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("counter drift:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}

// catalogWork runs the four counted operations on one catalog instance and
// renders one golden line per operation.
func catalogWork(t *testing.T, name string, q *htd.Query, db *htd.Database, jobs int) []string {
	t.Helper()
	ctx := context.Background()
	opt := func(st *htd.Stats) htd.Options {
		return htd.Options{Method: htd.MethodMinFill, Seed: 1, Jobs: jobs, Stats: st}
	}
	var lines []string
	line := func(op string, s htd.StatsSnapshot, answers int) {
		lines = append(lines, fmt.Sprintf("%s %s join=%d semijoin=%d output=%d delta=%d answers=%d",
			name, op, s.CQJoinTuples, s.CQSemijoinTuples, s.CQOutputJoins, s.CQDeltaTuples, answers))
	}

	st := new(htd.Stats)
	rows, err := htd.AnswerQueryCtx(ctx, q, db, opt(st))
	if err != nil {
		t.Fatalf("%s answer: %v", name, err)
	}
	line("answer", st.Snapshot(), len(rows))

	st = new(htd.Stats)
	sat, err := htd.BooleanQueryCtx(ctx, q, db, opt(st))
	if err != nil {
		t.Fatalf("%s boolean: %v", name, err)
	}
	satRows := 0
	if sat {
		satRows = 1
	}
	line("boolean", st.Snapshot(), satRows)

	st = new(htd.Stats)
	sq, err := htd.OpenStandingQuery(ctx, q, db, opt(st))
	if err != nil {
		t.Fatalf("%s open: %v", name, err)
	}
	opened := st.Snapshot()
	line("open", opened, len(sq.Answers()))

	rng := rand.New(rand.NewSource(1))
	shadow := db.Clone()
	for i := 0; i < 60; i++ {
		if err := catalogDelta(ctx, rng, q, shadow, sq); err != nil {
			t.Fatalf("%s delta %d: %v", name, i, err)
		}
	}
	s := st.Snapshot()
	s.CQJoinTuples -= opened.CQJoinTuples
	s.CQSemijoinTuples -= opened.CQSemijoinTuples
	s.CQOutputJoins -= opened.CQOutputJoins
	s.CQDeltaTuples -= opened.CQDeltaTuples
	line("deltas", s, len(sq.Answers()))
	return lines
}

// catalogDelta draws the next delta of a catalog stream and applies it to
// shadow and to sq. It draws a relation from the body and values from the
// relation's current rows, so inserts join with existing data and deletes
// hit.
func catalogDelta(ctx context.Context, rng *rand.Rand, q *htd.Query, shadow *htd.Database, sq *htd.StandingQuery) error {
	rel := q.Body[rng.Intn(len(q.Body))].Relation
	rows := shadow.Relation(rel)
	if rng.Intn(3) == 0 {
		row := rows[rng.Intn(len(rows))]
		shadow.Delete(rel, row...)
		return sq.Delete(ctx, rel, row...)
	}
	tuple := make([]string, len(rows[0]))
	for j := range tuple {
		tuple[j] = rows[rng.Intn(len(rows))][j]
	}
	shadow.Add(rel, tuple...)
	return sq.Insert(ctx, rel, tuple...)
}
