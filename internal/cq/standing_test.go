package cq_test

import (
	"context"
	"math/rand"
	"testing"

	"hypertree"
	"hypertree/internal/bench"
	"hypertree/internal/cq"
)

// TestOutGroupsMatchFullOutStep is the grouped out layer's white-box
// check. After the open and after every delta of a seeded stream, into
// every shape of the benchmark query catalog and into random serving
// instances, each node's groups, read as one set, must equal outStep
// recomputed from scratch over the current down layer, and the answers
// must be those the full root relation renders (cq.CheckOutGroups). This
// keeps the delta form of the out step in step with the full form.
func TestOutGroupsMatchFullOutStep(t *testing.T) {
	ctx := context.Background()
	deltas := 30
	if raceEnabled {
		deltas = 6
	}
	for _, inst := range bench.QueryCatalog() {
		q, err := htd.ParseQuery(inst.Text)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		db := inst.Build(1)
		sq, err := htd.OpenStandingQuery(ctx, q, db, htd.Options{Method: htd.MethodMinFill, Seed: 1, Jobs: 2})
		if err != nil {
			t.Fatalf("%s open: %v", inst.Name, err)
		}
		if err := cq.CheckOutGroups(sq); err != nil {
			t.Fatalf("%s open: %v", inst.Name, err)
		}
		rng := rand.New(rand.NewSource(1))
		shadow := db.Clone()
		for i := 0; i < deltas; i++ {
			if err := catalogDelta(ctx, rng, q, shadow, sq); err != nil {
				t.Fatalf("%s delta %d: %v", inst.Name, i, err)
			}
			if err := cq.CheckOutGroups(sq); err != nil {
				t.Fatalf("%s delta %d: %v", inst.Name, i, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 250; trial++ {
		qs, db, arity := cq.RandomServingInstance(rng, 1)
		sq, err := cq.NewStandingQuery(ctx, qs[0], db, nil, cq.EvalOptions{Jobs: 1 + trial%3})
		if err != nil {
			t.Fatalf("trial %d: open: %v", trial, err)
		}
		shadow := db.Clone()
		for step := 0; step < 6; step++ {
			rel, tuple, insert := cq.RandomDelta(rng, shadow, arity)
			if insert {
				shadow.Add(rel, tuple...)
				err = sq.Insert(ctx, rel, tuple...)
			} else {
				shadow.Delete(rel, tuple...)
				err = sq.Delete(ctx, rel, tuple...)
			}
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if err := cq.CheckOutGroups(sq); err != nil {
				t.Fatalf("trial %d step %d on %s: %v", trial, step, qs[0], err)
			}
		}
	}
}
