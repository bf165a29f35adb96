package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/tree"
)

// TestOracleDifferential1000Batches is the oracle-differential harness: it
// replays every answer of 1000 randomized heterogeneous batches against the
// sequential brute-force oracles (cascade.SearchPath for the static catalog
// shard, dynamic.Find for the dynamic shard, subdivision.LocateBrute for
// planar point location, Complex.LocateBrute for spatial location). Between
// batches it churns the dynamic shard — inserts, deletes, and explicit
// flushes — so cache invalidation across generations is exercised under the
// same differential check. Each case derives its own seed from the base
// seed; failures print it so any divergence replays standalone.
func TestOracleDifferential1000Batches(t *testing.T) {
	const baseSeed int64 = 20260806
	t.Logf("oracle-differential base seed %d", baseSeed)
	fx := buildFixture(t, baseSeed, 16, 700)
	e := fx.newEngine(t, Config{Procs: 2048, BatchSize: 16, CacheSize: 64})
	churn := rand.New(rand.NewSource(baseSeed ^ 0x5eed))

	batches := 1000
	if testing.Short() {
		batches = 100
	}
	for c := 0; c < batches; c++ {
		caseSeed := baseSeed + int64(c)
		rng := rand.New(rand.NewSource(caseSeed))
		qs := make([]Query, 1+rng.Intn(24))
		for i := range qs {
			qs[i] = fx.randomQuery(rng)
		}
		answers, rep, err := e.ExecuteBatch(qs)
		if err != nil {
			t.Fatalf("case seed %d: %v", caseSeed, err)
		}
		if rep.Errors != 0 {
			t.Fatalf("case seed %d: %d query errors", caseSeed, rep.Errors)
		}
		for i := range answers {
			fx.checkAnswer(t, fmt.Sprintf("case seed %d query %d", caseSeed, i), qs[i], answers[i])
		}
		fx.churnDynamic(t, churn)
	}
	m := e.Metrics()
	t.Logf("served %d queries in %d batches; cache: static %+v dynamic %+v; pool tasks %d",
		m.Queries, m.Batches, m.Cache[0], m.Cache[1], m.Tasks)
	if m.Cache[0].Hits == 0 {
		t.Errorf("static shard cache never hit across %d batches", batches)
	}
	if m.Cache[1].Stale == 0 {
		t.Errorf("dynamic shard cache never saw a generation purge despite churn")
	}
}

// churnDynamic applies a small random mutation burst to the dynamic shard:
// inserts, oracle-guided deletes, and occasionally an explicit flush.
func (fx *fixture) churnDynamic(tb testing.TB, rng *rand.Rand) {
	tb.Helper()
	n := fx.trees[1].N()
	for op := 0; op < 3; op++ {
		v := tree.NodeID(rng.Intn(n))
		switch rng.Intn(5) {
		case 0, 1:
			// Duplicate keys are rejected by Insert; that is fine here.
			_ = fx.dyn.Insert(v, catalog.Key(rng.Int63n(fx.bound)), int32(rng.Intn(1000)))
		case 2:
			if k, _ := fx.dyn.Find(v, catalog.Key(rng.Int63n(fx.bound))); k != catalog.PlusInf {
				if err := fx.dyn.Delete(v, k); err != nil {
					tb.Fatalf("delete of found key %d at node %d: %v", k, v, err)
				}
			}
		case 3:
			if rng.Intn(4) == 0 {
				if err := fx.dyn.Flush(); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
}
