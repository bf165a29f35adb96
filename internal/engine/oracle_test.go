package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestOracleDifferential1000Batches is the oracle-differential harness: it
// replays every answer of 1000 randomized heterogeneous batches against the
// sequential brute-force oracles (cascade.SearchPath for the catalog
// shards, subdivision.LocateBrute for planar point location,
// Complex.LocateBrute for spatial location). Each case derives its own
// seed from the base seed; failures print it so any divergence replays
// standalone.
func TestOracleDifferential1000Batches(t *testing.T) {
	const baseSeed int64 = 20260806
	t.Logf("oracle-differential base seed %d", baseSeed)
	fx := buildFixture(t, baseSeed, 16, 700)
	e := fx.newEngine(t, Config{Procs: 2048, BatchSize: 16, CacheSize: 64})

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
	}
	m := e.Metrics()
	t.Logf("served %d queries in %d batches; cache: shard 0 %+v shard 1 %+v; pool tasks %d",
		m.Queries, m.Batches, m.Cache[0], m.Cache[1], m.Tasks)
	for i, c := range m.Cache {
		if c.Hits == 0 {
			t.Errorf("shard %d cache never hit across %d batches", i, batches)
		}
	}
}
