package engine

import (
	"os"
	"testing"
)

// executeBatchAllocsBound is the measured allocation count of one warm
// 32-query catalog batch with nothing attached: the answer slice and the
// one Run closure per batch, then one result slice per query. The phase
// decomposition is a fixed array in the answer and the executor's
// index-claim loop adds nothing per query.
const executeBatchAllocsBound = 34

// TestExecuteBatchAllocs pins the engine's disabled-telemetry hot path: a
// warm 32-query catalog batch over a static and a dynamic shard (every
// lookup an entry-cache hit after the first run) allocates no more than
// executeBatchAllocsBound.
func TestExecuteBatchAllocs(t *testing.T) {
	if os.Getenv("FRACCASCADE_GUARD") == "skip" {
		t.Skip("allocation guard skipped via FRACCASCADE_GUARD=skip")
	}
	fx := buildFixture(t, 71, 16, 700)
	rng := seededRNG(t, 71)
	e := fx.newEngine(t, Config{Procs: 2048})
	qs := make([]Query, 32)
	for i := range qs {
		qs[i] = CatalogQuery(i%2, fx.clusteredKey(rng), randomPath(fx.trees[i%2], rng))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, rep, err := e.ExecuteBatch(qs); err != nil || rep.Errors != 0 {
			t.Fatalf("ExecuteBatch: err %v, %d query errors", err, rep.Errors)
		}
	})
	t.Logf("ExecuteBatch(32 catalog queries): %.0f allocs/batch", allocs)
	if allocs > executeBatchAllocsBound {
		t.Errorf("ExecuteBatch allocates %.0f per 32-query batch, want <= %d", allocs, executeBatchAllocsBound)
	}
}
