package engine

import (
	"testing"

	"fraccascade/internal/cascade"
	"fraccascade/internal/core"
)

// TestFlatEngineMatchesPointer holds the engine's frozen catalog shards to
// the pointer structures they were frozen from: every answer's results,
// Steps, Rounds and PhaseSteps must equal the core.Structure search that
// enters the same way — the plain search for a miss, the validated entry
// for a cache hit.
func TestFlatEngineMatchesPointer(t *testing.T) {
	fx := buildFixture(t, 601, 1<<5, 2400)
	rng := seededRNG(t, 601)
	var misses, hits int
	// A disabled cache makes every query a miss; a small cache mixes hits
	// and misses.
	for _, cfg := range []Config{
		{Procs: 256, Workers: 1, CacheSize: -1},
		{Procs: 256, Workers: 1, CacheSize: 8},
	} {
		e := fx.newEngine(t, cfg)
		for i := 0; i < 300; i++ {
			shard := rng.Intn(2)
			q := CatalogQuery(shard, fx.clusteredKey(rng), randomPath(fx.trees[shard], rng))
			st := fx.shards[shard]
			ans, _, err := e.ExecuteBatch([]Query{q})
			if err != nil {
				t.Fatal(err)
			}
			a := ans[0]
			var (
				want  []cascade.Result
				stats core.Stats
				used  bool
			)
			if a.CacheHit {
				hits++
				want, stats, used, err = st.SearchExplicitWithEntry(q.Key, q.Path, a.P, st.Cascade().Aug(q.Path[0]).Succ(q.Key))
			} else {
				misses++
				want, stats, err = st.SearchExplicit(q.Key, q.Path, a.P)
			}
			if err != nil || a.Err != nil {
				t.Fatalf("query %d: engine err %v, pointer err %v", i, a.Err, err)
			}
			if used != a.CacheHit || a.CacheStale {
				t.Fatalf("query %d: pointer entry used=%v, engine hit=%v stale=%v", i, used, a.CacheHit, a.CacheStale)
			}
			if a.Steps != stats.Steps || a.Rounds != stats.RootRounds || a.PhaseSteps != catalogPhases(stats) {
				t.Fatalf("query %d (hit=%v): steps %d rounds %d phases %v, pointer %+v",
					i, a.CacheHit, a.Steps, a.Rounds, a.PhaseSteps, stats)
			}
			if len(a.Results) != len(want) {
				t.Fatalf("query %d: %d results, want %d", i, len(a.Results), len(want))
			}
			for j := range want {
				if a.Results[j] != want[j] {
					t.Fatalf("query %d: result[%d] = %+v, want %+v", i, j, a.Results[j], want[j])
				}
			}
		}
	}
	if misses == 0 || hits == 0 {
		t.Fatalf("entry paths not all exercised: %d misses, %d hits", misses, hits)
	}
}
