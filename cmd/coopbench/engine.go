package main

import (
	"fmt"
	"math/rand"

	"fraccascade/internal/benchfmt"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/engine"
	"fraccascade/internal/pointloc"
	"fraccascade/internal/spatial"
	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
)

// e20Columns: the rates depend on concurrent cache-fill order, so they may
// drop 35% before the gate fails.
var e20Columns = benchfmt.Columns{Keys: []string{"batch", "procs_per_query"}, Metrics: []benchfmt.Metric{
	benchfmt.Gated("queries_per_step", "queries/step", benchfmt.Higher, 0.35),
	benchfmt.Gated("sequential_queries_per_step", "queries/step", benchfmt.Higher, 0.35),
	benchfmt.Gated("cache_hit_rate", "ratio", benchfmt.Higher, 0.35),
}}

// runE20 measures batched multi-query throughput: a mixed stream of
// catalog, planar, and spatial queries executed by internal/engine in
// batches of b over a fixed total processor budget P. Each query in a
// batch runs on a disjoint group of P/b processors (the paper's p-way cost
// model), so the batch's parallel time is the slowest query, not the sum —
// queries/step grows almost linearly in b while the per-query step count
// only inflates by log P / log(P/b). The one-query-at-a-time baseline
// gives every query the full budget but serialises them. The cache column
// reports the entry-point cache hit rate over the batch's catalog queries
// (the workload draws half its keys from narrow bands, so locality is
// present by construction).
func runE20(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fmt.Println("batched engine: throughput (queries/step) vs batch size b at fixed budget P = 4096")
	const total = 20000
	keyBound := int64(total) * 8
	st, bt := buildTree(1<<8, total, rng, core.Config{})
	st2, bt2 := buildTree(1<<8, total, rng, core.Config{})
	s, err := subdivision.Generate(128, 24, rng)
	if err != nil {
		panic(err)
	}
	pl, err := pointloc.Build(s, core.Config{})
	if err != nil {
		panic(err)
	}
	cx, err := spatial.Generate(120, 4, rng)
	if err != nil {
		panic(err)
	}
	sp, err := spatial.NewLocator(cx)
	if err != nil {
		panic(err)
	}
	const procs = 4096
	e, err := engine.New(engine.Config{Procs: procs, Obs: obsRegistry}, []*core.Structure{st, st2}, pl, sp)
	if err != nil {
		panic(err)
	}
	trees := []*tree.Tree{bt, bt2}
	clustered := func() catalog.Key {
		if rng.Intn(2) == 0 {
			return catalog.Key((keyBound/8)*int64(1+rng.Intn(7)) + rng.Int63n(128) - 64)
		}
		return catalog.Key(rng.Int63n(keyBound))
	}
	randomQuery := func() engine.Query {
		switch rng.Intn(4) {
		case 0, 1:
			shard := rng.Intn(2)
			t := trees[shard]
			return engine.CatalogQuery(shard, clustered(), t.RootPath(tree.NodeID(rng.Intn(t.N()))))
		case 2:
			pt, _ := s.RandomInteriorPoint(rng)
			return engine.PointQuery(pt)
		default:
			x, y, z, _ := cx.RandomInteriorPoint(rng)
			return engine.SpatialQuery(x, y, z)
		}
	}
	fmt.Printf("%6s %8s %10s %12s %12s %10s %10s\n",
		"b", "p/query", "batchStep", "q/step", "q/step(seq)", "speedup", "cacheHit")
	for _, b := range []int{1, 2, 8, 32, 64, 128} {
		const rounds = 8
		var batchSteps, seqSteps int64
		var hits, catQ int
		for r := 0; r < rounds; r++ {
			qs := make([]engine.Query, b)
			for i := range qs {
				qs[i] = randomQuery()
			}
			_, rep, err := e.ExecuteBatch(qs)
			if err != nil {
				panic(err)
			}
			batchSteps += int64(rep.Steps)
			hits += rep.CacheHits
			catQ += rep.CacheHits + rep.CacheMisses
			_, sTotal, err := e.ExecuteSequential(qs)
			if err != nil {
				panic(err)
			}
			seqSteps += int64(sTotal)
		}
		nQ := float64(b * rounds)
		batched := nQ / float64(batchSteps)
		sequential := nQ / float64(seqSteps)
		hitRate := 0.0
		if catQ > 0 {
			hitRate = float64(hits) / float64(catQ)
		}
		fmt.Printf("%6d %8d %10d %12.3f %12.3f %9.1fx %9.1f%%\n",
			b, max(1, procs/b), batchSteps/rounds, batched, sequential, batched/sequential, 100*hitRate)
		record(e20Columns, map[string]any{
			"batch": b, "procs_per_query": max(1, procs/b),
			"queries_per_step": batched, "sequential_queries_per_step": sequential,
			"cache_hit_rate": hitRate,
		})
	}
	m := e.Metrics()
	fmt.Printf("pool: %d workers, %d tasks; shards: %d\n",
		e.Pool().Workers(), m.Tasks, e.NumShards())
}
