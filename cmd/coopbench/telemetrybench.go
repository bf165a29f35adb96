package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fraccascade/internal/benchfmt"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/engine"
	"fraccascade/internal/obs"
	"fraccascade/internal/tree"
)

const (
	e25BatchSet = 64 // distinct pre-generated batches replayed round-robin
	e25Reps     = 5  // timing repeats; min survives (GC/scheduler noise)
	e25Rounds   = 96 // timed batches per measurement pass
)

// e25Workload is one engine configuration plus a fixed batch stream; the
// enabled and disabled measurements replay the identical batches.
type e25Workload struct {
	name    string
	n       int
	batches [][]engine.Query
}

// e25Engine builds the serving engine for one measurement arm. Both arms
// carry the production observability baseline (metrics registry and span
// ring); only the flight recorder — the subsystem E25 prices — differs.
func e25Engine(seed int64, flat bool, rec *obs.FlightRecorder) (*engine.Engine, []*tree.Tree, int) {
	rng := rand.New(rand.NewSource(seed))
	const total = 20000
	st, bt := buildTree(1<<8, total, rng, core.Config{})
	st2, bt2 := buildTree(1<<8, total, rng, core.Config{})
	e, err := engine.New(engine.Config{
		Procs: 4096, Obs: obs.NewRegistry(), Tracer: obs.NewRing(4096),
		CacheSize: 64, FingerCache: true, Flat: flat, Recorder: rec,
	}, []engine.CatalogBackend{engine.StaticShard{St: st}, engine.StaticShard{St: st2}}, nil, nil)
	if err != nil {
		panic(err)
	}
	return e, []*tree.Tree{bt, bt2}, total
}

// e25Batches pre-generates the catalog batch stream: the E20 key mix (half
// clustered in narrow bands, half uniform), so the entry cache and finger
// gallop see the locality the recorder's cache/finger columns exist for.
func e25Batches(seed int64, trees []*tree.Tree, total, batch int) [][]engine.Query {
	rng := rand.New(rand.NewSource(seed ^ 0x653235)) // "e25"
	keyBound := int64(total) * 8
	clustered := func() catalog.Key {
		if rng.Intn(2) == 0 {
			return catalog.Key((keyBound/8)*int64(1+rng.Intn(7)) + rng.Int63n(128) - 64)
		}
		return catalog.Key(rng.Int63n(keyBound))
	}
	batches := make([][]engine.Query, e25BatchSet)
	for b := range batches {
		qs := make([]engine.Query, batch)
		for i := range qs {
			shard := rng.Intn(len(trees))
			t := trees[shard]
			qs[i] = engine.CatalogQuery(shard, clustered(), t.RootPath(tree.NodeID(rng.Intn(t.N()))))
		}
		batches[b] = qs
	}
	return batches
}

// e25Time replays the batch stream and returns host ns/query, min of
// e25Reps passes, with a warmup pass and a forced GC up front (same
// discipline as e22Time).
func e25Time(e *engine.Engine, batches [][]engine.Query, observe func([]engine.Answer)) float64 {
	batch := len(batches[0])
	runPass := func() time.Duration {
		start := time.Now()
		for i := 0; i < e25Rounds; i++ {
			answers, _, err := e.ExecuteBatch(batches[i%len(batches)])
			if err != nil {
				panic(err)
			}
			if observe != nil {
				observe(answers)
			}
		}
		return time.Since(start)
	}
	runPass() // warmup: caches fill, pool state grows
	runtime.GC()
	var best time.Duration
	for rep := 0; rep < e25Reps; rep++ {
		if d := runPass(); rep == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(e25Rounds*batch)
}

// e25Columns: the overhead ratio is machine-normalized (both arms run on
// the gating host), so its 50% slack prices noise only; the raw ns
// columns get E22's 4x machine slack.
var e25Columns = benchfmt.Columns{Keys: []string{"n", "batch"}, Metrics: []benchfmt.Metric{
	benchfmt.Gated("disabled_ns_per_query", "ns/query", benchfmt.Lower, 3),
	benchfmt.Gated("enabled_ns_per_query", "ns/query", benchfmt.Lower, 3),
	benchfmt.Gated("telemetry_overhead_ratio", "x", benchfmt.Lower, 0.5),
}}

// runE25 prices the serving telemetry: identical engine workloads executed
// with the flight recorder off (the 0-alloc nil path coopserve runs under
// -flight-records=0) and on (recorder + rolling latency window + SLO fed
// per answer, exactly the coopserve serving loop). The ratio column is
// what the bench gate holds (e25Columns); the engine arms replay the E20
// batched mix over the pointer and flat backends (E22's serving layout).
func runE25(seed int64) {
	fmt.Println("extension: serving-telemetry overhead — flight recorder + latency windows on vs off, identical batches")
	fmt.Printf("%-8s %9s %7s %15s %15s %10s\n",
		"workload", "n", "batch", "off ns/query", "on ns/query", "ratio")
	for _, arm := range []struct {
		name string
		flat bool
	}{{"pointer", false}, {"flat", true}} {
		for _, batch := range []int{8, 32, 128} {
			// Disabled arm: no recorder — the engine takes no per-query
			// clock readings and records nothing.
			eOff, trees, total := e25Engine(seed, arm.flat, nil)
			batches := e25Batches(seed, trees, total, batch)
			offNS := e25Time(eOff, batches, nil)

			// Enabled arm: recorder sized like coopserve's default, plus
			// the rolling window and SLO fed per answer.
			rec := obs.NewFlightRecorder(obs.FlightRecorderConfig{Reservoir: 2048})
			latWin := obs.NewWindowedHistogram(10*time.Second, 12)
			slo := obs.NewSLO(250*time.Millisecond, 0.99, 10*time.Second, 12)
			eOn, trees, total := e25Engine(seed, arm.flat, rec)
			batches = e25Batches(seed, trees, total, batch)
			onNS := e25Time(eOn, batches, func(answers []engine.Answer) {
				for i := range answers {
					latWin.Observe(answers[i].WallNS)
					slo.Observe(answers[i].WallNS)
				}
			})

			ratio := onNS / offNS
			fmt.Printf("%-8s %9d %7d %15.1f %15.1f %9.3fx\n",
				arm.name, total, batch, offNS, onNS, ratio)
			record(e25Columns, map[string]any{
				"workload": arm.name, "n": total, "batch": batch,
				"disabled_ns_per_query":    offNS,
				"enabled_ns_per_query":     onNS,
				"telemetry_overhead_ratio": ratio,
			})
			if st := rec.Stats(); st.Total == 0 {
				panic("e25: enabled arm recorded nothing — the measurement is vacuous")
			}
		}
	}
	fmt.Println("ratio is gated by make bench-gate under the bound e25 declares.")
}
