package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fraccascade/internal/core"
	"fraccascade/internal/flat"
	"fraccascade/internal/tree"
)

// e23TimeReps is how many timing passes each (n, par) cell runs; the
// fastest survives, discarding GC pauses and scheduler noise exactly as
// E22's query timings do.
const e23TimeReps = 2

// e23TimeMS runs fn reps times and returns the fastest wall time in ms.
func e23TimeMS(reps int, fn func()) float64 {
	best := 0.0
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		start := time.Now()
		fn()
		ms := float64(time.Since(start).Microseconds()) / 1000
		if rep == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// runE23 measures construction throughput: wall time to build the pointer
// cascade (core.Build — catalog augmentation, bridges, skeleton blocks)
// and to freeze it into the flat layout, sequential vs fanned out over the
// host executor (internal/workpool). The output is bit-identical for every
// parallelism — pinned by the determinism property tests — so the only
// thing allowed to move here is wall time. build_speedup is the row's
// sequential build time over its parallel build time; on a single-core
// host it stays ~1.0, while 4+ host cores should clear 2x on the largest
// tree (the informational claim `make bench-build` tracks).
func runE23(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cores := runtime.GOMAXPROCS(0)
	fmt.Printf("construction throughput: pointer build + flat freeze, sequential vs host-executor fan-out (%d host cores)\n", cores)
	fmt.Printf("%9s %5s %12s %12s %14s\n", "n", "par", "build ms", "freeze ms", "build speedup")

	for _, leaves := range []int{1 << 8, 1 << 10, 1 << 11} {
		total := leaves * 94
		bt, err := tree.NewBalancedBinary(leaves)
		if err != nil {
			panic(err)
		}
		cats := randomCatalogs(bt, total, rng)
		seqMS := 0.0
		for _, par := range []int{1, 2, 4} {
			cfg := core.Config{Parallelism: par}
			var st *core.Structure
			buildMS := e23TimeMS(e23TimeReps, func() {
				st, err = core.Build(bt, cats, cfg)
				if err != nil {
					panic(err)
				}
			})
			freezeMS := e23TimeMS(e23TimeReps, func() {
				if _, err := flat.FreezeParallel(st, par); err != nil {
					panic(err)
				}
			})
			if par == 1 {
				seqMS = buildMS
			}
			speedup := seqMS / buildMS
			fmt.Printf("%9d %5d %12.2f %12.2f %14.2f\n", total, par, buildMS, freezeMS, speedup)
			record(map[string]any{
				"n": total, "par": par,
				"build_ms":      buildMS,
				"freeze_ms":     freezeMS,
				"build_speedup": speedup,
				"host_cores":    cores,
			})
		}
	}
	fmt.Println("build_speedup is informational on single-core hosts; the layout is bit-identical at every parallelism (determinism property tests).")
}
