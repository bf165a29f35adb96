package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fraccascade/internal/benchfmt"
	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/flat"
	"fraccascade/internal/pointloc"
	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// e22Query is one pre-generated (key, root path) pair; every timing loop
// in E22 replays the same fixed query set so the pointer, flat, and wall
// measurements cover identical work.
type e22Query struct {
	y    catalog.Key
	path []tree.NodeID
}

// e22Workload bundles one structure with its query set.
type e22Workload struct {
	name    string
	n       int // augmented-entry scale reported in the table
	st      *core.Structure
	queries []e22Query
}

const (
	e22QuerySet  = 256 // distinct queries replayed round-robin
	e22BatchSize = 64  // wall-executor batch width
	e22BatchReps = 32  // timed batches per row
	e22TimeReps  = 3   // timing repeats; min survives (GC/scheduler noise)
)

// e22CatalogWorkload builds the same balanced catalog trees E17 measures
// in simulated steps, with a matching query distribution.
func e22CatalogWorkload(leaves, total int, rng *rand.Rand) e22Workload {
	st, bt := buildTree(leaves, total, rng, core.Config{})
	qs := make([]e22Query, e22QuerySet)
	for i := range qs {
		qs[i] = e22Query{
			y:    catalog.Key(rng.Intn(total * 8)),
			path: bt.RootPath(tree.NodeID(rng.Intn(bt.N()))),
		}
	}
	return e22Workload{name: "catalog", n: total, st: st, queries: qs}
}

// e22PlanarWorkload freezes the separator-tree structure behind the planar
// point locator: unbalanced tree, catalogs keyed by edge order — the shape
// the flat layout must not be tuned against.
func e22PlanarWorkload(rng *rand.Rand) e22Workload {
	s, err := subdivision.Generate(128, 24, rng)
	if err != nil {
		panic(err)
	}
	pl, err := pointloc.Build(s, core.Config{})
	if err != nil {
		panic(err)
	}
	st := pl.Structure()
	bt := st.Tree()
	qs := make([]e22Query, e22QuerySet)
	for i := range qs {
		qs[i] = e22Query{
			y:    catalog.Key(rng.Int63n(1 << 21)),
			path: bt.RootPath(tree.NodeID(rng.Intn(bt.N()))),
		}
	}
	return e22Workload{name: "planar", n: bt.N(), st: st, queries: qs}
}

// e22Time runs fn over the query set ops times per pass; see e22Measure.
func e22Time(ops int, qs []e22Query, fn func(q e22Query)) (nsPerOp, allocsPerOp float64) {
	return e22Measure(ops, func() {
		for i := 0; i < ops; i++ {
			fn(qs[i%len(qs)])
		}
	})
}

// e22Measure times pass, which performs ops operations, and returns host
// ns/op and heap allocations/op (runtime mallocs delta — exact, not
// sampled). A forced GC drains the debt left by whatever allocated before
// the measurement; one untimed warm-up pass then refills the runtime
// caches the GC emptied. Of e22TimeReps timed passes, the fastest gives
// ns/op — min-of-reps discards GC pauses and scheduler noise, which the
// regression gate would otherwise see as 4x spikes — and the fewest
// mallocs give allocs/op. MemStats.Mallocs is process-wide, so a pass can
// also count the runtime's own one-off allocations (a sudog for a parked
// WaitGroup waiter, a new M, the GC's and scavenger's bookkeeping); those
// land in some passes only, while an allocation in the measured code
// repeats in every pass and so survives the minimum.
func e22Measure(ops int, pass func()) (nsPerOp, allocsPerOp float64) {
	runtime.GC()
	pass()
	var before, after runtime.MemStats
	for rep := 0; rep < e22TimeReps; rep++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		pass()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		ns := float64(elapsed.Nanoseconds()) / float64(ops)
		allocs := float64(after.Mallocs-before.Mallocs) / float64(ops)
		if rep == 0 || ns < nsPerOp {
			nsPerOp = ns
		}
		if rep == 0 || allocs < allocsPerOp {
			allocsPerOp = allocs
		}
	}
	return nsPerOp, allocsPerOp
}

// e22Columns: steps and allocations are machine-independent and gated
// exactly (the hot path may never grow a malloc); host-clock ns/op may
// reach 4x the baseline's, since the gate may run on a very different
// machine.
var e22Columns = benchfmt.Columns{Keys: []string{"n", "p"}, Metrics: []benchfmt.Metric{
	benchfmt.Gated("machine_steps", "steps", benchfmt.Lower, 0),
	benchfmt.Gated("pointer_ns_per_op", "ns/op", benchfmt.Lower, 3),
	benchfmt.Gated("flat_ns_per_op", "ns/op", benchfmt.Lower, 3),
	benchfmt.Gated("wall_ns_per_op", "ns/op", benchfmt.Lower, 3),
	benchfmt.Gated("flat_allocs_per_op", "allocs/op", benchfmt.Lower, 0),
	benchfmt.Gated("wall_allocs_per_op", "allocs/op", benchfmt.Lower, 0),
	{Name: "wall_procs", Unit: "procs", Better: benchfmt.Exact},
}}

// runE22 times the frozen flat layout against the pointer structure on the
// host clock — the tentpole claim that the simulated-step tables (E17)
// leave open. Three measurements per row over the identical query set:
// the pointer SearchExplicit (allocates results per call), the flat
// SearchExplicitInto hot path (zero-alloc), and the native wall executor
// batching queries across min(p, GOMAXPROCS) goroutines. machine_steps is
// the cost model's deterministic average for the row, so the JSON keeps
// simulated steps beside the ns/op and allocs/op columns.
func runE22(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fmt.Println("extension: flat-memory hot path vs pointer structure, host ns/op (cost model held bit-identical by the differential suite)")
	fmt.Printf("%-8s %9s %8s %7s %12s %12s %12s %11s %11s\n",
		"workload", "n", "p", "steps", "ptr ns/op", "flat ns/op", "wall ns/op", "flat allocs", "wall allocs")

	workloads := []e22Workload{
		e22CatalogWorkload(1<<6, 6000, rng), // the seed configuration, pinned for the benchmarks
		e22CatalogWorkload(1<<9, (1<<9)*94, rng),
		e22CatalogWorkload(1<<11, (1<<11)*94, rng),
		e22PlanarWorkload(rng),
	}
	for _, w := range workloads {
		f, err := flat.Freeze(w.st)
		if err != nil {
			panic(err)
		}
		maxPath := 0
		for _, q := range w.queries {
			if len(q.path) > maxPath {
				maxPath = len(q.path)
			}
		}
		out := make([]cascade.Result, maxPath)
		for _, p := range []int{1, 4, 16, 256, 65536} {
			// Deterministic simulated cost, averaged over the query set.
			var steps int64
			for _, q := range w.queries {
				_, stats, err := w.st.SearchExplicit(q.y, q.path, p)
				if err != nil {
					panic(err)
				}
				steps += int64(stats.Steps)
			}
			avgSteps := steps / int64(len(w.queries))

			ptrNS, _ := e22Time(2000, w.queries, func(q e22Query) {
				if _, _, err := w.st.SearchExplicit(q.y, q.path, p); err != nil {
					panic(err)
				}
			})
			flatNS, flatAllocs := e22Time(4000, w.queries, func(q e22Query) {
				if _, err := f.SearchExplicitInto(q.y, q.path, p, out[:len(q.path)]); err != nil {
					panic(err)
				}
			})
			wallNS, wallAllocs := e22Wall(f, w.queries, p)

			fmt.Printf("%-8s %9d %8d %7d %12.1f %12.1f %12.1f %11.3f %11.3f\n",
				w.name, w.n, p, avgSteps, ptrNS, flatNS, wallNS, flatAllocs, wallAllocs)
			record(e22Columns, map[string]any{
				"workload": w.name, "n": w.n, "p": p,
				"machine_steps":      avgSteps,
				"pointer_ns_per_op":  ptrNS,
				"flat_ns_per_op":     flatNS,
				"wall_ns_per_op":     wallNS,
				"flat_allocs_per_op": flatAllocs,
				"wall_allocs_per_op": wallAllocs,
				"wall_procs":         min(p, runtime.GOMAXPROCS(0)),
			})
		}
	}
	fmt.Println("flat/wall allocs columns must stay 0.000: the hot path never touches the heap (pinned by make bench-wall and the alloc guards).")
}

// e22Wall times the native wall executor: batches of e22BatchSize flat
// searches run by one workpool.Pool.Run on min(p, GOMAXPROCS) goroutines.
// The search closure and its buffers are built once, outside the timed
// loop, so the steady state is allocation-free; e22Measure's warm-up pass
// covers the executor's first Run, which spawns its helper goroutines.
func e22Wall(f *flat.Structure, qs []e22Query, p int) (nsPerOp, allocsPerOp float64) {
	pool := workpool.New(min(p, runtime.GOMAXPROCS(0)))
	ys := make([]catalog.Key, e22BatchSize)
	paths := make([][]tree.NodeID, e22BatchSize)
	out := make([][]cascade.Result, e22BatchSize)
	errs := make([]error, e22BatchSize)
	for i := 0; i < e22BatchSize; i++ {
		q := qs[i%len(qs)]
		ys[i], paths[i] = q.y, q.path
		out[i] = make([]cascade.Result, len(q.path))
	}
	search := func(i int) { errs[i] = f.SearchPathInto(ys[i], paths[i], out[i]) }
	return e22Measure(e22BatchReps*e22BatchSize, func() {
		for i := 0; i < e22BatchReps; i++ {
			pool.Run(e22BatchSize, search)
			for _, e := range errs {
				if e != nil {
					panic(e)
				}
			}
		}
	})
}
