package main

import (
	"fmt"
	"math/rand"

	"fraccascade/internal/benchfmt"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/dynamic"
	"fraccascade/internal/parallel"
	"fraccascade/internal/pram"
	"fraccascade/internal/tree"
)

// runE15 measures the generalized-search-path extension (the paper's open
// problem 3): searching a root-anchored subtree spanned by several leaves.
func runE15(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fmt.Println("extension (open problem 3): subtree search — steps track depth, slots track breadth")
	st, bt := buildTree(1<<10, 60000, rng, core.Config{})
	var leaves []tree.NodeID
	for v := tree.NodeID(0); int(v) < bt.N(); v++ {
		if bt.IsLeaf(v) {
			leaves = append(leaves, v)
		}
	}
	fmt.Printf("%8s %8s %8s %8s %12s\n", "targets", "p", "steps", "hops", "slotsPeak")
	for _, k := range []int{1, 4, 16, 64} {
		targets := make([]tree.NodeID, k)
		for i := range targets {
			targets[i] = leaves[rng.Intn(len(leaves))]
		}
		for _, p := range []int{256, 65536} {
			y := catalog.Key(rng.Intn(480000))
			_, stats, err := st.SearchSubtree(y, targets, p)
			if err != nil {
				panic(err)
			}
			fmt.Printf("%8d %8d %8d %8d %12d\n", k, p, stats.Steps, stats.Hops, stats.SlotsPeak)
		}
	}
}

// e17Columns: machine steps are deterministic for a fixed seed (and
// executor-independent by the differential tests), so every column is
// gated exactly: one more step is a regression.
var e17Columns = benchfmt.Columns{Keys: []string{"n", "p"}, Metrics: []benchfmt.Metric{
	benchfmt.Gated("machine_steps", "steps", benchfmt.Lower, 0),
	benchfmt.Gated("root_steps", "steps", benchfmt.Lower, 0),
	benchfmt.Gated("hop_steps", "steps", benchfmt.Lower, 0),
	benchfmt.Gated("seq_steps", "steps", benchfmt.Lower, 0),
	benchfmt.Gated("peak_procs", "procs", benchfmt.Lower, 0),
}}

// runE17 executes complete explicit searches as programs on the CREW PRAM
// simulator: real conflict-checked machine steps, not the cost model. The
// -executor flag picks the machine (virtual by default); the executor
// differential tests guarantee the numbers are identical either way.
func runE17(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fmt.Printf("machine-measured Theorem 1: whole searches executed on the CREW simulator (%s executor)\n", execKind)
	fmt.Printf("%10s %8s %12s %6s %6s %6s %10s\n", "n", "p", "machineSteps", "root", "hop", "seq", "peakProcs")
	for _, leaves := range []int{1 << 6, 1 << 9} {
		total := leaves * 94
		if leaves == 1<<6 {
			total = 6000 // the seed configuration, pinned for the benchmarks
		}
		st, bt := buildTree(leaves, total, rng, core.Config{})
		path := bt.RootPath(tree.NodeID(bt.N() - 1))
		for _, p := range []int{1, 4, 16, 256, 65536, 1 << 18} {
			var agg core.PRAMSearchReport
			const reps = 10
			for r := 0; r < reps; r++ {
				m := newPRAM(pram.CREW, 1<<21)
				m.SetMetrics(obsRegistry)
				y := catalog.Key(rng.Intn(total * 8))
				_, rep, err := st.SearchExplicitPRAM(m, y, path, p)
				if err != nil {
					panic(err)
				}
				agg.MachineSteps += rep.MachineSteps
				agg.RootSteps += rep.RootSteps
				agg.HopSteps += rep.HopSteps
				agg.SeqSteps += rep.SeqSteps
				if rep.PeakProcs > agg.PeakProcs {
					agg.PeakProcs = rep.PeakProcs
				}
			}
			fmt.Printf("%10d %8d %12d %6d %6d %6d %10d\n",
				total, p, agg.MachineSteps/reps, agg.RootSteps/reps, agg.HopSteps/reps, agg.SeqSteps/reps, agg.PeakProcs)
			record(e17Columns, map[string]any{
				"n": total, "p": p,
				"machine_steps": agg.MachineSteps / reps,
				"root_steps":    agg.RootSteps / reps,
				"hop_steps":     agg.HopSteps / reps,
				"seq_steps":     agg.SeqSteps / reps,
				"peak_procs":    agg.PeakProcs,
			})
		}
	}
}

// e18Columns: the Snir bound is a statement, not a measurement, so it may
// not move in either direction; the strategies' rounds may only improve.
var e18Columns = benchfmt.Columns{Keys: []string{"n", "p"}, Metrics: []benchfmt.Metric{
	benchfmt.Gated("lower_bound", "rounds", benchfmt.Exact, 0),
	benchfmt.Gated("uniform", "rounds", benchfmt.Lower, 0),
	benchfmt.Gated("binary", "rounds", benchfmt.Lower, 0),
}}

// runE18 plays the Snir lower-bound adversary game: no strategy beats
// ⌈log(n+1)/log(p+1)⌉ rounds, and the cooperative (p+1)-ary split matches
// it — the "optimal" in the paper's title, demonstrated mechanically.
func runE18(seed int64) {
	_ = seed
	fmt.Println("optimality (Snir bound): adversary game rounds, lower bound vs strategies")
	fmt.Printf("%10s %8s %12s %10s %10s\n", "n", "p", "lower bound", "uniform", "binary")
	for _, n := range []int{1 << 10, 1 << 16, 1 << 20, 1 << 24} {
		for _, p := range []int{3, 63, 1023, 16383} {
			uni, _ := parallel.PlayGame(n, p, parallel.UniformStrategy, 10000)
			bin, _ := parallel.PlayGame(n, p, parallel.BinaryStrategy, 10000)
			lb := parallel.LowerBoundRounds(n, p)
			fmt.Printf("%10d %8d %12d %10d %10d\n", n, p, lb, uni, bin)
			record(e18Columns, map[string]any{"n": n, "p": p, "lower_bound": lb, "uniform": uni, "binary": bin})
		}
	}
	fmt.Println("uniform (the CoopSearch split) meets the bound; the p-oblivious binary split stays at log n.")
}

// runE16 measures the dynamic extension (open problem 4): query cost and
// rebuild cadence under churn.
func runE16(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fmt.Println("extension (open problem 4): lazy dynamic updates with amortized rebuilds")
	bt, err := tree.NewBalancedBinary(1 << 7)
	if err != nil {
		panic(err)
	}
	native := randomCatalogs(bt, 8000, rng)
	for _, capacity := range []int{32, 128, 512} {
		d, err := dynamic.New(bt, native, core.Config{}, capacity)
		if err != nil {
			panic(err)
		}
		const ops = 2000
		inserts, deletes, queries := 0, 0, 0
		var querySteps int64
		for op := 0; op < ops; op++ {
			v := tree.NodeID(rng.Intn(bt.N()))
			switch rng.Intn(3) {
			case 0:
				if d.Insert(v, catalog.Key(rng.Int63n(1<<40)), int32(op)) == nil {
					inserts++
				}
			case 1:
				k, _ := d.Find(v, catalog.Key(rng.Intn(32000)))
				if k != catalog.PlusInf && d.Delete(v, k) == nil {
					deletes++
				}
			default:
				leaf := tree.NodeID(bt.N() - 1 - rng.Intn(1<<7))
				_, stats, err := d.SearchExplicit(catalog.Key(rng.Intn(32000)), bt.RootPath(leaf), 256)
				if err != nil {
					panic(err)
				}
				querySteps += int64(stats.Steps)
				queries++
			}
		}
		fmt.Printf("capacity=%4d: %d ins, %d del, %d queries (avg %d steps), %d rebuilds\n",
			capacity, inserts, deletes, queries, querySteps/int64(queries), d.Rebuilds())
	}
}
