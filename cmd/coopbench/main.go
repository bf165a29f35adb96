// Command coopbench runs the reproduction experiments E1–E25 (see
// DESIGN.md for the per-experiment index) and prints the tables recorded
// in EXPERIMENTS.md. Each experiment regenerates one of the paper's
// claims: a time/processor tradeoff, a space bound, or a structural lemma.
//
// Usage:
//
//	coopbench -experiment=all        # run everything
//	coopbench -experiment=e1        # one experiment
//	coopbench -experiment=fig5      # the Fig. 5 branch-function table
//	coopbench -seed=7               # change workload seed
//	coopbench -chaos                # shorthand for -experiment=e19
//	coopbench -experiment=e17 -executor=barrier # run PRAM programs on the goroutine machine
//	coopbench -experiment=e22 -executor=wall    # time the flat hot path on native goroutines
//	coopbench -experiment=all -json             # write BENCH_<EXP>.json next to the tables
//	coopbench -experiment=e20 -metrics          # dump the obs snapshot after the run
//	coopbench -experiment=e20 -cpuprofile=cpu.pb.gz -memprofile=mem.pb.gz
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"fraccascade/internal/obs"
	"fraccascade/internal/pram"
)

// obsRegistry is non-nil when -metrics is set; instrumented experiments
// (E17's PRAM machines, E20's batch engine) attach to it. Everywhere else
// the nil registry hands out nil handles, so the flag costs nothing when
// off.
var obsRegistry *obs.Registry

// execKind selects the pram.Executor used by machine-executing experiments
// (E17 and any PRAM verification passes). The virtual executor is the
// default: it produces step counts, work, and conflict verdicts identical
// to the barrier machine (asserted by the executor differential tests) at
// a fraction of the wall-clock cost.
var execKind = pram.KindVirtual

// wallMode is set by -executor=wall. The wall executor is native (real
// goroutines over the flat layout, no simulated machine), so it cannot
// back the PRAM experiments; simulated passes fall back to the virtual
// executor — bit-identical step counts by the differential tests — while
// the host-time experiment (E22) times the wall pool itself. The JSON
// recorder still tags the run "wall" so baselines taken under each
// executor stay distinguishable.
var wallMode bool

// stepsProfile is non-nil when -stepsprofile is set: every PRAM machine
// built by newPRAM attaches to it, so phase-attributed step counts
// accumulate across machines into one aggregate profile written as a
// gzipped pprof profile.proto at exit.
var stepsProfile *pram.Profile

// newPRAM builds a fresh executor of the selected kind.
func newPRAM(model pram.Model, procs int) pram.Executor {
	x := pram.MustNewExecutor(execKind, model, procs)
	if stepsProfile != nil {
		x.SetProfile(stepsProfile)
	}
	return x
}

type experiment struct {
	name  string
	title string
	run   func(seed int64)
}

var experiments = []experiment{
	{"e1", "E1 (Theorem 1): explicit cooperative search, steps vs (log n)/log p", runE1},
	{"e2", "E2 (Theorem 1): implicit cooperative search", runE2},
	{"e3", "E3 (Theorem 1): preprocessing rounds and work", runE3},
	{"e4", "E4 (Lemma 2): space of T' is O(n)", runE4},
	{"e5", "E5 (Theorem 2): long-path search in bounded-degree trees", runE5},
	{"e6", "E6 (Theorem 3): degree-d trees, log d factor", runE6},
	{"e7", "E7 (Theorem 4): cooperative planar point location", runE7},
	{"e8", "E8 (Theorem 5 / Corollary 1): spatial point location", runE8},
	{"e9", "E9 (Theorem 6): retrieval — segment intersection, enclosure, range search", runE9},
	{"e10", "E10 (Corollary 2): d-dimensional range search", runE10},
	{"e11", "E11 (Lemma 1): skeleton forest disjointness", runE11},
	{"e12", "E12 (Lemma 3): window containment", runE12},
	{"e13", "E13 (Section 2.2/2.3): per-hop processor demand", runE13},
	{"e14", "E14 (Snir bound): cooperative binary search rounds", runE14},
	{"fig5", "Fig. 5: branch-function inconsistency on the separator tree", runFig5},
	{"e15", "E15 (extension, open problem 3): generalized search paths (subtrees)", runE15},
	{"e16", "E16 (extension, open problem 4): dynamic updates, amortized rebuilds", runE16},
	{"e17", "E17: whole searches executed on the conflict-checked CREW simulator", runE17},
	{"e18", "E18: Snir lower-bound adversary game (optimality)", runE18},
	{"e19", "E19 (chaos mode): fault-injected degrading cooperative search", runE19},
	{"e20", "E20 (extension): batched multi-query engine throughput", runE20},
	{"e21", "E21 (robustness): crash-safe snapshot persistence under disk faults", runE21},
	{"e22", "E22 (extension): flat-layout hot path, host ns/op and allocs/op vs the pointer structure", runE22},
	{"e23", "E23 (extension): construction throughput, sequential vs parallel build and flat freeze", runE23},
	{"e24", "E24 (extension): snapshot cold-start, mmap vs deserialized vs refrozen restore per backend kind", runE24},
	{"e25", "E25 (extension): serving-telemetry overhead, flight recorder and latency windows on vs off", runE25},
}

func main() {
	expFlag := flag.String("experiment", "all", "experiment id (e1..e25, fig5, all)")
	seed := flag.Int64("seed", 1, "workload seed")
	chaos := flag.Bool("chaos", false, "run the chaos-mode fault sweep (alias for -experiment=e19)")
	executor := flag.String("executor", "virtual", "executor for machine-executing experiments: barrier, virtual, or wall (native goroutines over the flat layout; simulated passes fall back to virtual)")
	jsonOut := flag.Bool("json", false, "write BENCH_<EXP>.json (wall time plus instrumented rows) for each experiment run")
	metrics := flag.Bool("metrics", false, "collect obs metrics during the run and print a text snapshot at the end")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	stepsprofile := flag.String("stepsprofile", "", "write a pprof profile of simulated parallel time (phase-attributed PRAM steps) to this file")
	flag.Parse()
	if *chaos {
		*expFlag = "e19"
	}
	kind, err := pram.ParseExecutorKind(*executor)
	if err != nil {
		log.Fatal(err)
	}
	if kind == pram.KindUncosted {
		log.Fatal("coopbench: the uncosted executor skips cost tracing; experiments need barrier, virtual, or wall")
	}
	if kind == pram.KindWall {
		wallMode = true
		execKind = pram.KindVirtual
	} else {
		execKind = kind
	}
	if *metrics {
		obsRegistry = obs.NewRegistry()
	}
	if *stepsprofile != "" {
		stepsProfile = pram.NewProfile()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	jsonDir := ""
	if *jsonOut {
		jsonDir = "."
	}
	want := strings.ToLower(*expFlag)
	ran := 0
	for _, e := range experiments {
		if want == "all" || want == e.name {
			if err := runExperiment(e, *seed, kind.String(), jsonDir); err != nil {
				log.Fatal(err)
			}
			ran++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		var names []string
		for _, e := range experiments {
			names = append(names, e.name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "available: all %s\n", strings.Join(names, " "))
		os.Exit(2)
	}
	if stepsProfile != nil {
		// Publish the aggregated phase profile as pram.phase.* metrics (so
		// -metrics snapshots include it) and write the pprof file.
		if obsRegistry != nil {
			stepsProfile.PublishTo(obsRegistry)
		}
		f, err := os.Create(*stepsprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := stepsProfile.WritePprof(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d phases, %d simulated steps)\n",
			*stepsprofile, len(stepsProfile.Phases()), stepsProfile.TotalSteps())
	}
	if *metrics {
		fmt.Println("\n=== metrics snapshot ===")
		if err := obsRegistry.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}
}
