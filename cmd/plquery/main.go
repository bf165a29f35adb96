// Command plquery is an interactive/scripted planar point-location demo:
// it generates a random monotone subdivision, preprocesses it, and locates
// points — either a batch of random ones or coordinates supplied as
// arguments.
//
// With -batch=b the random queries are instead pushed through the batched
// engine (internal/engine): the processor budget p is split across each
// batch of b concurrent queries and the tool reports queries/step against
// the one-at-a-time baseline.
//
// Usage:
//
//	plquery -regions=64 -levels=30 -p=256 -queries=10
//	plquery -regions=64 -levels=30 -p=256 101,51 33,77
//	plquery -regions=64 -levels=30 -p=1024 -queries=256 -batch=32
//	plquery -queries=256 -batch=32 -trace=spans.jsonl -metrics
//	plquery -pramcheck=20 -executor=virtual   # machine-executed searches vs the oracle
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/engine"
	"fraccascade/internal/geom"
	"fraccascade/internal/obs"
	"fraccascade/internal/pointloc"
	"fraccascade/internal/pram"
	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
)

func main() {
	regions := flag.Int("regions", 64, "number of regions")
	levels := flag.Int("levels", 30, "number of y-levels")
	p := flag.Int("p", 256, "processor budget for cooperative queries")
	queries := flag.Int("queries", 10, "random queries to run when no coordinates are given")
	batch := flag.Int("batch", 0, "run the random queries through the batched engine in batches of this size (0 = one at a time)")
	seed := flag.Int64("seed", 1, "generator seed")
	executor := flag.String("executor", "virtual", "PRAM executor for -pramcheck: barrier, virtual, or uncosted")
	pramcheck := flag.Int("pramcheck", 0, "run this many machine-executed catalog searches on the separator structure and verify them against the cascade oracle")
	trace := flag.String("trace", "", "with -batch: write the queries' spans, each query span followed by its phase child spans, as JSONL to this file (- for stdout)")
	metrics := flag.Bool("metrics", false, "with -batch: print an obs metrics snapshot after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

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
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	rng := rand.New(rand.NewSource(*seed))
	s, err := subdivision.Generate(*regions, *levels, rng)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := s.Validate(); err != nil {
		log.Fatal(err)
	}
	loc, err := pointloc.Build(s, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subdivision: %d regions, %d edges; queries must have %d < y < %d\n",
		s.NumRegions, len(s.Edges), s.YMin, s.YMax)

	if *pramcheck > 0 {
		kind, err := pram.ParseExecutorKind(*executor)
		if err != nil {
			log.Fatal(err)
		}
		pramVerify(loc.Structure(), rng, kind, *p, *pramcheck)
		return
	}

	locate := func(pt geom.Point) {
		region, stats, err := loc.LocateCoop(pt, *p)
		if err != nil {
			fmt.Printf("(%d,%d): error: %v\n", pt.X, pt.Y, err)
			return
		}
		brute, _ := s.LocateBrute(pt)
		status := "ok"
		if brute != region {
			status = fmt.Sprintf("MISMATCH (oracle says r_%d)", brute)
		}
		fmt.Printf("(%6d,%6d) -> r_%-4d  steps=%d hops=%d seq=%d  [%s]\n",
			pt.X, pt.Y, region, stats.Steps, stats.Hops, stats.SeqLevels, status)
	}

	if args := flag.Args(); len(args) > 0 {
		for _, arg := range args {
			parts := strings.SplitN(arg, ",", 2)
			if len(parts) != 2 {
				fmt.Fprintf(os.Stderr, "bad coordinate %q (want x,y)\n", arg)
				os.Exit(2)
			}
			x, err1 := strconv.ParseInt(parts[0], 10, 64)
			y, err2 := strconv.ParseInt(parts[1], 10, 64)
			if err1 != nil || err2 != nil {
				fmt.Fprintf(os.Stderr, "bad coordinate %q\n", arg)
				os.Exit(2)
			}
			locate(geom.Point{X: x, Y: y})
		}
		return
	}
	if *batch > 0 {
		var reg *obs.Registry
		if *metrics {
			reg = obs.NewRegistry()
		}
		var traceW io.Writer
		if *trace == "-" {
			traceW = os.Stdout
		} else if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			traceW = f
		}
		runBatched(s, loc, rng, *p, *queries, *batch, reg, traceW)
		return
	}
	if *metrics || *trace != "" {
		fmt.Fprintln(os.Stderr, "note: -metrics and -trace instrument the batched engine; add -batch=b to use them")
	}
	for q := 0; q < *queries; q++ {
		pt, _ := s.RandomInteriorPoint(rng)
		locate(pt)
	}
}

// pramVerify runs n complete catalog searches over the point-location
// separator structure as programs on the selected PRAM executor and checks
// every per-node answer against the fractional cascading oracle. This is
// the same single-source program the experiments measure, so it exercises
// the real machine path — conflict checking included on the costed
// executors — against live point-location data rather than a synthetic
// catalog tree.
func pramVerify(st *core.Structure, rng *rand.Rand, kind pram.ExecutorKind, p, n int) {
	tr := st.Tree()
	oracle := st.Cascade()
	var leaves []tree.NodeID
	for v := tree.NodeID(0); int(v) < tr.N(); v++ {
		if tr.IsLeaf(v) {
			leaves = append(leaves, v)
		}
	}
	totalSteps := 0
	for q := 0; q < n; q++ {
		path := tr.RootPath(leaves[rng.Intn(len(leaves))])
		y := catalog.Key(rng.Int63n(1 << 20))
		m := pram.MustNewExecutor(kind, pram.CREW, max(4*p, 1<<16))
		got, rep, err := st.SearchExplicitPRAM(m, y, path, p)
		if err != nil {
			log.Fatalf("pram-verify query %d: %v", q, err)
		}
		want, err := oracle.SearchPath(y, path)
		if err != nil {
			log.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				log.Fatalf("pram-verify query %d: node %d: machine %+v, oracle %+v",
					q, path[i], got[i], want[i])
			}
		}
		totalSteps += rep.MachineSteps
	}
	fmt.Printf("pram-verify: %d machine searches on the %s executor (p=%d) all match the cascade oracle; avg %d machine steps\n",
		n, kind, p, totalSteps/n)
}

// runBatched pushes n random point-location queries through the batched
// engine in batches of b, verifies every answer against the brute-force
// oracle, and reports queries/step for batched vs one-at-a-time execution
// under the same total processor budget p. With a trace writer it keeps
// the n queries' flight records in a ring and writes their spans to it as
// JSONL once the batches have run.
func runBatched(s *subdivision.Subdivision, loc *pointloc.Locator, rng *rand.Rand, p, n, b int, reg *obs.Registry, trace io.Writer) {
	cfg := engine.Config{Procs: p, BatchSize: b, Obs: reg}
	var ring *obs.Ring
	if trace != nil {
		ring = obs.NewRing(n)
		cfg.Tracer = ring
	}
	e, err := engine.New(cfg, nil, loc, nil)
	if err != nil {
		log.Fatal(err)
	}
	qs := make([]engine.Query, n)
	for i := range qs {
		pt, _ := s.RandomInteriorPoint(rng)
		qs[i] = engine.PointQuery(pt)
		e.Submit(qs[i])
	}
	answers, reports, err := e.Flush()
	if err != nil {
		log.Fatal(err)
	}
	if ring != nil {
		enc := json.NewEncoder(trace)
		for _, sp := range ring.Spans() {
			if err := enc.Encode(sp); err != nil {
				log.Fatalf("trace sink: %v", err)
			}
		}
	}
	batchSteps := 0
	for _, rep := range reports {
		batchSteps += rep.Steps
	}
	mismatches := 0
	for i, a := range answers {
		if a.Err != nil {
			log.Fatalf("query %d: %v", i, a.Err)
		}
		if brute, _ := s.LocateBrute(qs[i].Point); brute != a.Region {
			mismatches++
			fmt.Printf("(%d,%d): MISMATCH engine r_%d, oracle r_%d\n",
				qs[i].Point.X, qs[i].Point.Y, a.Region, brute)
		}
	}
	_, seqSteps, err := e.ExecuteSequential(qs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batched: %d queries in %d batches of %d, p/query=%d, total %d steps (%.3f q/step)\n",
		n, len(reports), b, reports[0].PShare, batchSteps, float64(n)/float64(batchSteps))
	fmt.Printf("one-at-a-time baseline: %d steps (%.3f q/step) -> speedup %.1fx; mismatches: %d\n",
		seqSteps, float64(n)/float64(seqSteps), float64(seqSteps)/float64(batchSteps), mismatches)
	if reg != nil {
		fmt.Println("\n=== metrics snapshot ===")
		if err := reg.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
