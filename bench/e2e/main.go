// Command e2e is the end-to-end benchmark of coopserve: it starts the
// daemon as a subprocess on loopback, drives it with an open-loop Poisson
// load, checks its answers against oracles, and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 0.51, "unit": "ms"}, ...}}
//
// It is built and run by run.sh in this directory, from the repository
// root:
//
//	bash bench/e2e/run.sh --workload catalog-hot --seed 1 --seconds 30 --trace 0
//
// With -trace 1 the timed phase is split into an untraced and a traced
// half, the in-process ladder runs after the server stops, spans go to a
// JSONL file, and the JSON line carries the per-layer metrics instead.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workDir holds the snapshots, logs and spans of a run, inside the
// checkout; run.sh builds into it too.
const workDir = ".bench_build"

func main() {
	if addr := os.Getenv(referenceEnv); addr != "" {
		fmt.Fprintln(os.Stderr, serveReference(addr))
		os.Exit(1)
	}
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run; empty runs all four in order")
	seed := flag.Int64("seed", 1, "traffic seed: arrival times, keys and query points")
	seconds := flag.Int("seconds", 30, "timed phase per workload, in seconds")
	trace := flag.Int("trace", 0, "1 traces the second half of the timed phase and runs the in-process ladder")
	spansPath := flag.String("spans", "", "JSONL span file of a traced run (default "+workDir+"/spans.jsonl)")
	out := flag.String("out", "", "also write the full results as JSON to this file")
	server := flag.String("server", "", "coopserve binary to benchmark")
	flag.Parse()

	var ws []workload
	if *name == "" {
		ws = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			return usage(err)
		}
		ws = []workload{w}
	}
	if *trace != 0 && *trace != 1 {
		return usage(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
	}
	if *seconds < 1 {
		return usage(fmt.Errorf("-seconds must be at least 1"))
	}
	if *server == "" {
		return usage(errors.New("-server is required"))
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fail(err)
	}
	cfg := runConfig{
		server:  *server,
		workDir: workDir,
		seed:    *seed,
		timed:   time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		verify:  verifyQueries,
		pool:    4096,
	}
	var spans *os.File
	if cfg.trace {
		if *spansPath == "" {
			*spansPath = filepath.Join(workDir, "spans.jsonl")
		}
		var err error
		if spans, err = os.Create(*spansPath); err != nil {
			return fail(err)
		}
		defer spans.Close()
		cfg.spans = spans
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	h := hostRecord()
	fmt.Printf("host: %d x %s, %s, client GOMAXPROCS %d\n", h.NProc, h.CPU, h.Go, h.GOMAXPROCS)
	var results []*result
	for _, w := range ws {
		fmt.Printf("== %s  seed=%d  %d queries/request, %s keys, Poisson %g req/s open loop over %d connections; warm-up %v, timed %v\n",
			w.Name, *seed, w.QPR, w.Keys, w.Rate, conns, w.Warmup, cfg.timed)
		res, err := runWorkload(ctx, cfg, w)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		for _, l := range res.lines {
			fmt.Println(l)
		}
		for _, d := range layerMetrics {
			if v, ok := res.metrics[d.Name]; ok {
				fmt.Printf("  %-44s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
		if res.first != nil {
			fmt.Printf("FAILED: %d of %d queries; first: %v\n", res.failed, res.attempted, res.first)
		}
		results = append(results, res)
	}
	if spans != nil {
		if err := spans.Close(); err != nil {
			return fail(err)
		}
		fmt.Printf("spans written to %s\n", *spansPath)
	}
	sum := summarize(results, cfg.trace, len(ws) > 1)
	if *out != "" {
		if err := writeResults(*out, h, cfg, results); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

func usage(err error) int {
	fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
	flag.Usage()
	return 2
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
	return 1
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize builds the result line: the end-to-end metrics of an untraced
// run or the per-layer metrics of a traced one. With several workloads each
// name is prefixed by its workload.
func summarize(results []*result, traced, prefixed bool) summary {
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	s := summary{Metrics: map[string]metricValue{}}
	for _, r := range results {
		s.Attempted += r.attempted
		s.Failed += r.failed
		for _, d := range defs {
			key := d.Name
			if prefixed {
				key = r.workload + "/" + d.Name
			}
			s.Metrics[key] = metricValue{Value: r.metrics[d.Name], Unit: d.Unit}
		}
	}
	s.Correct = s.Failed == 0
	return s
}

// host describes the machine a run measured.
type host struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func hostRecord() host {
	h := host{NProc: runtime.NumCPU(), CPU: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// writeResults writes every metric of every workload, with the host and
// the run's settings, as indented JSON.
func writeResults(path string, h host, cfg runConfig, results []*result) error {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics...) {
		units[d.Name] = d.Unit
	}
	type workloadOut struct {
		Name      string                 `json:"name"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	doc := struct {
		Host      host          `json:"host"`
		Seed      int64         `json:"seed"`
		Seconds   float64       `json:"seconds"`
		Trace     bool          `json:"trace"`
		Workloads []workloadOut `json:"workloads"`
	}{Host: h, Seed: cfg.seed, Seconds: cfg.timed.Seconds(), Trace: cfg.trace}
	for _, r := range results {
		wo := workloadOut{Name: r.workload, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
		for k, v := range r.metrics {
			wo.Metrics[k] = metricValue{Value: v, Unit: units[k]}
		}
		doc.Workloads = append(doc.Workloads, wo)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
