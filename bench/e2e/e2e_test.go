package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the reference process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if addr := os.Getenv(referenceEnv); addr != "" {
		fmt.Fprintln(os.Stderr, serveReference(addr))
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// testPool is a small geometry pool for request-generation tests.
func testPool(t *testing.T, seed int64) *geoPool {
	t.Helper()
	g, err := newGeometry(shape{Seed: 5, Regions: 32, Tiles: 24}, seed, 64)
	if err != nil {
		t.Fatal(err)
	}
	return g.pool()
}

// bodies encodes the first n requests of w's stream.
func bodies(w *workload, seed int64, pool *geoPool, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = encodeBody(nil, genRequest(w, seed, i, pool, nil), pool)
	}
	return out
}

func TestRequestsAndArrivalsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a := bodies(&w, 1, testPool(t, 1), 50)
			if b := bodies(&w, 1, testPool(t, 1), 50); !reflect.DeepEqual(a, b) {
				t.Fatal("the same seed gave different request bodies")
			}
			if c := bodies(&w, 2, testPool(t, 2), 50); reflect.DeepEqual(a, c) {
				t.Fatal("a different seed gave the same request bodies")
			}
			var probe struct {
				Queries []map[string]any `json:"queries"`
			}
			if err := json.Unmarshal(a[0], &probe); err != nil || len(probe.Queries) != w.QPR {
				t.Fatalf("body %s: %v, %d queries, want %d", a[0], err, len(probe.Queries), w.QPR)
			}
			s1 := arrivals(1, w.Rate, 2*time.Second)
			if s2 := arrivals(1, w.Rate, 2*time.Second); !slices.Equal(s1, s2) {
				t.Fatal("the same seed gave different arrival schedules")
			}
			if s3 := arrivals(2, w.Rate, 2*time.Second); slices.Equal(s1, s3) {
				t.Fatal("a different seed gave the same arrival schedule")
			}
			// A Poisson schedule holds about rate × duration arrivals.
			if want := 2 * w.Rate; float64(len(s1)) < 0.8*want || float64(len(s1)) > 1.2*want {
				t.Fatalf("%d arrivals in 2 s at %g req/s", len(s1), w.Rate)
			}
		})
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {10000, 0.999, 10}, {100, 0.5, 50}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := highestPercentile(c.n, 10); got != c.want {
			t.Errorf("highestPercentile(%d, 10) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 1 2 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 1 3 2 = %g", got)
	}
}

func TestProcParsing(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := []byte("4242 (coop serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 321 45 0 0 20 0 9 0 100 1000 200 18446744073709551615\n")
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 366 * clockTick; got != want {
		t.Errorf("parseProcStat = %v, want %v", got, want)
	}
	if _, err := parseProcStat([]byte("4242 (short) S 1 2")); err == nil {
		t.Error("a truncated stat line parsed")
	}
	status := []byte("Name:\tcoopserve\nVmPeak:\t  300000 kB\nVmHWM:\t  262592 kB\nVmRSS:\t  250000 kB\n")
	if kb, err := parseVmHWM(status); err != nil || kb != 262592 {
		t.Errorf("parseVmHWM = %d, %v; want 262592", kb, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tcoopserve\n")); err == nil {
		t.Error("a status without VmHWM parsed")
	}
	// The live process parses too.
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if kb, err := peakRSSKB(os.Getpid()); err != nil || kb <= 0 {
		t.Errorf("peakRSSKB(self) = %d, %v", kb, err)
	}
}

func TestPromScrapeFixture(t *testing.T) {
	b, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseProm(b)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"engine_batch_wall_ns_sum":            86312,
		"engine_batch_wall_ns_count":          1,
		"engine_queries_total":                5,
		"engine_phase_root_coop_steps_total":  3,
		"engine_shard_0_cache_misses_total":   1,
		"engine_pool_steals":                  2,
		"serve_query_errors_total":            1,
		"serve_latency_window_p99_ns":         11238,
		`engine_batch_size_bucket{le="+Inf"}`: 1,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %g (present %v), want %g", name, got, ok, want)
		}
	}
	if _, err := parseProm([]byte("engine_queries_total five\n")); err == nil {
		t.Error("a non-numeric sample parsed")
	}
}

func TestScanAnswersMatchesDecoding(t *testing.T) {
	b, err := os.ReadFile("testdata/query_response.json")
	if err != nil {
		t.Fatal(err)
	}
	answers, steps, errs, ok := scanAnswers(b)
	if !ok || answers != 5 || steps != 23 || errs != 1 {
		t.Errorf("scanAnswers = %d answers, %d steps, %d errs, ok %v; want 5, 23, 1, true", answers, steps, errs, ok)
	}
	var resp wireResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	var decoded int64
	for _, a := range resp.Answers {
		decoded += a.Steps
	}
	if decoded != steps || len(resp.Answers) != answers {
		t.Errorf("decoding gives %d answers and %d steps, the scan %d and %d", len(resp.Answers), decoded, answers, steps)
	}
	if _, _, _, ok := scanAnswers([]byte(`{"error":"overloaded"}`)); ok {
		t.Error("a body without answers scanned")
	}
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, w := range bj.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].Why {
			t.Errorf("workload %s: why %q, the table says %q", w.Name, w.Why, workloads[i].Why)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, the table has %v", names, want)
	}
	var e2e []metricDef
	maxBound, setupBound := 0.0, 0.0
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.Equal(e2e, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, the table has %v", e2e, e2eMetrics)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	if !slices.Equal(bj.PerLayer, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, the table has %v", bj.PerLayer, layerMetrics)
	}
	if !slices.Equal(bj.Paths, []string{"bench/e2e"}) || !slices.Equal(bj.Command, []string{"bash", "bench/e2e/run.sh"}) {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
}

// TestSmoke runs every workload at a tenth of its scale against a freshly
// built coopserve and checks that every answer matched the oracle.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "coopserve")
	if out, err := exec.Command("go", "build", "-o", bin, "fraccascade/cmd/coopserve").CombinedOutput(); err != nil {
		t.Fatalf("build coopserve: %v\n%s", err, out)
	}
	spans := &bytes.Buffer{}
	cfg := runConfig{server: bin, workDir: dir, seed: 7, timed: time.Second, verify: 256, pool: 256, spans: spans}
	for _, w := range workloads {
		// The hot workload also runs traced, through the ladder.
		c := cfg
		c.trace = w.Name == "catalog-hot"
		res, err := runWorkload(context.Background(), c, w.scaled(10))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.failed != 0 || res.attempted < c.verify {
			t.Errorf("%s: %d of %d queries failed; first: %v", w.Name, res.failed, res.attempted, res.first)
		}
		defs := e2eMetrics
		if c.trace {
			defs = slices.Concat(e2eMetrics, layerMetrics)
		}
		for _, d := range defs {
			if _, ok := res.metrics[d.Name]; !ok {
				t.Errorf("%s: no %s", w.Name, d.Name)
			}
		}
		// Server CPU comes in 10 ms ticks, too coarse for a positive reading
		// over this short a phase.
		for _, name := range []string{"setup_s", "p50_ms", "rss_mb", "steps_per_query"} {
			if res.metrics[name] <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.Name, name, res.metrics[name])
			}
		}
	}
	if spans.Len() == 0 {
		t.Error("the traced run wrote no spans")
	}
	for _, line := range bytes.Split(bytes.TrimSpace(spans.Bytes()), []byte("\n")) {
		var s span
		if err := json.Unmarshal(line, &s); err != nil || s.Trace == "" || s.End < s.Start {
			t.Fatalf("bad span line %s: %v", line, err)
		}
	}
}
