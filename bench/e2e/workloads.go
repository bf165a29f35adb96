package main

import (
	"fmt"
	"time"
)

// shape is the served structure: exactly the coopserve flags the benchmark
// sets. Every other coopserve setting (telemetry, admission, layout, cache)
// runs at its default, as in production, so a change that removes a layout
// or telemetry flag does not break the benchmark.
type shape struct {
	Seed    int64 // structure seed, fixed per workload
	Shards  int
	Leaves  int // catalog-tree leaves per shard (power of two)
	Entries int // approximate catalog entries per shard
	Regions int // planar subdivision regions
	Tiles   int // spatial complex tiles
	Batch   int // queries per engine batch
	Procs   int // simulated processors per batch
}

// flags renders the shape as coopserve command-line flags.
func (s shape) flags() []string {
	return []string{
		fmt.Sprintf("-seed=%d", s.Seed),
		fmt.Sprintf("-shards=%d", s.Shards),
		fmt.Sprintf("-leaves=%d", s.Leaves),
		fmt.Sprintf("-entries=%d", s.Entries),
		fmt.Sprintf("-regions=%d", s.Regions),
		fmt.Sprintf("-tiles=%d", s.Tiles),
		fmt.Sprintf("-batch=%d", s.Batch),
		fmt.Sprintf("-procs=%d", s.Procs),
	}
}

// nodes is the number of nodes of one balanced catalog tree.
func (s shape) nodes() int { return 2*s.Leaves - 1 }

// keyBound is the exclusive upper end of coopserve's catalog keys.
func (s shape) keyBound() int64 { return int64(s.Entries) * 8 }

// keyDist selects how a workload draws its queries.
type keyDist int

const (
	// keysClustered is the E20 mix: half the keys fall in seven narrow
	// bands, half are uniform, so nearby keys repeat and the entry cache
	// hits.
	keysClustered keyDist = iota
	// keysUniform draws catalog keys uniformly over the key space.
	keysUniform
	// keysGeo sends half planar and half spatial point queries.
	keysGeo
)

func (k keyDist) String() string {
	return [...]string{"clustered", "uniform", "geo"}[k]
}

// workload is one traffic mix against one server shape.
type workload struct {
	Name  string
	Why   string
	Shape shape
	// Rate is the mean request arrival rate (Poisson, open loop), req/s.
	Rate float64
	// QPR is the number of queries per request.
	QPR  int
	Keys keyDist
	// Warmup is the discarded open-loop phase before the timed one.
	Warmup time.Duration
	// P99Limit is the workload's latency limit on p99_ms.
	P99Limit time.Duration
	// SetupReps is how many server start-ups the run times; setup_s is
	// their median.
	SetupReps int
	// Restart builds the server once untimed, drains it with SIGTERM, and
	// times restarts from its snapshot instead of builds.
	Restart bool
	// RefUS is the reference's CPU µs per request of QPR queries on an
	// undisturbed host of the kind the bounds were set on; time metrics are
	// scaled to it (see reference.go).
	RefUS float64
}

var (
	hotShape = shape{Seed: 1, Shards: 2, Leaves: 128, Entries: 8000, Regions: 64, Tiles: 60, Batch: 32, Procs: 4096}
	// coldShape keeps each process near 250 MB: 2 × 2^19 entries spread
	// over 1024-leaf trees is about 100 MB of catalogs and bridges, far past
	// the 4 MB of L2 and comparable to the shared L3.
	coldShape = shape{Seed: 2, Shards: 2, Leaves: 1024, Entries: 1 << 19, Regions: 64, Tiles: 60, Batch: 32, Procs: 4096}
	geoShape  = shape{Seed: 3, Shards: 2, Leaves: 128, Entries: 8000, Regions: 8192, Tiles: 8192, Batch: 32, Procs: 4096}
)

// workloads are run in this order when no -workload is named.
var workloads = []workload{
	{
		Name:      "catalog-hot",
		Why:       "cheap searches that almost always hit the entry cache, so HTTP, JSON, admission, batching and telemetry dominate",
		Shape:     hotShape,
		Rate:      500,
		QPR:       32,
		Keys:      keysClustered,
		Warmup:    2 * time.Second,
		P99Limit:  5 * time.Millisecond,
		SetupReps: 7,
		RefUS:     300,
	},
	{
		Name:      "catalog-cold",
		Why:       "a working set far past L2 with uniform keys, so the cooperative search and the build dominate",
		Shape:     coldShape,
		Rate:      300,
		QPR:       32,
		Keys:      keysUniform,
		Warmup:    2 * time.Second,
		P99Limit:  5 * time.Millisecond,
		SetupReps: 5,
		RefUS:     300,
	},
	{
		Name:      "geo-mixed",
		Why:       "planar and spatial point location with no entry cache and small responses; cache and encoding changes must not move it",
		Shape:     geoShape,
		Rate:      250,
		QPR:       32,
		Keys:      keysGeo,
		Warmup:    2 * time.Second,
		P99Limit:  10 * time.Millisecond,
		SetupReps: 7,
		RefUS:     300,
	},
	{
		Name:      "restart-single",
		Why:       "one query per request after a snapshot restore, so per-request fixed costs and restore time dominate",
		Shape:     coldShape,
		Rate:      1000,
		QPR:       1,
		Keys:      keysUniform,
		Warmup:    2 * time.Second,
		P99Limit:  2 * time.Millisecond,
		SetupReps: 7,
		Restart:   true,
		RefUS:     165,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns w shrunk by factor f for the self-test smoke run: smaller
// structures, a lower rate and a shorter warm-up, one timed start-up.
func (w workload) scaled(f int) workload {
	s := &w.Shape
	s.Entries = max(800, s.Entries/f)
	s.Leaves = max(16, s.Leaves/8)
	s.Regions = max(24, s.Regions/f)
	s.Tiles = max(20, s.Tiles/f)
	w.Rate /= float64(f)
	w.Warmup /= time.Duration(f)
	w.SetupReps = 1
	return w
}

// metricDef is one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// e2eMetrics are the end-to-end metrics, measured with tracing off.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"cpu_us_per_query", "us", "lower"},
	{"rss_mb", "MB", "lower"},
	{"steps_per_query", "steps", "lower"},
}

// phaseLabels are the engine's step phases, as its counters name them.
var phaseLabels = []string{"root-coop", "hop-descent", "seq-tail", "discrim", "descent"}

// layerMetrics are the per-layer metrics of a traced run, grouped by layer.
var layerMetrics = func() []metricDef {
	m := []metricDef{
		{"host.reference_us", "us", "lower"},
		{"loadgen.p99_ms", "ms", "lower"},
		{"loadgen.timer_late_ms_p99", "ms", "lower"},
		{"loadgen.conn_wait_ms_p99", "ms", "lower"},
		{"loadgen.p999_ms", "ms", "lower"},
		{"loadgen.client_cpu_us_per_query", "us", "lower"},
		{"loadgen.trace_overhead_ms", "ms", "lower"},
		{"coopserve.resp_bytes_per_query", "bytes", "lower"},
		{"coopserve.outside_engine_us_per_req", "us", "lower"},
		{"coopserve.shed", "count", "lower"},
		{"coopserve.timeouts", "count", "lower"},
		{"coopserve.query_errors", "count", "lower"},
		{"coopserve.window_p99_ms", "ms", "lower"},
		{"coopserve.serving_rss_mb", "MB", "lower"},
		{"engine.batch_wall_us", "us", "lower"},
		{"engine.cache_hit_ratio", "ratio", "higher"},
		{"engine.finger_hit_ratio", "ratio", "higher"},
		{"engine.pool_steals_per_batch", "count", "lower"},
	}
	for _, p := range phaseLabels {
		m = append(m, metricDef{"engine.phase." + p + ".steps_per_query", "steps", "lower"})
	}
	return append(m,
		metricDef{"engine.execute_ns_per_query", "ns", "lower"},
		metricDef{"engine.execute_allocs_per_query", "allocs", "lower"},
		metricDef{"engine.execute_obs_ns_per_query", "ns", "lower"},
		metricDef{"engine.execute_obs_allocs_per_query", "allocs", "lower"},
		metricDef{"engine.telemetry_ratio", "ratio", "lower"},
		metricDef{"core.search_ns", "ns", "lower"},
		metricDef{"core.search_allocs", "allocs", "lower"},
		metricDef{"core.build_ms", "ms", "lower"},
		metricDef{"flat.search_ns", "ns", "lower"},
		metricDef{"flat.search_allocs", "allocs", "lower"},
		metricDef{"flat.freeze_ms", "ms", "lower"},
		metricDef{"pointloc.locate_ns", "ns", "lower"},
		metricDef{"pointloc.build_ms", "ms", "lower"},
		metricDef{"spatial.locate_ns", "ns", "lower"},
		metricDef{"spatial.frozen_locate_ns", "ns", "lower"},
		metricDef{"spatial.build_ms", "ms", "lower"},
		metricDef{"snapshot.save_ms", "ms", "lower"},
		metricDef{"snapshot.load_ms", "ms", "lower"},
		metricDef{"snapshot.file_mb", "MB", "lower"},
	)
}()
