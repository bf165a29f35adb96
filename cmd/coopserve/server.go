package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/dynamic"
	"fraccascade/internal/engine"
	"fraccascade/internal/flat"
	"fraccascade/internal/obs"
	"fraccascade/internal/pointloc"
	"fraccascade/internal/snapshot"
	"fraccascade/internal/spatial"
	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
)

// serverConfig sizes the served structures and the engine, and configures
// the hardened request lifecycle. The zero values of the lifecycle knobs
// disable them (no snapshot, no per-request deadline, unlimited inflight).
type serverConfig struct {
	Seed      int64
	Procs     int
	BatchSize int
	Leaves    int // catalog-tree leaves per shard
	Entries   int // approximate catalog entries per shard
	Shards    int
	Regions   int // planar subdivision regions
	Tiles     int // spatial complex tiles
	RingSize  int // span flight-recorder capacity

	Dynamic          bool          // serve dynamic (updatable) catalog shards
	Flat             bool          // serve catalog shards from the frozen flat layout
	BuildParallelism int           // host workers for builds, freezes, and snapshot restores (0 = all cores)
	FingerCache      bool          // distance-sensitive finger search from cached entries
	SnapshotPath     string        // load-on-start / save-on-build / save-on-drain path
	RequestTimeout   time.Duration // per-request deadline on POST /query (0 = none)
	MaxInflight      int           // admission-control cap on concurrent queries (0 = unlimited)
	DrainTimeout     time.Duration // how long SIGTERM waits for in-flight queries

	// FlightRecords sizes the per-query flight recorder's uniform
	// reservoir (errors and slowest-K pools ride along at fixed sizes);
	// 0 disables the recorder, per-query wall timing, and the rolling
	// latency windows wholesale — the engine hot path then takes no clock
	// readings and records nothing (the 0-alloc disabled path).
	FlightRecords int
	// SLOLatency and SLOObjective define the latency SLO surfaced on
	// /metrics and /statusz: SLOObjective (e.g. 0.99) of queries must
	// finish within SLOLatency. Only meaningful with FlightRecords > 0.
	SLOLatency   time.Duration
	SLOObjective float64
}

// Rolling-window geometry: 12 sub-windows of 10s give a 2-minute visible
// window for the live quantiles; the short SLO burn window is the last 3
// sub-windows (30s), the long one the full 2 minutes.
const (
	telemetrySubWindow = 10 * time.Second
	telemetrySubCount  = 12
	burnShortSubs      = 3
)

func defaultServerConfig() serverConfig {
	return serverConfig{
		Seed:           1,
		Procs:          4096,
		BatchSize:      32,
		Leaves:         1 << 7,
		Entries:        8000,
		Shards:         2,
		Regions:        64,
		Tiles:          60,
		RingSize:       4096,
		RequestTimeout: 10 * time.Second,
		MaxInflight:    256,
		DrainTimeout:   10 * time.Second,
		FlightRecords:  2048,
		SLOLatency:     250 * time.Millisecond,
		SLOObjective:   0.99,
	}
}

// Lifecycle states: the server starts building, flips to ready when the
// structures are live, and moves to draining on SIGTERM, never back.
// Overload is not a state — it is ready plus a saturated inflight gauge.
const (
	stateBuilding int32 = iota
	stateReady
	stateDraining
)

// server wires the batched engine and its observability surfaces behind
// HTTP: POST /query, Prometheus /metrics, health/readiness, pprof (host
// CPU/heap plus the simulated-steps profile), and JSONL span streaming.
// Requests pass a lifecycle gate (building/draining → 503), an admission
// gate (inflight cap → 503 + Retry-After), and run under a per-request
// deadline threaded into the engine's context-aware search path.
type server struct {
	cfg    serverConfig
	eng    *engine.Engine
	reg    *obs.Registry
	ring   *obs.Ring
	stream *spanStream
	shards []engine.CatalogBackend
	// flatShards holds the flat wrappers the engine serves from when
	// cfg.Flat is set; s.shards keeps the inner (snapshotable) backends.
	flatShards []*engine.FlatShard
	trees      []*tree.Tree
	// geomBuilt, when set before build, is handed every pointer geometry
	// object build creates (subdivision, complex, both locators). Tests
	// attach finalizers through it to prove none outlives the freeze.
	geomBuilt func(obj any)

	state    atomic.Int32
	inflight atomic.Int64
	// loadedSnapshot reports whether build restored the catalog shards from
	// cfg.SnapshotPath instead of rebuilding them from the seed.
	loadedSnapshot bool
	// flatView is the opened (possibly memory-mapped) sidecar the frozen
	// backends were preloaded from. Zero-copy structures alias its pages,
	// so it stays open for the server's lifetime; nil when the layouts
	// were refrozen or read into private memory.
	flatView *snapshot.FlatView
	// restoreMode records how the catalog shards' frozen layouts came to
	// be under flat serving: "mmap", "deserialized", or "refrozen" (empty
	// without -flat). Written before the ready flip; surfaced on /readyz
	// and as the serve.restore_mode gauge.
	restoreMode string

	obsShed        *obs.Counter // admission-control 503s
	obsPanics      *obs.Counter // handler panics recovered to 500s
	obsTimeouts    *obs.Counter // per-request deadlines fired
	obsCanceled    *obs.Counter // client disconnects observed mid-query
	obsSnapSave    *obs.Counter // snapshots written
	obsSnapLoad    *obs.Counter // snapshots restored on start
	obsRestoreMode *obs.Gauge   // 2 = mmap, 1 = deserialized, 0 = refrozen
	obsQueryErrs   *obs.Counter // per-query engine failures (sums BatchReport.Errors)

	// Serving telemetry (all nil with FlightRecords == 0): the per-query
	// flight recorder behind /debug/slowlog and /statusz, and the rolling
	// latency window + SLO behind the live quantile and burn-rate gauges.
	recorder *obs.FlightRecorder
	latWin   *obs.WindowedHistogram
	slo      *obs.SLO
	started  time.Time
	reqSeq   atomic.Uint64
	bootID   string
}

// newServerShell creates the server with its observability plumbing but no
// structures: handlers are servable immediately (reporting "building") while
// build runs, typically in a goroutine.
func newServerShell(cfg serverConfig) *server {
	s := &server{
		cfg:    cfg,
		reg:    obs.NewRegistry(),
		ring:   obs.NewRing(cfg.RingSize),
		stream: newSpanStream(),
	}
	s.state.Store(stateBuilding)
	s.started = time.Now()
	s.obsShed = s.reg.Counter("serve.shed")
	s.obsPanics = s.reg.Counter("serve.panics")
	s.obsTimeouts = s.reg.Counter("serve.timeouts")
	s.obsCanceled = s.reg.Counter("serve.canceled")
	s.obsSnapSave = s.reg.Counter("serve.snapshot.saves")
	s.obsSnapLoad = s.reg.Counter("serve.snapshot.loads")
	s.obsRestoreMode = s.reg.Gauge("serve.restore_mode")
	s.obsQueryErrs = s.reg.Counter("serve.query.errors")
	s.initTelemetry()
	return s
}

// newServer builds the served structures (seeded, so a restart serves the
// same data) and the engine, synchronously.
func newServer(cfg serverConfig) (*server, error) {
	s := newServerShell(cfg)
	if err := s.build(); err != nil {
		return nil, err
	}
	return s, nil
}

// build builds and freezes the geometric locators, constructs or restores
// the catalog shards, wires the engine, and flips the server to ready. The
// geometry comes first, while the heap holds nothing else (see
// buildGeometry). The catalog shards and the geometry draw from
// independently seeded streams so a snapshot restore (which skips shard
// generation) serves the exact same subdivision and complex as a
// from-scratch build.
func (s *server) build() error {
	pl, sp, err := s.buildGeometry()
	if err != nil {
		return err
	}
	shards, trees, loaded := s.restoreShards()
	if !loaded {
		shards, trees, err = buildShards(s.cfg)
		if err != nil {
			return err
		}
	}
	s.shards, s.trees = shards, trees

	// Flat serving: the engine gets the frozen wrappers; s.shards keeps the
	// inner backends so the snapshot path is unchanged. The sidecar — when
	// the shards were just restored and one of the matching generation sits
	// next to the snapshot — is opened once (memory-mapped where the
	// platform allows) and its blobs routed to the shards.
	engineShards := shards
	if s.cfg.Flat {
		wrapped, err := s.wrapFlat(shards, s.openFlatSidecar(loaded, len(shards)))
		if err != nil {
			return err
		}
		engineShards = wrapped
	}

	s.eng, err = engine.NewFrozen(engine.Config{
		Procs:            s.cfg.Procs,
		BatchSize:        s.cfg.BatchSize,
		BuildParallelism: s.cfg.BuildParallelism,
		FingerCache:      s.cfg.FingerCache,
		Obs:              s.reg,
		Tracer:           obs.Fanout(s.ring, s.stream),
		Recorder:         s.recorder,
		Flat:             s.cfg.Flat,
	}, engineShards, pl, sp)
	if err != nil {
		return err
	}
	s.setRestoreMode()
	if !loaded {
		// Save-on-build: the next restart skips the shard rebuild entirely.
		if err := s.saveSnapshot(); err != nil {
			log.Printf("coopserve: snapshot save failed (serving anyway): %v", err)
		}
	}
	s.state.Store(stateReady)
	return nil
}

// buildGeometry builds the served locators one at a time — subdivision,
// pointer planar locator, freeze; then complex, pointer spatial locator,
// freeze — and returns only the frozen layouts, so no pointer geometry
// outlives the call. Both inputs come from one stream seeded
// seed ^ "geom", the subdivision drawn first; bench/e2e's oracle
// regenerates the geometry the same way.
func (s *server) buildGeometry() (*pointloc.Frozen, *spatial.Frozen, error) {
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x67656f6d)) // "geom"
	allocated := heapAllocBytes()
	pl, err := s.freezePlanar(rng)
	if err != nil {
		return nil, nil, err
	}
	// The pointer planar structures are garbage now. Left to the pacer,
	// whose goal was set while they were live, the spatial build grows the
	// heap on top of them. A collection here marks only the frozen planar
	// layout, because build runs it before the catalog shards exist.
	if heapAllocBytes()-allocated >= collectAfterPlanarBytes {
		runtime.GC()
	}
	sp, err := s.freezeSpatial(rng)
	return pl, sp, err
}

// collectAfterPlanarBytes is the planar build allocation above which
// buildGeometry collects the dead pointer planar structures before the
// spatial build. Measured on a 2-vCPU host: at 8192 regions the build
// allocates about 70 MB, and the collection takes peak RSS at ready on the
// geo-mixed shape from 58–86 MB down to 54–68 MB; at coopserve's default
// 64 regions it allocates under 1 MB, and a forced collection (1–5 ms)
// would add up to a quarter to a 16 ms boot.
const collectAfterPlanarBytes = 16 << 20

// heapAllocBytes returns the bytes allocated on the heap since the process
// started.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// freezePlanar draws the subdivision from rng and returns its frozen
// planar locator.
func (s *server) freezePlanar(rng *rand.Rand) (*pointloc.Frozen, error) {
	sub, err := subdivision.Generate(s.cfg.Regions, 24, rng)
	if err != nil {
		return nil, err
	}
	loc, err := pointloc.Build(sub, core.Config{Parallelism: s.cfg.BuildParallelism})
	if err != nil {
		return nil, err
	}
	s.noteGeometry(sub, loc)
	return loc.Freeze(s.cfg.BuildParallelism)
}

// freezeSpatial draws the complex from rng and returns its frozen spatial
// locator.
func (s *server) freezeSpatial(rng *rand.Rand) (*spatial.Frozen, error) {
	cx, err := spatial.Generate(s.cfg.Tiles, 4, rng)
	if err != nil {
		return nil, err
	}
	loc, err := spatial.NewLocatorParallel(cx, s.cfg.BuildParallelism)
	if err != nil {
		return nil, err
	}
	s.noteGeometry(cx, loc)
	return loc.Freeze()
}

// noteGeometry hands pointer geometry objects to the geomBuilt hook.
func (s *server) noteGeometry(objs ...any) {
	if s.geomBuilt == nil {
		return
	}
	for _, o := range objs {
		s.geomBuilt(o)
	}
}

// setRestoreMode classifies how the catalog shards' frozen layouts were
// restored and publishes it ("mmap" > "deserialized" > "refrozen": any
// shard that had to refreeze demotes the whole restore). A no-op without
// flat serving.
func (s *server) setRestoreMode() {
	if !s.cfg.Flat {
		return
	}
	preloaded := s.flatView != nil
	for _, fb := range s.eng.FrozenBackends() {
		if fb.Refreezes() != 0 {
			preloaded = false
		}
	}
	switch {
	case preloaded && s.flatView.Mapped:
		s.restoreMode = "mmap"
		s.obsRestoreMode.Set(2)
	case preloaded:
		s.restoreMode = "deserialized"
		s.obsRestoreMode.Set(1)
	default:
		s.restoreMode = "refrozen"
		s.obsRestoreMode.Set(0)
	}
}

// buildShards generates the catalog shards from the seed.
func buildShards(cfg serverConfig) ([]engine.CatalogBackend, []*tree.Tree, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var shards []engine.CatalogBackend
	var trees []*tree.Tree
	for i := 0; i < cfg.Shards; i++ {
		bt, err := tree.NewBalancedBinary(cfg.Leaves)
		if err != nil {
			return nil, nil, err
		}
		cats := randomCatalogs(bt, cfg.Entries, rng)
		coreCfg := core.Config{Parallelism: cfg.BuildParallelism}
		if cfg.Dynamic {
			d, err := dynamic.New(bt, cats, coreCfg, 0)
			if err != nil {
				return nil, nil, err
			}
			shards = append(shards, engine.DynamicShard{D: d})
		} else {
			st, err := core.Build(bt, cats, coreCfg)
			if err != nil {
				return nil, nil, err
			}
			shards = append(shards, engine.StaticShard{St: st})
		}
		trees = append(trees, bt)
	}
	return shards, trees, nil
}

// restoreShards attempts to load the catalog shards from the configured
// snapshot. Any failure — missing file, corruption, or a shape that does
// not match the flags — logs and falls back to rebuild-from-source; it
// never aborts startup.
func (s *server) restoreShards() ([]engine.CatalogBackend, []*tree.Tree, bool) {
	if s.cfg.SnapshotPath == "" {
		return nil, nil, false
	}
	store, err := snapshot.LoadParallel(s.cfg.SnapshotPath, s.cfg.BuildParallelism)
	if err != nil {
		log.Printf("coopserve: snapshot %s unusable, rebuilding: %v", s.cfg.SnapshotPath, err)
		return nil, nil, false
	}
	if len(store.Shards) != s.cfg.Shards {
		log.Printf("coopserve: snapshot has %d shards, flags want %d; rebuilding", len(store.Shards), s.cfg.Shards)
		return nil, nil, false
	}
	wantKind := snapshot.KindStatic
	if s.cfg.Dynamic {
		wantKind = snapshot.KindDynamic
	}
	for i, sh := range store.Shards {
		if sh.Kind != wantKind {
			log.Printf("coopserve: snapshot shard %d has kind %d, flags want %d; rebuilding", i, sh.Kind, wantKind)
			return nil, nil, false
		}
	}
	backends, err := engine.BackendsFromStore(store)
	if err != nil {
		log.Printf("coopserve: snapshot %s unusable, rebuilding: %v", s.cfg.SnapshotPath, err)
		return nil, nil, false
	}
	trees := make([]*tree.Tree, len(backends))
	for i, be := range backends {
		trees[i] = shardTree(be)
	}
	s.loadedSnapshot = true
	s.obsSnapLoad.Inc()
	return backends, trees, true
}

// shardTree returns the catalog tree behind a snapshotable backend.
func shardTree(be engine.CatalogBackend) *tree.Tree {
	switch b := be.(type) {
	case engine.StaticShard:
		return b.St.Tree()
	case engine.DynamicShard:
		return b.D.Static().Tree()
	default:
		panic(fmt.Sprintf("coopserve: unsnapshotable backend %T", be))
	}
}

// snapshotStore assembles the persistable view of the catalog shards. The
// store generation sums the dynamic shard generations, so it advances with
// every flush and a freshly loaded snapshot is distinguishable from stale
// ones.
func (s *server) snapshotStore() (*snapshot.Store, error) {
	st := &snapshot.Store{}
	for i, be := range s.shards {
		switch b := be.(type) {
		case engine.StaticShard:
			st.Shards = append(st.Shards, snapshot.Shard{Kind: snapshot.KindStatic, Static: b.St})
		case engine.DynamicShard:
			st.Shards = append(st.Shards, snapshot.Shard{Kind: snapshot.KindDynamic, Dynamic: b.D})
			st.Generation += b.D.Generation()
		default:
			return nil, fmt.Errorf("coopserve: shard %d: unsnapshotable backend %T", i, be)
		}
	}
	return st, nil
}

// saveSnapshot writes the current shard state crash-safely to the
// configured path; a no-op without one (or before the shards exist). Under
// flat serving it also writes the frozen-layout sidecar next to the
// snapshot; a sidecar failure only logs — it is a cache, and the loader
// refreezes without one.
func (s *server) saveSnapshot() error {
	if s.cfg.SnapshotPath == "" || s.shards == nil {
		return nil
	}
	st, err := s.snapshotStore()
	if err != nil {
		return err
	}
	if err := snapshot.Save(s.cfg.SnapshotPath, st); err != nil {
		return err
	}
	s.obsSnapSave.Inc()
	if err := s.saveFlatSidecar(); err != nil {
		log.Printf("coopserve: flat sidecar save failed (snapshot itself is intact): %v", err)
	}
	return nil
}

// flatSidecarPath locates the frozen-layout sidecar next to the snapshot.
func (s *server) flatSidecarPath() string {
	if s.cfg.SnapshotPath == "" {
		return ""
	}
	return s.cfg.SnapshotPath + ".flat"
}

// shardsGeneration sums the shard generations — the same quantity the
// snapshot store records, used to pair a sidecar with its snapshot.
func shardsGeneration(shards []engine.CatalogBackend) uint64 {
	var g uint64
	for _, be := range shards {
		g += be.Generation()
	}
	return g
}

// openFlatSidecar opens the sidecar next to the snapshot — memory-mapped
// where the platform allows — and returns its catalog shard blobs in shard
// order. Any defect (missing, corrupt, generation skew, wrong shard count,
// a blob of another kind — such as the spatial blob older sidecars
// carried) logs, discards the view, and returns nil: every shard then
// refreezes from its pointer structure. On success the view is retained on
// s for the server's lifetime, because zero-copy layouts serve straight
// out of it.
func (s *server) openFlatSidecar(fromSnapshot bool, nShards int) [][]byte {
	path := s.flatSidecarPath()
	if path == "" || !fromSnapshot {
		return nil
	}
	v, err := snapshot.OpenFlat(path)
	if err != nil {
		log.Printf("coopserve: flat sidecar %s unusable, refreezing: %v", path, err)
		return nil
	}
	if v.Generation != shardsGeneration(s.shards) {
		log.Printf("coopserve: flat sidecar %s is for another snapshot (generation %d); refreezing", path, v.Generation)
		_ = v.Close()
		return nil
	}
	var catBlobs [][]byte
	for _, b := range v.Blobs {
		if b.Kind != flat.StoreKindCatalog {
			log.Printf("coopserve: flat sidecar %s has a blob of unknown kind %d; refreezing", path, b.Kind)
			_ = v.Close()
			return nil
		}
		catBlobs = append(catBlobs, b.Data)
	}
	if len(catBlobs) != nShards {
		log.Printf("coopserve: flat sidecar %s has %d catalog blobs, want %d; refreezing", path, len(catBlobs), nShards)
		_ = v.Close()
		return nil
	}
	s.flatView = v
	return catBlobs
}

// wrapFlat wraps every shard for flat serving, preloading the frozen
// layout from the matching sidecar blob when one was opened; any defect
// (corruption, shape or content mismatch) falls back to freezing from the
// pointer structures.
func (s *server) wrapFlat(shards []engine.CatalogBackend, blobs [][]byte) ([]engine.CatalogBackend, error) {
	out := make([]engine.CatalogBackend, len(shards))
	s.flatShards = make([]*engine.FlatShard, len(shards))
	for i, be := range shards {
		var fs *engine.FlatShard
		if blobs != nil {
			fs = preloadFlatShard(i, be, blobs[i])
		}
		if fs == nil {
			var err error
			fs, err = engine.NewFlatShardParallel(be, s.cfg.BuildParallelism)
			if err != nil {
				return nil, err
			}
		}
		s.flatShards[i] = fs
		out[i] = fs
	}
	return out, nil
}

// preloadFlatShard decodes one sidecar blob — zero-copy, so a mapped blob
// serves from the page cache — and wraps the backend around it,
// spot-checking entry probes against the live catalogs so a sidecar
// swapped in from a different dataset is rejected rather than served. Any
// failure returns nil and the caller refreezes.
func preloadFlatShard(i int, be engine.CatalogBackend, blob []byte) *engine.FlatShard {
	f, _, err := flat.OpenStructure(blob)
	if err != nil {
		log.Printf("coopserve: flat sidecar shard %d undecodable, refreezing: %v", i, err)
		return nil
	}
	fs, err := engine.NewFlatShardFrom(be, f)
	if err != nil {
		log.Printf("coopserve: flat sidecar shard %d rejected, refreezing: %v", i, err)
		return nil
	}
	root := be.Root()
	for _, y := range []catalog.Key{0, 1, 1 << 10, 1 << 20, catalog.PlusInf} {
		if f.EntryProbe(root, y) != be.EntryProbe(root, y) {
			log.Printf("coopserve: flat sidecar shard %d disagrees with the snapshot at key %d, refreezing", i, y)
			return nil
		}
	}
	return fs
}

// saveFlatSidecar persists the catalog shards' current frozen layouts next
// to the snapshot; a no-op unless flat serving and snapshotting are both
// on.
func (s *server) saveFlatSidecar() error {
	path := s.flatSidecarPath()
	if path == "" || s.eng == nil {
		return nil
	}
	fbs := s.eng.FrozenBackends()
	if len(fbs) == 0 {
		return nil
	}
	blobs := make([]snapshot.FlatBlob, len(fbs))
	for i, fb := range fbs {
		b, err := fb.FrozenBlob()
		if err != nil {
			return err
		}
		blobs[i] = snapshot.FlatBlob{Kind: fb.FrozenKind(), Data: b}
	}
	return snapshot.SaveFlat(path, shardsGeneration(s.shards), blobs)
}

// beginDrain moves the server to draining: new queries are refused with
// 503 while in-flight ones run to completion.
func (s *server) beginDrain() { s.state.Store(stateDraining) }

// awaitDrain polls until no queries are in flight or the timeout lapses,
// reporting whether the server drained fully. (http.Server.Shutdown
// provides the connection-level guarantee; this bounds the wait and lets
// the final snapshot observe a quiesced engine.)
func (s *server) awaitDrain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if s.inflight.Load() == 0 {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// randomCatalogs builds one random catalog per node totalling roughly
// `total` entries, with skewed per-node sizes (the same workload shape the
// benchmarks use).
func randomCatalogs(t *tree.Tree, total int, rng *rand.Rand) []catalog.Catalog {
	cats := make([]catalog.Catalog, t.N())
	for v := range cats {
		var size int
		switch rng.Intn(3) {
		case 0:
			size = rng.Intn(4)
		case 1:
			size = rng.Intn(2*total/(t.N()+1) + 1)
		default:
			size = rng.Intn(4 * total / (t.N() + 1))
		}
		seen := map[catalog.Key]bool{}
		keys := make([]catalog.Key, 0, size)
		for len(keys) < size {
			k := catalog.Key(rng.Intn(total * 8))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		cats[v] = catalog.MustFromKeys(keys, nil)
	}
	return cats
}

// handler is the servable root: the mux wrapped in panic recovery.
func (s *server) handler() http.Handler { return s.withRecovery(s.routes()) }

// withRecovery converts a handler panic into a 500 and a counter instead of
// tearing down the connection (and, under some servers, the process).
func (s *server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.obsPanics.Inc()
				log.Printf("coopserve: panic serving %s %s: %v", r.Method, r.URL.Path, v)
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// unavailable writes the load-shedding 503: the reason in the body and a
// Retry-After so well-behaved clients back off instead of hammering.
func unavailable(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, reason, http.StatusServiceUnavailable)
}

// routes builds the HTTP mux.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/spans", s.handleSpans)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/pprof/steps", s.handleStepsProfile)
	return mux
}

// handleQuery executes a batch of queries. The request body is a
// queryRequest of at most maxQueryBody bytes; queries are executed through
// the engine's batched path in groups of the configured batch size, and
// the response (wire.go) carries the correlation id, one report per
// engine batch and one answer per query.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	switch s.state.Load() {
	case stateBuilding:
		unavailable(w, "building")
		return
	case stateDraining:
		unavailable(w, "draining")
		return
	}
	// Admission control: count the request in flight for the drain path and
	// shed it if the cap is already saturated.
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if max := s.cfg.MaxInflight; max > 0 && n > int64(max) {
		s.obsShed.Inc()
		unavailable(w, "overloaded")
		return
	}
	sc := getQueryScratch()
	defer putQueryScratch(sc)
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxQueryBody)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxQueryBody), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	var err error
	sc.queries, err = decodeQueries(sc.queries, sc.body.Bytes())
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(sc.queries) == 0 {
		http.Error(w, "empty query list", http.StatusBadRequest)
		return
	}
	for i, wq := range sc.queries {
		q, err := s.toEngineQuery(wq)
		if err != nil {
			http.Error(w, fmt.Sprintf("query %d: %v", i, err), http.StatusBadRequest)
			return
		}
		sc.qs = append(sc.qs, q)
	}
	qs := sc.qs
	// The request context carries the client disconnect; the configured
	// per-request deadline stacks on top. Both propagate into the engine's
	// context-aware search path, as does the correlation id (inbound
	// X-Request-ID honored, minted otherwise) that every span and flight
	// record of this request will carry.
	reqID := s.requestID(r)
	w.Header().Set("X-Request-ID", reqID)
	ctx := obs.WithRequestID(r.Context(), reqID)
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	for lo := 0; lo < len(qs); lo += s.cfg.BatchSize {
		hi := min(lo+s.cfg.BatchSize, len(qs))
		answers, rep, err := s.eng.ExecuteBatchContext(ctx, qs[lo:hi])
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Failure counters and latency windows are fed before the
		// context-expiry early return so /metrics, /spans, and
		// /debug/slowlog agree on failure counts even for batches whose
		// response was never written.
		s.obsQueryErrs.Add(int64(rep.Errors))
		s.observeAnswers(answers)
		if err := ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				s.obsTimeouts.Inc()
				http.Error(w, "request deadline exceeded", http.StatusGatewayTimeout)
			} else {
				// Client gone: nobody is listening for a status.
				s.obsCanceled.Inc()
			}
			return
		}
		sc.reports = append(sc.reports, rep)
		sc.answers = append(sc.answers, answers)
	}
	sc.out = appendQueryResponse(sc.out[:0], reqID, sc.reports, sc.answers)
	w.Header().Set("Content-Type", "application/json")
	// A failed write means the client is gone; there is nobody to tell.
	_, _ = w.Write(sc.out)
}

// toEngineQuery validates and converts one wire query.
func (s *server) toEngineQuery(wq wireQuery) (engine.Query, error) {
	switch wq.Kind {
	case "catalog":
		if wq.Shard < 0 || wq.Shard >= len(s.trees) {
			return engine.Query{}, fmt.Errorf("shard %d out of range [0, %d)", wq.Shard, len(s.trees))
		}
		t := s.trees[wq.Shard]
		if wq.Leaf < 0 || wq.Leaf >= int64(t.N()) {
			return engine.Query{}, fmt.Errorf("leaf %d out of range [0, %d)", wq.Leaf, t.N())
		}
		return engine.CatalogQuery(wq.Shard, catalog.Key(wq.Key), t.RootPath(tree.NodeID(wq.Leaf))), nil
	case "point":
		return engine.PointQuery(geomPoint(wq.X, wq.Y)), nil
	case "spatial":
		return engine.SpatialQuery(wq.X, wq.Y, wq.Z), nil
	default:
		return engine.Query{}, fmt.Errorf("unknown kind %q (want catalog, point, or spatial)", wq.Kind)
	}
}

// handleMetrics serves the registry snapshot in the Prometheus text
// exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteProm(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz names the lifecycle state distinctly so probes (and the
// drain script) can tell building, draining, and overload apart.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch s.state.Load() {
	case stateBuilding:
		unavailable(w, "building")
	case stateDraining:
		unavailable(w, "draining")
	default:
		if max := s.cfg.MaxInflight; max > 0 && s.inflight.Load() >= int64(max) {
			unavailable(w, "overloaded")
			return
		}
		if s.restoreMode != "" {
			fmt.Fprintf(w, "ready restore_mode=%s\n", s.restoreMode)
		} else {
			fmt.Fprintln(w, "ready")
		}
	}
}

// handleStepsProfile serves a pprof profile of *simulated parallel time*:
// one sample per engine phase, value = cumulative engine.phase.<label>.steps
// from the registry, stack = the phase path. `go tool pprof -top` (and
// flamegraph UIs) then break simulated steps down by phase exactly like
// host CPU profiles break down nanoseconds.
func (s *server) handleStepsProfile(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	var samples []obs.ProfileSample
	var labels []string
	steps := map[string]int64{}
	for name, v := range snap.Counters {
		label, ok := strings.CutPrefix(name, "engine.phase.")
		if !ok {
			continue
		}
		label, ok = strings.CutSuffix(label, ".steps")
		if !ok || v == 0 {
			continue
		}
		steps[label] = v
		labels = append(labels, label)
	}
	// Sorted for deterministic output.
	for i := 0; i < len(labels); i++ {
		for j := i + 1; j < len(labels); j++ {
			if labels[j] < labels[i] {
				labels[i], labels[j] = labels[j], labels[i]
			}
		}
	}
	for _, label := range labels {
		samples = append(samples, obs.ProfileSample{
			Stack:  strings.Split(label, "/"),
			Values: []int64{steps[label]},
		})
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="steps.pb.gz"`)
	if err := obs.WriteProfile(w, [][2]string{{"steps", "count"}}, samples); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleSpans streams spans as JSONL (one span per line). Query params:
// replay=1 first dumps the ring buffer's retained history and closes
// (add follow=1 to keep tailing live spans afterwards); limit=N closes
// the stream after N spans (0 = no cap).
func (s *server) handleSpans(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	// Flush the headers up front: a live tail with no retained history
	// would otherwise leave the client blocked on the status line until
	// the first span happens to arrive.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	sent := 0
	emit := func(sp obs.Span) bool {
		if err := enc.Encode(sp); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		sent++
		return limit == 0 || sent < limit
	}
	replay := r.URL.Query().Get("replay") == "1"
	if replay {
		for _, sp := range s.ring.Spans() {
			if !emit(sp) {
				return
			}
		}
		// A pure replay closes here; tailing past history is opt-in so
		// curl and tests terminate without killing the connection.
		if r.URL.Query().Get("follow") != "1" {
			return
		}
	}
	ch := s.stream.subscribe()
	defer s.stream.unsubscribe(ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case sp := <-ch:
			if !emit(sp) {
				return
			}
		}
	}
}
