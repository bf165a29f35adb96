package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
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
// Builds and freezes use every core GOMAXPROCS allows.
type serverConfig struct {
	Seed      int64
	Procs     int
	BatchSize int
	Leaves    int // catalog-tree leaves per shard
	Entries   int // approximate catalog entries per shard
	Shards    int
	Regions   int // planar subdivision regions
	Tiles     int // spatial complex tiles

	SnapshotPath   string        // load-on-start / save-on-build path; its sidecar is SnapshotPath+".flat"
	RequestTimeout time.Duration // per-request deadline on POST /query (0 = none)
	MaxInflight    int           // admission-control cap on concurrent queries (0 = unlimited)
	DrainTimeout   time.Duration // how long SIGTERM waits for in-flight queries and a sidecar write
}

// The latency SLO surfaced on /metrics and /statusz: sloObjective of
// queries must finish within sloLatency.
const (
	sloLatency   = 250 * time.Millisecond
	sloObjective = 0.99
)

// Rolling-window geometry: 12 sub-windows of 10s give a 2-minute visible
// window for the live quantiles; the short SLO burn window is the last 3
// sub-windows (30s), the long one the full 2 minutes.
const (
	telemetrySubWindow = 10 * time.Second
	telemetrySubCount  = 12
	burnShortSubs      = 3
)

// ringRecords is the capacity of the record ring behind /spans: the last
// 2048 queries, 442 KB of flight records. flightRecords is the flight
// recorder's uniform reservoir behind /debug/slowlog and /statusz (its
// error and slowest-per-window pools ride along at fixed sizes).
const (
	ringRecords   = 2048
	flightRecords = 2048
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
		RequestTimeout: 10 * time.Second,
		MaxInflight:    256,
		DrainTimeout:   10 * time.Second,
	}
}

// validate rejects the shape flags that build or the query handler cannot
// serve, before anything is drawn. The packages the other shape flags size
// (tree, subdivision, spatial, engine) reject their own bad values.
func (c serverConfig) validate() error {
	switch {
	case c.BatchSize < 1:
		return fmt.Errorf("-batch=%d: want at least 1", c.BatchSize)
	case c.Shards < 0:
		return fmt.Errorf("-shards=%d: want at least 0", c.Shards)
	case c.Entries < 1 || c.Entries > math.MaxInt32: // the frozen layout's cap per shard
		return fmt.Errorf("-entries=%d: want 1 to %d", c.Entries, math.MaxInt32)
	}
	return nil
}

// generation is the snapshot header's generation coopserve writes: a
// fingerprint of the flags that decide the catalog shards' contents
// (-seed, -shards, -leaves, -entries), so a restore refuses a snapshot
// written for other flags before it maps anything.
func (c serverConfig) generation() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []int64{c.Seed, int64(c.Shards), int64(c.Leaves), int64(c.Entries)} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// sidecarPath is where the frozen catalog shards of the snapshot at path
// are mapped from.
func sidecarPath(path string) string { return path + ".flat" }

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
// deadline that the engine checks before each query.
type server struct {
	cfg serverConfig
	// eng is published by build once it is wired, so a handler that loads
	// it (/statusz polls while the server builds) sees it whole; nil until
	// then.
	eng  atomic.Pointer[engine.Engine]
	reg  *obs.Registry
	ring *obs.Ring // the last ringRecords queries' records, behind /spans
	// catalogs are the frozen catalog shards the engine serves; the query
	// handler reads their shapes to check leaves and build root paths.
	catalogs []*flat.Structure
	// pointerBuilt, when set before build, is handed every pointer
	// structure build creates: the subdivision, the complex, both locators
	// and each catalog shard's core.Structure. Tests attach finalizers
	// through it to prove none outlives its freeze.
	pointerBuilt func(obj any)

	state    atomic.Int32
	inflight atomic.Int64
	// view is the mapped sidecar the catalog shards are served from after a
	// restore, nil after a build. It stays open for the server's life.
	view *snapshot.FlatView
	// writing is set from just before the server turns ready until its
	// sidecar write ends, on a boot that writes one; the drain waits for it.
	writing atomic.Bool

	obsShed      *obs.Counter // admission-control 503s
	obsPanics    *obs.Counter // handler panics recovered to 500s
	obsTimeouts  *obs.Counter // per-request deadlines fired
	obsCanceled  *obs.Counter // client disconnects observed mid-query
	obsSnapSave  *obs.Counter // snapshots written
	obsSnapLoad  *obs.Counter // restores that mapped the sidecar on start
	obsQueryErrs *obs.Counter // per-query engine failures (sums BatchReport.Errors)

	// Serving telemetry: the per-query flight recorder behind
	// /debug/slowlog and /statusz, and the SLO whose rolling window feeds
	// the live quantile and burn-rate gauges.
	recorder *obs.FlightRecorder
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
		cfg:  cfg,
		reg:  obs.NewRegistry(),
		ring: obs.NewRing(ringRecords),
	}
	s.state.Store(stateBuilding)
	s.started = time.Now()
	s.obsShed = s.reg.Counter("serve.shed")
	s.obsPanics = s.reg.Counter("serve.panics")
	s.obsTimeouts = s.reg.Counter("serve.timeouts")
	s.obsCanceled = s.reg.Counter("serve.canceled")
	s.obsSnapSave = s.reg.Counter("serve.snapshot.saves")
	s.obsSnapLoad = s.reg.Counter("serve.snapshot.loads")
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

// build builds and freezes the geometric locators, maps or builds and
// freezes the catalog shards, wires the engine, and flips the server to
// ready. Each pointer structure is built, frozen and dropped before the
// next one starts, with the collection rule applied in between and after
// the last (see collector), so at most one is live at a time and none is
// reachable once the server is ready; a mapped restore creates none. The
// geometry comes first, while the heap holds nothing else. The catalog
// shards and the geometry draw from independently seeded streams so a
// restore (which skips shard generation) serves the exact same subdivision
// and complex as a from-scratch build. A boot that built its shards with a
// snapshot path then, once ready, streams them into the sidecar beside the
// snapshot, so the next boot maps them.
func (s *server) build() error {
	start := time.Now()
	if err := s.cfg.validate(); err != nil {
		return err
	}
	gc := newCollector()
	pl, sp, err := s.buildGeometry(gc)
	if err != nil {
		return err
	}
	var bind snapshot.Binding
	catalogs := s.restoreShards(gc)
	if catalogs == nil {
		if catalogs, bind, err = s.buildShards(gc); err != nil {
			return err
		}
	}
	gc.next()
	s.catalogs = catalogs
	eng, err := engine.NewFrozen(engine.Config{
		Procs:     s.cfg.Procs,
		BatchSize: s.cfg.BatchSize,
		Obs:       s.reg,
		Tracer:    s.ring,
		Recorder:  s.recorder,
	}, catalogs, pl, sp)
	if err != nil {
		return err
	}
	s.eng.Store(eng)
	// The write is marked before the server turns ready, so a drain that
	// sees it ready waits for the write. A drain that began during the
	// build means the process is exiting: write nothing.
	save := bind != (snapshot.Binding{})
	s.writing.Store(save)
	if !s.state.CompareAndSwap(stateBuilding, stateReady) {
		s.writing.Store(false)
		return nil
	}
	src := "built"
	if s.view != nil {
		src = "restored from " + s.cfg.SnapshotPath + ", mapped"
	}
	log.Printf("coopserve: ready in %v (%s): %d shards, %d-leaf trees, P=%d, batch=%d",
		time.Since(start).Round(time.Millisecond), src, s.cfg.Shards, s.cfg.Leaves, s.cfg.Procs, s.cfg.BatchSize)
	if save {
		s.saveSidecar(bind)
		s.writing.Store(false)
	}
	return nil
}

// buildGeometry builds the served locators one at a time — subdivision,
// pointer planar locator, freeze; then complex, pointer spatial locator,
// freeze — and returns only the frozen layouts, so no pointer geometry
// outlives the call. Both inputs come from one stream seeded
// seed ^ "geom", the subdivision drawn first; bench/e2e's oracle
// regenerates the geometry the same way.
func (s *server) buildGeometry(gc *collector) (*pointloc.Frozen, *spatial.Frozen, error) {
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x67656f6d)) // "geom"
	pl, err := s.freezePlanar(rng)
	if err != nil {
		return nil, nil, err
	}
	gc.next()
	sp, err := s.freezeSpatial(rng)
	return pl, sp, err
}

// collector applies the boot's collection rule: before the next pointer
// structure is built, and before the server turns ready, collect if the
// previous one allocated at least collectAfterBytes. Its pointer
// structures are garbage by then. Left to the pacer, whose goal was set
// while they were live, the next build, or serving, grows the heap on top
// of them; a collection here marks only the frozen layouts built so far.
type collector struct{ mark uint64 }

// newCollector starts measuring the first structure's allocation.
func newCollector() *collector { return &collector{mark: heapAllocBytes()} }

// next applies the rule and starts measuring the next structure.
func (c *collector) next() {
	if heapAllocBytes()-c.mark >= collectAfterBytes {
		runtime.GC()
	}
	c.mark = heapAllocBytes()
}

// collectAfterBytes is the allocation of one pointer structure's build
// above which the collector runs before the next one. Measured on a
// 2-vCPU host: at 8192 regions the planar build allocates about 70 MB, and
// the collection takes peak RSS at ready on the geo-mixed shape from
// 58–86 MB down to 54–68 MB. On the catalog-cold shape (2 shards of 2^19
// entries over 1024-leaf trees) the rule takes the median peak of a build
// from 212 to 203 MB, at the same time to ready. At coopserve's default
// sizes a structure allocates under 16 MB, and a forced collection
// (1–5 ms) would add up to a quarter to a 16 ms boot.
const collectAfterBytes = 16 << 20

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
	loc, err := pointloc.Build(sub, core.Config{})
	if err != nil {
		return nil, err
	}
	s.notePointers(sub, loc)
	return loc.Freeze(0)
}

// freezeSpatial draws the complex from rng and returns its frozen spatial
// locator.
func (s *server) freezeSpatial(rng *rand.Rand) (*spatial.Frozen, error) {
	cx, err := spatial.Generate(s.cfg.Tiles, 4, rng)
	if err != nil {
		return nil, err
	}
	loc, err := spatial.NewLocator(cx)
	if err != nil {
		return nil, err
	}
	s.notePointers(cx, loc)
	return loc.Freeze()
}

// notePointers hands pointer structures to the pointerBuilt hook.
func (s *server) notePointers(objs ...any) {
	if s.pointerBuilt == nil {
		return
	}
	for _, o := range objs {
		s.pointerBuilt(o)
	}
}

// buildShards draws each shard's catalogs from the cfg.Seed stream in
// shard order, builds and freezes it, and (with a snapshot path) streams it
// into the snapshot before the next is built. It returns the frozen shards
// and the snapshot's Binding. A snapshot that fails to save only logs, and
// the Binding is zero: the shards serve anyway.
func (s *server) buildShards(gc *collector) ([]*flat.Structure, snapshot.Binding, error) {
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	frozen := make([]*flat.Structure, 0, s.cfg.Shards)
	var buildErr error
	next := func(int) (snapshot.Shard, error) {
		gc.next()
		st, err := s.buildShard(rng)
		if err == nil {
			var f *flat.Structure
			if f, err = flat.FreezeParallel(st, 0); err == nil {
				frozen = append(frozen, f)
				return snapshot.Shard{Kind: snapshot.KindStatic, Static: st}, nil
			}
		}
		buildErr = err
		return snapshot.Shard{}, err
	}
	var bind snapshot.Binding
	if path := s.cfg.SnapshotPath; path != "" {
		kinds := make([]snapshot.Kind, s.cfg.Shards)
		for i := range kinds {
			kinds[i] = snapshot.KindStatic
		}
		var err error
		bind, err = snapshot.SaveShards(path, s.cfg.generation(), kinds, next)
		switch {
		case buildErr != nil:
			return nil, snapshot.Binding{}, buildErr
		case err != nil:
			bind = snapshot.Binding{}
			log.Printf("coopserve: snapshot save failed (serving anyway): %v", err)
		default:
			s.obsSnapSave.Inc()
		}
	}
	// Without a snapshot, or after a save that stopped early (it can fail
	// before any shard or after any), build the rest here.
	for len(frozen) < s.cfg.Shards {
		if _, err := next(len(frozen)); err != nil {
			return nil, snapshot.Binding{}, err
		}
	}
	return frozen, bind, nil
}

// buildShard draws one shard's catalogs from rng and builds its pointer
// structure.
func (s *server) buildShard(rng *rand.Rand) (*core.Structure, error) {
	bt, err := tree.NewBalancedBinary(s.cfg.Leaves)
	if err != nil {
		return nil, err
	}
	st, err := core.Build(bt, randomCatalogs(bt, s.cfg.Entries, rng), core.Config{})
	if err != nil {
		return nil, err
	}
	s.notePointers(st)
	return st, nil
}

// restoreShards maps the catalog shards from the sidecar of the
// configured snapshot and returns them, or nil when build must build them
// from the seed, which rewrites both files. It streams the snapshot once to
// check its header and generation against the flags and to compute its
// Binding, and maps nothing for a file written for other flags or a sidecar
// not bound to those exact bytes (mapShards). A bad file never aborts
// startup: it logs why and builds.
func (s *server) restoreShards(gc *collector) []*flat.Structure {
	path := s.cfg.SnapshotPath
	if path == "" {
		return nil
	}
	// The geometry's garbage goes first, as it would before a first
	// shard build.
	gc.next()
	gen, bind, err := snapshot.Bind(path)
	if err != nil {
		log.Printf("coopserve: snapshot %s unusable, rebuilding: %v", path, err)
		return nil
	}
	if gen != s.cfg.generation() {
		log.Printf("coopserve: snapshot %s was written for other -seed/-shards/-leaves/-entries; rebuilding", path)
		return nil
	}
	frozen, err := s.mapShards(bind)
	if err != nil {
		log.Printf("coopserve: sidecar %s unusable, rebuilding: %v", sidecarPath(path), err)
		return nil
	}
	s.obsSnapLoad.Inc()
	return frozen
}

// mapShards maps the sidecar beside the snapshot read-only and opens one
// catalog shard from each of its blobs, zero-copy. It refuses a sidecar
// that is not bound to bind or does not hold exactly one blob per shard,
// and every blob passes its store CRC and the structure's full validation
// before it serves. On success the mapping stays open for the server's
// life (s.view); a save replaces the file by rename, so the mapping keeps
// the inode it was opened on.
func (s *server) mapShards(bind snapshot.Binding) (frozen []*flat.Structure, err error) {
	v, err := snapshot.OpenFlat(sidecarPath(s.cfg.SnapshotPath))
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			v.Close()
		}
	}()
	if v.Generation != bind.Word() {
		return nil, fmt.Errorf("bound to another snapshot (%#x, this one is %#x)", v.Generation, bind.Word())
	}
	if len(v.Blobs) != s.cfg.Shards {
		return nil, fmt.Errorf("%d blobs for %d shards", len(v.Blobs), s.cfg.Shards)
	}
	frozen = make([]*flat.Structure, len(v.Blobs))
	for i, b := range v.Blobs {
		if frozen[i], _, err = flat.OpenStructure(b.Data); err != nil {
			return nil, fmt.Errorf("blob %d: %w", i, err)
		}
	}
	s.view = v
	return frozen, nil
}

// saveSidecar streams the served catalog shards into the sidecar beside
// the snapshot, bound to bind: the snapshot bytes the shards were built
// with. A failed save only logs: the shards serve anyway, and the next
// boot builds them again.
func (s *server) saveSidecar(bind snapshot.Binding) {
	start := time.Now()
	stores := make([]*flat.StoreBuilder, len(s.catalogs))
	for i, f := range s.catalogs {
		stores[i] = f.StoreBuilder()
	}
	path := sidecarPath(s.cfg.SnapshotPath)
	if err := snapshot.SaveFlat(path, bind.Word(), stores); err != nil {
		log.Printf("coopserve: sidecar save failed (serving anyway): %v", err)
		return
	}
	log.Printf("coopserve: sidecar %s written in %v", path, time.Since(start).Round(time.Millisecond))
}

// beginDrain moves the server to draining: new queries are refused with
// 503 while in-flight ones run to completion.
func (s *server) beginDrain() { s.state.Store(stateDraining) }

// awaitDrain polls until no queries are in flight and no sidecar write is
// in progress, or the timeout lapses, reporting whether the server drained
// fully. It never waits for a build. (http.Server.Shutdown provides the
// connection-level guarantee; this bounds the wait.)
func (s *server) awaitDrain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if s.inflight.Load() == 0 && !s.writing.Load() {
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
// benchmarks use). A node redraws keys it holds, found in one bitset over
// the keys [0, 8·total), which it clears before the next node draws.
func randomCatalogs(t *tree.Tree, total int, rng *rand.Rand) []catalog.Catalog {
	cats := make([]catalog.Catalog, t.N())
	seen := make([]uint64, (total*8+63)/64)
	for v := range cats {
		var size int
		switch rng.Intn(3) {
		case 0:
			size = rng.Intn(4)
		case 1:
			size = rng.Intn(2*total/(t.N()+1) + 1)
		default:
			size = rng.Intn(max(1, 4*total/(t.N()+1)))
		}
		keys := make([]catalog.Key, 0, size)
		for len(keys) < size {
			k := rng.Intn(total * 8)
			if bit := uint64(1) << (k & 63); seen[k>>6]&bit == 0 {
				seen[k>>6] |= bit
				keys = append(keys, catalog.Key(k))
			}
		}
		for _, k := range keys {
			seen[k>>6] = 0
		}
		slices.Sort(keys)
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
		q, err := s.toEngineQuery(wq, sc)
		if err != nil {
			http.Error(w, fmt.Sprintf("query %d: %v", i, err), http.StatusBadRequest)
			return
		}
		sc.qs = append(sc.qs, q)
	}
	qs := sc.qs
	// The request context carries the client disconnect; the configured
	// per-request deadline stacks on top. Both reach the engine, which
	// checks them before each query. So does the correlation id (inbound
	// X-Request-ID honored, minted otherwise) that every span and flight
	// record of this request will carry.
	reqID := s.requestID(r)
	// One two-slot allocation carries this request's X-Request-Id header
	// and, once the body is encoded, its Content-Length. It is never
	// pooled: net/http writes a short body's headers after the handler
	// returns.
	hdr, vals := w.Header(), make([]string, 2)
	vals[0] = reqID
	hdr["X-Request-Id"] = vals[:1:1]
	ctx := obs.WithRequestID(r.Context(), reqID)
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	eng := s.eng.Load() // set before the server turned ready
	for lo := 0; lo < len(qs); lo += s.cfg.BatchSize {
		hi := min(lo+s.cfg.BatchSize, len(qs))
		answers, rep, err := eng.ExecuteBatchContext(ctx, qs[lo:hi])
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
	// A Content-Length keeps a body past net/http's 2,048-byte buffer from
	// going out chunked, which costs a write for the terminating chunk.
	vals[1] = strconv.Itoa(len(sc.out))
	hdr["Content-Type"] = jsonContentType
	hdr["Content-Length"] = vals[1:2:2]
	// A failed write means the client is gone; there is nobody to tell.
	_, _ = w.Write(sc.out)
}

// jsonContentType is the Content-Type of every /query response, shared
// read-only by their header maps; its capacity is 1, so a Header.Add
// copies it.
var jsonContentType = []string{"application/json"}

// toEngineQuery validates and converts one wire query. A catalog query's
// root path is appended to the request scratch, so it lives only as long
// as the request: no answer, span or flight record keeps it.
func (s *server) toEngineQuery(wq wireQuery, sc *queryScratch) (engine.Query, error) {
	switch wq.Kind {
	case "catalog":
		if wq.Shard < 0 || wq.Shard >= len(s.catalogs) {
			return engine.Query{}, fmt.Errorf("shard %d out of range [0, %d)", wq.Shard, len(s.catalogs))
		}
		f := s.catalogs[wq.Shard]
		if wq.Leaf < 0 || wq.Leaf >= int64(f.NumNodes()) {
			return engine.Query{}, fmt.Errorf("leaf %d out of range [0, %d)", wq.Leaf, f.NumNodes())
		}
		start := len(sc.paths)
		sc.paths = f.AppendRootPath(tree.NodeID(wq.Leaf), sc.paths)
		return engine.CatalogQuery(wq.Shard, catalog.Key(wq.Key), sc.paths[start:len(sc.paths):len(sc.paths)]), nil
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
		fmt.Fprintln(w, "ready")
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
	slices.Sort(labels) // deterministic output
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

// handleSpans streams spans as JSONL (one span per line), derived from
// the ring's flight records as they are written. Query params: replay=1
// first dumps the spans of the retained history and closes (add follow=1
// to keep tailing live spans afterwards, with no gap or overlap between
// the two); without replay=1 the stream is a live tail; limit=N closes the
// stream after N spans (0 = no cap).
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
	replay := r.URL.Query().Get("replay") == "1"
	var (
		history []obs.FlightRecord
		live    <-chan obs.FlightRecord
	)
	if replay && r.URL.Query().Get("follow") != "1" {
		// A pure replay closes after the history, so curl and tests
		// terminate without killing the connection.
		history = s.ring.Records()
	} else {
		var cancel func()
		history, live, cancel = s.ring.Subscribe()
		defer cancel()
		if !replay {
			history = nil
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	sent := 0
	var spans []obs.Span
	emit := func(rec *obs.FlightRecord) bool {
		spans = rec.AppendSpans(spans[:0])
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				return false
			}
			if sent++; limit > 0 && sent >= limit {
				return false
			}
		}
		return true
	}
	for i := range history {
		if !emit(&history[i]) {
			return
		}
	}
	flusher, _ := w.(http.Flusher)
	for live != nil {
		// Flush what is written before waiting: the headers first, or a
		// live tail with no history would leave the client blocked on the
		// status line until the first span arrives.
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case rec := <-live:
			if !emit(&rec) {
				return
			}
		}
	}
}
