// Package engine is the batched multi-query layer over the cooperative
// search structures: it accepts a stream of heterogeneous queries —
// iterative catalog-graph searches (internal/core), planar point location
// (internal/pointloc), and spatial point location (internal/spatial), all
// three served from their frozen layouts (internal/flat and the frozen
// locators) — groups them into batches, and executes each batch as one
// index-claim loop on the shared host executor (internal/workpool).
//
// The paper (Theorems 1–5) prices a *single* search with p processors.
// Under concurrent traffic the p processors are the contended resource, so
// the engine splits the budget per the same p-way cost model: a batch of b
// queries runs each query on a disjoint group of p = max(1, P/b)
// processors, concurrently, making the batch's parallel time the *maximum*
// per-query step count instead of the sum. Because a cooperative search
// takes O((log n)/log p) steps, shrinking p from P to P/b inflates a
// query only by the ratio log P / log(P/b) while b queries now finish per
// batch — throughput in queries/step grows almost linearly in b, which is
// exactly what experiment E20 measures.
//
// Two locality mechanisms ride on top. A per-shard LRU entry-point cache
// remembers recently resolved cascade entry positions keyed by query-path
// prefix (the entry node) and key interval; batches with key locality skip
// the top-of-skeleton entry rounds and pay one verification step. The
// catalog graph may also be sharded into independent substructures (one
// frozen flat.Structure per shard), which the pool serves concurrently
// with no shared state. Every served shard is immutable, so a cached entry
// never goes stale; hits still re-validate the hinted position in O(1)
// against the frozen catalog, so a wrong hint costs a full entry search,
// never a wrong answer. Live mutation stays in internal/dynamic, which
// callers drive directly.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/flat"
	"fraccascade/internal/geom"
	"fraccascade/internal/obs"
	"fraccascade/internal/pointloc"
	"fraccascade/internal/spatial"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// Kind identifies a query's target structure.
type Kind uint8

const (
	// KindCatalog is an iterative cooperative search on a catalog-graph
	// shard (key + root path).
	KindCatalog Kind = iota
	// KindPoint is planar point location in the engine's subdivision.
	KindPoint
	// KindSpatial is spatial point location in the engine's cell complex.
	KindSpatial
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCatalog:
		return "catalog"
	case KindPoint:
		return "point"
	case KindSpatial:
		return "spatial"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Query is one search request. Only the fields of its Kind are read.
type Query struct {
	Kind Kind
	// Shard routes a catalog query to a shard; 0 for unsharded engines.
	Shard int
	// Key and Path define a catalog query (Path starts at the shard root).
	Key  catalog.Key
	Path []tree.NodeID
	// Point is the planar point-location query.
	Point geom.Point
	// SX, SY, SZ are the spatial point-location coordinates.
	SX, SY, SZ int64
}

// CatalogQuery builds a catalog-graph query.
func CatalogQuery(shard int, y catalog.Key, path []tree.NodeID) Query {
	return Query{Kind: KindCatalog, Shard: shard, Key: y, Path: path}
}

// PointQuery builds a planar point-location query.
func PointQuery(pt geom.Point) Query { return Query{Kind: KindPoint, Point: pt} }

// SpatialQuery builds a spatial point-location query.
func SpatialQuery(x, y, z int64) Query { return Query{Kind: KindSpatial, SX: x, SY: y, SZ: z} }

// Answer is one query's result.
type Answer struct {
	// Query echoes the request.
	Query Query
	// P is the processor share the query ran with.
	P int
	// Steps is the simulated parallel time of this query.
	Steps int
	// CacheHit reports whether a catalog query entered through the
	// entry-point cache.
	CacheHit bool
	// CacheStale reports a cache lookup that hit but whose hinted position
	// failed O(1) revalidation against the frozen catalog; the query fell
	// back to the full entry search, so CacheHit is false. Served shards
	// are immutable, so this flags a wrong cache entry, never a wrong
	// answer.
	CacheStale bool
	// PhaseSteps decomposes Steps by algorithm phase per the Stats cost
	// model, one slot per PhaseLabels entry — catalog and planar queries:
	// "root-coop" (Step-1 cooperative rounds), "hop-descent" (block-jump
	// steps), "seq-tail" (sequential levels); spatial queries: "discrim"
	// (per-node discrimination rounds) and "descent" (the rest). Slots are
	// non-negative and sum to Steps; phases a query does not have stay 0.
	// All zero on error.
	PhaseSteps [len(PhaseLabels)]int
	// Rounds is the query's cooperative root-search round count (catalog
	// and planar queries: Stats.RootRounds; spatial: the summed per-node
	// discrimination rounds) — the quantity the entry cache absorbs.
	Rounds int
	// Results holds find(y, v) per path node for catalog queries.
	Results []cascade.Result
	// Region is the located region for point queries (1-based).
	Region int
	// Cell is the located cell for spatial queries (1-based).
	Cell int
	// Err is the per-query failure, nil on success.
	Err error
	// RequestID is the serving-layer correlation id carried by the batch
	// context (obs.WithRequestID); empty when the caller attached none.
	RequestID string
	// WallNS is the query's host wall time in nanoseconds, measured only
	// when a flight recorder is attached (Config.Recorder); 0 otherwise —
	// the uninstrumented hot path takes no clock readings per query.
	WallNS int64
}

// BatchReport summarises one executed batch.
type BatchReport struct {
	// B is the batch size and PTotal the engine's processor budget.
	B, PTotal int
	// PShare is the per-query processor group size max(1, PTotal/B).
	PShare int
	// Steps is the batch's parallel time: the maximum per-query step
	// count (queries run concurrently on disjoint processor groups).
	Steps int
	// CacheHits and CacheMisses count catalog queries by entry outcome.
	CacheHits, CacheMisses int
	// Errors counts failed queries.
	Errors int
}

// Throughput returns the batch's queries/step (0 for an empty batch).
func (r BatchReport) Throughput() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.B) / float64(r.Steps)
}

// Config parameterises an Engine.
type Config struct {
	// Procs is the total simulated processor budget P shared by each
	// batch (required, ≥ 1).
	Procs int
	// BatchSize is the grouping size b used by Submit/Flush (default 16).
	BatchSize int
	// CacheSize is the per-shard entry-point cache capacity: 0 selects
	// the default (256), negative disables caching.
	CacheSize int
	// Workers caps the host goroutines running one batch (default
	// GOMAXPROCS); 1 runs each batch inline in query order.
	Workers int
	// Obs, when non-nil, mirrors engine, pool, and cache counters into
	// the registry (see Metrics for the authoritative per-engine view and
	// internal/obs for the metric-name inventory). Nil disables metrics
	// with zero hot-path cost.
	Obs *obs.Registry
	// Tracer, when non-nil, receives one obs.FlightRecord per executed
	// query (batched path only), the record the Recorder gets. It must be
	// safe for concurrent Emit calls.
	Tracer obs.Tracer
	// Recorder, when non-nil, retains per-query flight records (batched
	// path only): request id, shard, kind, host wall ns, phase steps,
	// cache outcome, and error text, under the recorder's tail-sampling
	// keep policy. Also enables per-query wall timing (see Answer.WallNS).
	// Nil disables recording with zero hot-path cost.
	Recorder *obs.FlightRecorder
}

// defaultCacheSize is the per-shard entry cache capacity when unset.
const defaultCacheSize = 256

// defaultBatchSize is the Submit/Flush grouping size when unset.
const defaultBatchSize = 16

// Engine executes batched heterogeneous queries; construct with New or
// NewFrozen. All methods are safe for concurrent use: every structure it
// serves is frozen and immutable.
type Engine struct {
	cfg    Config
	shards []*flat.Structure
	caches []*entryCache
	pl     *pointloc.Frozen
	sp     *spatial.Frozen
	pool   *workpool.Pool
	// plScratch and spScratch pool the per-query scratch of the frozen
	// locators across the executor's workers.
	plScratch sync.Pool // *pointloc.Scratch
	spScratch sync.Pool // *spatial.Scratch

	mu      sync.Mutex
	pending []Query
	queries uint64
	batches uint64
	errors  uint64
	steps   uint64

	// Observability (all handles nil-safe; see Config.Obs / Config.Tracer).
	tracer    obs.Tracer
	recorder  *obs.FlightRecorder
	qid       atomic.Uint64 // engine-unique query and phase span ids
	bid       atomic.Uint64 // engine-unique batch ids
	obsBatch  *obs.Counter
	obsQuery  *obs.Counter
	obsErr    *obs.Counter
	obsKind   [3]*obs.Counter // indexed by Kind
	obsShardQ []*obs.Counter  // per-shard catalog query counts
	obsSteps  *obs.Histogram  // batch parallel time
	obsSize   *obs.Histogram  // batch size
	obsWall   *obs.Histogram  // host wall time per batch, ns
	obsPhase  []*obs.Counter  // indexed like PhaseLabels
}

// PhaseLabels names the slots of Answer.PhaseSteps. Its order fixes the
// order of a flight record's phases (and so of its derived child spans)
// and the counter set created in New: first the catalog/planar
// decomposition, then the spatial one.
var PhaseLabels = [...]string{"root-coop", "hop-descent", "seq-tail", "discrim", "descent"}

// Slots of Answer.PhaseSteps.
const (
	phaseRootCoop = iota
	phaseHopDescent
	phaseSeqTail
	phaseDiscrim
	phaseDescent
)

// New builds an engine over the given pointer structures: it freezes each
// catalog shard and locator it is given, on all cores, and delegates to
// NewFrozen, so the pointer structures themselves are not retained. Any
// backend may be absent (nil locators, empty shard list); queries of an
// unserved kind fail individually with a routing error.
func New(cfg Config, shards []*core.Structure, pl *pointloc.Locator, sp *spatial.Locator) (*Engine, error) {
	var (
		frozen = make([]*flat.Structure, len(shards))
		fpl    *pointloc.Frozen
		fsp    *spatial.Frozen
		err    error
	)
	for i, st := range shards {
		if st == nil {
			return nil, fmt.Errorf("engine: shard %d is nil", i)
		}
		if frozen[i], err = flat.FreezeParallel(st, 0); err != nil {
			return nil, fmt.Errorf("engine: freeze shard %d: %w", i, err)
		}
	}
	if pl != nil {
		if fpl, err = pl.Freeze(0); err != nil {
			return nil, fmt.Errorf("engine: freeze planar locator: %w", err)
		}
	}
	if sp != nil {
		if fsp, err = sp.Freeze(); err != nil {
			return nil, fmt.Errorf("engine: freeze spatial locator: %w", err)
		}
	}
	return NewFrozen(cfg, frozen, fpl, fsp)
}

// NewFrozen builds an engine over frozen catalog shards and frozen
// locators, the only layouts the engine serves. Any backend may be absent
// (nil locators, empty shard list); queries of an unserved kind fail
// individually with a routing error.
func NewFrozen(cfg Config, shards []*flat.Structure, pl *pointloc.Frozen, sp *spatial.Frozen) (*Engine, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("engine: processor budget must be positive, got %d", cfg.Procs)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = defaultBatchSize
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("engine: batch size must be positive, got %d", cfg.BatchSize)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = defaultCacheSize
	}
	for i, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("engine: shard %d is nil", i)
		}
	}
	e := &Engine{
		cfg:      cfg,
		shards:   shards,
		caches:   make([]*entryCache, len(shards)),
		pl:       pl,
		sp:       sp,
		pool:     workpool.New(cfg.Workers),
		tracer:   cfg.Tracer,
		recorder: cfg.Recorder,
	}
	if pl != nil {
		e.plScratch.New = func() any { return pl.NewScratch() }
	}
	if sp != nil {
		e.spScratch.New = func() any { return sp.NewScratch() }
	}
	for i := range e.caches {
		e.caches[i] = newEntryCache(cfg.CacheSize, cfg.Obs, i)
	}
	if r := cfg.Obs; r != nil {
		e.obsBatch = r.Counter("engine.batches")
		e.obsQuery = r.Counter("engine.queries")
		e.obsErr = r.Counter("engine.errors")
		for k := KindCatalog; k <= KindSpatial; k++ {
			e.obsKind[k] = r.Counter("engine.queries." + k.String())
		}
		e.obsShardQ = make([]*obs.Counter, len(shards))
		for i := range shards {
			e.obsShardQ[i] = r.Counter(fmt.Sprintf("engine.shard.%d.queries", i))
		}
		e.obsSteps = r.Histogram("engine.batch.steps")
		e.obsSize = r.Histogram("engine.batch.size")
		e.obsWall = r.Histogram("engine.batch.wall_ns")
		e.obsPhase = make([]*obs.Counter, len(PhaseLabels))
		for i, label := range PhaseLabels {
			e.obsPhase[i] = r.Counter("engine.phase." + label + ".steps")
		}
		// Pool and queue depths are pulled at snapshot time rather than
		// mirrored per event — the pool's own atomics stay the ground
		// truth and the batch hot path is untouched.
		r.RegisterFunc("engine.pool.workers", func() int64 { return int64(e.pool.Workers()) })
		r.RegisterFunc("engine.pool.tasks", e.pool.Tasks)
		r.RegisterFunc("engine.pending", func() int64 { return int64(e.Pending()) })
	}
	return e, nil
}

// NumShards returns the number of catalog shards.
func (e *Engine) NumShards() int { return len(e.shards) }

// Pool exposes the engine's executor handle (for metrics).
func (e *Engine) Pool() *workpool.Pool { return e.pool }

// ExecuteBatch runs the queries as one batch: each gets a disjoint group of
// max(1, Procs/len(qs)) simulated processors and all run concurrently on
// the pool. Per-query failures land in the answers; the error return is
// reserved for empty batches.
func (e *Engine) ExecuteBatch(qs []Query) ([]Answer, BatchReport, error) {
	return e.execute(nil, qs)
}

// ExecuteBatchContext is ExecuteBatch honouring cancellation and deadlines:
// ctx is checked before each query starts, so a fired context surfaces
// promptly as per-query errors (counted in the report) rather than hanging
// the batch. Every search runs in microseconds host-side on a frozen
// layout, so the check before the query is the only one. A nil ctx is
// behaviourally identical to ExecuteBatch.
func (e *Engine) ExecuteBatchContext(ctx context.Context, qs []Query) ([]Answer, BatchReport, error) {
	return e.execute(ctx, qs)
}

// execute runs one batch; a nil ctx selects the plain search paths.
func (e *Engine) execute(ctx context.Context, qs []Query) ([]Answer, BatchReport, error) {
	if len(qs) == 0 {
		return nil, BatchReport{}, fmt.Errorf("engine: empty batch")
	}
	var wallStart time.Time
	if e.obsWall != nil {
		wallStart = time.Now()
	}
	pShare := e.cfg.Procs / len(qs)
	if pShare < 1 {
		pShare = 1
	}
	answers := make([]Answer, len(qs))
	e.pool.Run(len(qs), func(i int) { answers[i] = e.runQuery(ctx, qs[i], pShare, true) })
	if reqID := obs.RequestIDFrom(ctx); reqID != "" {
		for i := range answers {
			answers[i].RequestID = reqID
		}
	}
	rep := BatchReport{B: len(qs), PTotal: e.cfg.Procs, PShare: pShare}
	for i := range answers {
		if answers[i].Steps > rep.Steps {
			rep.Steps = answers[i].Steps
		}
		if answers[i].Err != nil {
			rep.Errors++
		} else if answers[i].Query.Kind == KindCatalog {
			if answers[i].CacheHit {
				rep.CacheHits++
			} else {
				rep.CacheMisses++
			}
		}
	}
	e.mu.Lock()
	stepBase := e.steps
	e.queries += uint64(len(qs))
	e.batches++
	e.errors += uint64(rep.Errors)
	e.steps += uint64(rep.Steps)
	e.mu.Unlock()
	e.observeBatch(answers, rep, stepBase, wallStart)
	return answers, rep, nil
}

// observeBatch mirrors a finished batch into the metrics registry and
// hands one flight record per query to the recorder and the tracer. Every
// handle is a nil-safe no-op, so with observability disabled this is a
// handful of nil checks.
func (e *Engine) observeBatch(answers []Answer, rep BatchReport, stepBase uint64, wallStart time.Time) {
	e.obsBatch.Inc()
	e.obsQuery.Add(int64(rep.B))
	e.obsErr.Add(int64(rep.Errors))
	e.obsSteps.Observe(int64(rep.Steps))
	e.obsSize.Observe(int64(rep.B))
	var end time.Time
	if e.obsWall != nil {
		end = time.Now()
		e.obsWall.Observe(end.Sub(wallStart).Nanoseconds())
	}
	for i := range answers {
		q := answers[i].Query
		if q.Kind <= KindSpatial {
			e.obsKind[q.Kind].Inc()
		}
		if q.Kind == KindCatalog && e.obsShardQ != nil && q.Shard >= 0 && q.Shard < len(e.obsShardQ) {
			e.obsShardQ[q.Shard].Inc()
		}
		if e.obsPhase != nil {
			for slot, n := range answers[i].PhaseSteps {
				if n > 0 {
					e.obsPhase[slot].Add(int64(n))
				}
			}
		}
	}
	if e.tracer == nil && e.recorder == nil {
		return
	}
	// Records of one batch share the batch id and the batch's base on the
	// engine's cumulative step clock: each query occupied [stepBase,
	// stepBase+Steps) of the batch's [stepBase, stepBase+rep.Steps) window,
	// concurrently on its own processor group. Each record reserves one id
	// for itself and one per phase, the ids of the phase child spans
	// derived from it. Only the recorder needs the wall-clock stamp, taken
	// once per batch.
	var stamp int64
	if e.recorder != nil {
		if end.IsZero() {
			end = time.Now()
		}
		stamp = end.UnixNano()
	}
	bid := e.bid.Add(1)
	for i := range answers {
		a := &answers[i]
		rec := obs.FlightRecord{
			Batch:     bid,
			RequestID: a.RequestID,
			Time:      stamp,
			Kind:      a.Query.Kind.String(),
			Shard:     a.Query.Shard,
			P:         a.P,
			Steps:     a.Steps,
			StepLo:    stepBase,
			Rounds:    a.Rounds,
			WallNS:    a.WallNS,
		}
		switch {
		case a.Err != nil:
			rec.Err = a.Err.Error()
		case a.Query.Kind != KindCatalog: // no entry cache
		case a.CacheHit:
			rec.Cache = "hit"
		case a.CacheStale:
			rec.Cache = "stale"
		default:
			rec.Cache = "miss"
		}
		phases := 0
		for slot, label := range PhaseLabels {
			if n := a.PhaseSteps[slot]; n > 0 && phases < len(rec.Phases) {
				rec.Phases[phases] = obs.PhaseCount{Label: label, Steps: n}
				phases++
			}
		}
		rec.ID = e.qid.Add(uint64(1+phases)) - uint64(phases)
		e.recorder.Record(&rec)
		if e.tracer != nil {
			e.tracer.Emit(rec)
		}
	}
}

// ExecuteSequential runs the queries one at a time, each with the full
// processor budget and no entry cache — the one-query-at-a-time baseline
// batched execution is measured against. The returned total is the sum of
// per-query steps (queries occupy the machine back to back).
func (e *Engine) ExecuteSequential(qs []Query) ([]Answer, int, error) {
	if len(qs) == 0 {
		return nil, 0, fmt.Errorf("engine: empty query list")
	}
	answers := make([]Answer, len(qs))
	total := 0
	for i := range qs {
		answers[i] = e.runQuery(nil, qs[i], e.cfg.Procs, false)
		total += answers[i].Steps
	}
	return answers, total, nil
}

// Submit enqueues a query for the next Flush.
func (e *Engine) Submit(q Query) {
	e.mu.Lock()
	e.pending = append(e.pending, q)
	e.mu.Unlock()
}

// Pending returns the number of queued queries.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// Flush drains the submission queue in batches of Config.BatchSize,
// returning all answers in submission order with one report per batch.
func (e *Engine) Flush() ([]Answer, []BatchReport, error) {
	e.mu.Lock()
	qs := e.pending
	e.pending = nil
	e.mu.Unlock()
	var answers []Answer
	var reports []BatchReport
	for lo := 0; lo < len(qs); lo += e.cfg.BatchSize {
		hi := lo + e.cfg.BatchSize
		if hi > len(qs) {
			hi = len(qs)
		}
		ans, rep, err := e.ExecuteBatch(qs[lo:hi])
		if err != nil {
			return answers, reports, err
		}
		answers = append(answers, ans...)
		reports = append(reports, rep)
	}
	return answers, reports, nil
}

// catalogPhases decomposes a catalog/planar search's step count by the
// Stats identity Steps = RootRounds + hop steps + SeqLevels (checked by
// the cost-model tests); negative components clamp to 0, the slot value
// that spans, records and the wire all read as "phase absent".
func catalogPhases(s core.Stats) (ph [len(PhaseLabels)]int) {
	ph[phaseRootCoop] = max(s.RootRounds, 0)
	ph[phaseHopDescent] = max(s.Steps-s.RootRounds-s.SeqLevels, 0)
	ph[phaseSeqTail] = max(s.SeqLevels, 0)
	return ph
}

// spatialPhases decomposes a spatial location into the per-node planar
// discrimination rounds and the remaining descent steps.
func spatialPhases(s spatial.Stats) (ph [len(PhaseLabels)]int) {
	discrim := min(s.DiscrimRounds, s.Steps)
	ph[phaseDiscrim] = max(discrim, 0)
	ph[phaseDescent] = max(s.Steps-discrim, 0)
	return ph
}

// runQuery executes one query with processor share p. useCache gates the
// entry-point cache (the sequential baseline runs without it). A non-nil
// ctx is checked up front; every search is a frozen one that runs in
// microseconds host-side, so that check is the only one.
func (e *Engine) runQuery(ctx context.Context, q Query, p int, useCache bool) (a Answer) {
	a = Answer{Query: q, P: p}
	// Per-query clock readings are paid only when a flight recorder wants
	// the wall time; the uninstrumented path stays free of time syscalls.
	if e.recorder != nil {
		wallStart := time.Now()
		defer func() { a.WallNS = time.Since(wallStart).Nanoseconds() }()
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			a.Err = err
			return a
		}
	}
	switch q.Kind {
	case KindCatalog:
		e.runCatalog(&a, q, p, useCache)
	case KindPoint:
		if e.pl == nil {
			a.Err = fmt.Errorf("engine: no point-location backend configured")
			return a
		}
		sc := e.plScratch.Get().(*pointloc.Scratch)
		region, stats, err := e.pl.LocateCoopInto(q.Point, p, sc)
		e.plScratch.Put(sc)
		a.Region, a.Steps, a.Rounds, a.Err = region, stats.Steps, stats.RootRounds, err
		if err == nil {
			a.PhaseSteps = catalogPhases(stats)
		}
	case KindSpatial:
		if e.sp == nil {
			a.Err = fmt.Errorf("engine: no spatial backend configured")
			return a
		}
		sc := e.spScratch.Get().(*spatial.Scratch)
		cell, stats, err := e.sp.LocateCoopInto(q.SX, q.SY, q.SZ, p, sc)
		e.spScratch.Put(sc)
		a.Cell, a.Steps, a.Rounds, a.Err = cell, stats.Steps, stats.DiscrimRounds, err
		if err == nil {
			a.PhaseSteps = spatialPhases(stats)
		}
	default:
		a.Err = fmt.Errorf("engine: unknown query kind %d", q.Kind)
	}
	return a
}

// runCatalog executes a catalog query, consulting and filling the shard's
// entry cache.
func (e *Engine) runCatalog(a *Answer, q Query, p int, useCache bool) {
	if q.Shard < 0 || q.Shard >= len(e.shards) {
		a.Err = fmt.Errorf("engine: catalog shard %d out of range [0, %d)", q.Shard, len(e.shards))
		return
	}
	if len(q.Path) == 0 {
		a.Err = fmt.Errorf("engine: catalog query with empty path")
		return
	}
	f := e.shards[q.Shard]
	cache := e.caches[q.Shard]
	if useCache {
		if pos, ok := cache.lookup(q.Path[0], q.Key); ok {
			results, stats, used, err := f.SearchExplicitWithEntry(q.Key, q.Path, p, pos)
			a.Results, a.Steps, a.Rounds, a.Err = results, stats.Steps, stats.RootRounds, err
			if err == nil {
				a.PhaseSteps = catalogPhases(stats)
			}
			if used {
				a.CacheHit = true
				return
			}
			a.CacheStale = true
			// The hint failed validation: the full entry search already
			// ran inside SearchExplicitWithEntry, so the answer stands;
			// just refresh the cached slot below.
			if err != nil {
				return
			}
			fillEntry(f, cache, q)
			return
		}
	}
	results, stats, err := f.SearchExplicit(q.Key, q.Path, p)
	a.Results, a.Steps, a.Rounds, a.Err = results, stats.Steps, stats.RootRounds, err
	if err == nil {
		a.PhaseSteps = catalogPhases(stats)
		if useCache {
			fillEntry(f, cache, q)
		}
	}
}

// fillEntry caches the entry interval resolved for q. Host-side: it redoes
// the O(log n) successor probe the search performed, which the PRAM cost
// model already charged.
func fillEntry(f *flat.Structure, cache *entryCache, q Query) {
	pos := f.EntryProbe(q.Path[0], q.Key)
	lo, hi, err := f.EntryInterval(q.Path[0], pos)
	if err != nil {
		return
	}
	cache.insert(q.Path[0], lo, hi, pos)
}

// Metrics is a point-in-time snapshot of engine counters.
type Metrics struct {
	// Queries, Batches, Errors count since construction; StepsTotal sums
	// batch parallel times.
	Queries, Batches, Errors, StepsTotal uint64
	// Cache holds one snapshot per shard.
	Cache []CacheStats
	// Tasks counts the queries the executor has run.
	Tasks int64
}

// Metrics returns current counters.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	m := Metrics{Queries: e.queries, Batches: e.batches, Errors: e.errors, StepsTotal: e.steps}
	e.mu.Unlock()
	for _, c := range e.caches {
		m.Cache = append(m.Cache, c.statsSnapshot())
	}
	m.Tasks = e.pool.Tasks()
	return m
}

// CacheStatsFor returns shard i's cache snapshot.
func (e *Engine) CacheStatsFor(i int) CacheStats {
	if i < 0 || i >= len(e.caches) {
		return CacheStats{}
	}
	return e.caches[i].statsSnapshot()
}
