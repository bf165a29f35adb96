// Package engine is the batched multi-query layer over the cooperative
// search structures: it accepts a stream of heterogeneous queries —
// iterative catalog-graph searches (internal/core, internal/dynamic),
// planar point location (internal/pointloc), and spatial point location
// (internal/spatial) — groups them into batches, and executes each batch
// as one index-claim loop on the shared host executor (internal/workpool).
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
// catalog graph may also be sharded into independent substructures
// (CatalogBackend per shard), which the pool serves concurrently with no
// shared state. Dynamic backends invalidate the cache across Flush via the
// generation counter of internal/dynamic; hits additionally re-validate
// the hinted position in O(1) against the live catalog, so a stale hit is
// impossible even if a generation check were bypassed.
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
	// Shard routes a catalog query to a backend; 0 for unsharded engines.
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
	// failed O(1) revalidation (a flush raced the lookup); the query fell
	// back to the full entry search, so CacheHit is false.
	CacheStale bool
	// FingerHit reports a catalog query whose exact cache lookup missed
	// but which entered by galloping from a nearby cached entry position
	// (distance-sensitive finger search, Config.FingerCache). CacheHit is
	// false — the finger makes the miss path cheap, it is not a hit.
	FingerHit bool
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
	// FingerDist is the key distance d between the query key and the
	// cached finger entry a FingerHit galloped from (the O(log d) cost
	// driver); 0 unless FingerHit.
	FingerDist int64
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
	// FingerHits counts the subset of CacheMisses served by galloping from
	// a nearby cached entry (Config.FingerCache).
	FingerHits int
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
	// Tracer, when non-nil, receives one obs.Span per executed query
	// (batched path only). It must be safe for concurrent Emit calls.
	Tracer obs.Tracer
	// Recorder, when non-nil, retains per-query flight records (batched
	// path only): request id, shard, kind, host wall ns, phase steps,
	// cache outcome, finger distance, and error text, under the recorder's
	// tail-sampling keep policy. Also enables per-query wall timing (see
	// Answer.WallNS). Nil disables recording with zero hot-path cost.
	Recorder *obs.FlightRecorder
	// Flat serves every catalog shard from its frozen flat layout
	// (internal/flat) instead of the pointer structures: each shard is
	// wrapped in a FlatShard at construction, so answers and Stats stay
	// bit-identical while the hot path runs allocation-free on index
	// arrays. Requires every shard to implement FlatSource.
	Flat bool
	// BuildParallelism bounds the host workers used when Flat shards freeze
	// or refreeze the pointer structure (0 = all cores, 1 = sequential).
	// The frozen layout is bit-identical for every value.
	BuildParallelism int
	// FingerCache upgrades the entry cache to distance-sensitive finger
	// search: when a lookup misses exactly but a cached entry exists near
	// the key on the same entry node, the search gallops from that finger
	// position in O(log d) probes for key-distance d instead of paying the
	// full O(log n) cooperative root search. Answers stay oracle-exact;
	// only the charged entry rounds shrink. Off by default.
	FingerCache bool
	// FrozenSpatial, under Flat, preloads the spatial locator's frozen
	// layout (a decoded snapshot-sidecar blob) instead of freezing at
	// construction. A shape mismatch with the locator fails New — callers
	// restoring from an untrusted sidecar should validate first and fall
	// back to a nil FrozenSpatial. Ignored unless Flat is set and a
	// locator is supplied.
	FrozenSpatial *spatial.Frozen
}

// defaultCacheSize is the per-shard entry cache capacity when unset.
const defaultCacheSize = 256

// defaultBatchSize is the Submit/Flush grouping size when unset.
const defaultBatchSize = 16

// Engine executes batched heterogeneous queries; construct with New. All
// methods are safe for concurrent use, but mutations to dynamic backends
// must be serialised with batch execution by the caller (the backends
// themselves are single-writer structures).
type Engine struct {
	cfg    Config
	shards []CatalogBackend
	caches []*entryCache
	pl     *pointloc.Locator
	sp     spatialBackend
	pool   *workpool.Pool

	mu      sync.Mutex
	pending []Query
	queries uint64
	batches uint64
	errors  uint64
	steps   uint64

	// Observability (all handles nil-safe; see Config.Obs / Config.Tracer).
	tracer    obs.Tracer
	recorder  *obs.FlightRecorder
	qid       atomic.Uint64 // engine-unique query ids for spans
	bid       atomic.Uint64 // engine-unique batch ids for spans
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
// emission order of per-phase child spans and the counter set created in
// New: first the catalog/planar decomposition, then the spatial one.
var PhaseLabels = [...]string{"root-coop", "hop-descent", "seq-tail", "discrim", "descent"}

// Slots of Answer.PhaseSteps.
const (
	phaseRootCoop = iota
	phaseHopDescent
	phaseSeqTail
	phaseDiscrim
	phaseDescent
)

// New builds an engine over the given shards and locators. Any backend may
// be absent (nil locators, empty shard list); queries of an unserved kind
// fail individually with a routing error.
func New(cfg Config, shards []CatalogBackend, pl *pointloc.Locator, sp *spatial.Locator) (*Engine, error) {
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
	if cfg.Flat {
		// Build a fresh slice so the caller's backing array is untouched.
		// Shards the caller already wrapped (coopserve's sidecar preload
		// path) pass through untouched, so Flat is idempotent.
		wrapped := make([]CatalogBackend, len(shards))
		for i, s := range shards {
			if fs, ok := s.(*FlatShard); ok {
				wrapped[i] = fs
				continue
			}
			fs, err := NewFlatShardParallel(s, cfg.BuildParallelism)
			if err != nil {
				return nil, fmt.Errorf("engine: flat shard %d: %w", i, err)
			}
			wrapped[i] = fs
		}
		shards = wrapped
	}
	if cfg.BuildParallelism > 0 {
		// Shards pre-wrapped by the caller (coopserve's snapshot preload
		// path) adopt the engine's refreeze parallelism too.
		for _, s := range shards {
			if fs, ok := s.(*FlatShard); ok {
				fs.SetBuildParallelism(cfg.BuildParallelism)
			}
		}
	}
	// The spatial locator goes through the same flat unification as the
	// catalog shards: under Config.Flat it is served from its frozen twin,
	// preloaded from a sidecar when the caller provides one.
	var spb spatialBackend
	if sp != nil {
		spb = sp
		if cfg.Flat {
			var fsp *FlatSpatial
			var err error
			if cfg.FrozenSpatial != nil {
				fsp, err = NewFlatSpatialFrom(sp, cfg.FrozenSpatial)
			} else {
				fsp, err = NewFlatSpatial(sp)
			}
			if err != nil {
				return nil, err
			}
			spb = fsp
		}
	}
	e := &Engine{
		cfg:      cfg,
		shards:   shards,
		caches:   make([]*entryCache, len(shards)),
		pl:       pl,
		sp:       spb,
		pool:     workpool.New(cfg.Workers),
		tracer:   cfg.Tracer,
		recorder: cfg.Recorder,
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
// ctx is checked before each query starts and threaded into the
// context-aware search paths of every backend kind, so a fired context
// surfaces promptly as per-query errors (counted in the report) rather
// than hanging the batch. A nil ctx runs the plain uncancellable path and
// is behaviourally identical to ExecuteBatch. Cache-hit catalog entries
// stay uncancellable — the hinted search skips the expensive cooperative
// rounds the context guard exists to bound.
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
				if answers[i].FingerHit {
					rep.FingerHits++
				}
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
// emits one span per query. Every handle is a nil-safe no-op, so with
// observability disabled this is a handful of nil checks.
func (e *Engine) observeBatch(answers []Answer, rep BatchReport, stepBase uint64, wallStart time.Time) {
	e.obsBatch.Inc()
	e.obsQuery.Add(int64(rep.B))
	e.obsErr.Add(int64(rep.Errors))
	e.obsSteps.Observe(int64(rep.Steps))
	e.obsSize.Observe(int64(rep.B))
	if e.obsWall != nil {
		e.obsWall.Observe(time.Since(wallStart).Nanoseconds())
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
	// Spans of one batch share the batch id and overlap on the engine's
	// cumulative step clock: each query occupied [stepBase, stepBase+Steps)
	// of the batch's [stepBase, stepBase+rep.Steps) window, concurrently on
	// its own processor group. Flight records share the span's query id so
	// a slowlog entry correlates with /spans output.
	bid := e.bid.Add(1)
	for i := range answers {
		a := &answers[i]
		qid := e.qid.Add(1)
		var cacheOutcome, errText string
		if a.Query.Kind == KindCatalog && a.Err == nil {
			switch {
			case a.CacheHit:
				cacheOutcome = "hit"
			case a.CacheStale:
				cacheOutcome = "stale"
			case a.FingerHit:
				cacheOutcome = "finger"
			default:
				cacheOutcome = "miss"
			}
		}
		if a.Err != nil {
			errText = a.Err.Error()
		}
		if e.recorder != nil {
			rec := obs.FlightRecord{
				ID:        qid,
				Batch:     bid,
				RequestID: a.RequestID,
				Kind:      a.Query.Kind.String(),
				Shard:     a.Query.Shard,
				P:         a.P,
				Steps:     a.Steps,
				Rounds:    a.Rounds,
				WallNS:    a.WallNS,
				Cache:     cacheOutcome,
				FingerD:   a.FingerDist,
				Err:       errText,
			}
			pi := 0
			for slot, label := range PhaseLabels {
				if n := a.PhaseSteps[slot]; n > 0 && pi < len(rec.Phases) {
					rec.Phases[pi] = obs.PhaseCount{Label: label, Steps: n}
					pi++
				}
			}
			e.recorder.Record(&rec)
		}
		if e.tracer == nil {
			continue
		}
		s := obs.Span{
			ID:        qid,
			Batch:     bid,
			Kind:      a.Query.Kind.String(),
			Shard:     a.Query.Shard,
			P:         a.P,
			Rounds:    a.Rounds,
			Steps:     a.Steps,
			StepLo:    stepBase,
			StepHi:    stepBase + uint64(a.Steps),
			Cache:     cacheOutcome,
			CacheHit:  a.CacheHit,
			Err:       errText,
			RequestID: a.RequestID,
		}
		e.tracer.Emit(s)
		// Per-phase child spans partition the parent's window in the fixed
		// phase order, each carrying the parent's id.
		off := s.StepLo
		for slot, label := range PhaseLabels {
			n := a.PhaseSteps[slot]
			if n == 0 {
				continue
			}
			e.tracer.Emit(obs.Span{
				ID:        e.qid.Add(1),
				Batch:     bid,
				Parent:    s.ID,
				Kind:      s.Kind,
				Shard:     s.Shard,
				Phase:     label,
				P:         a.P,
				Steps:     n,
				StepLo:    off,
				StepHi:    off + uint64(n),
				RequestID: a.RequestID,
			})
			off += uint64(n)
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
// entry-point cache (the sequential baseline runs without it). A nil ctx
// selects the plain uncancellable search paths; a non-nil ctx is checked
// up front and threaded into each backend's context-aware variant.
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
		e.runCatalog(ctx, &a, q, p, useCache)
	case KindPoint:
		if e.pl == nil {
			a.Err = fmt.Errorf("engine: no point-location backend configured")
			return a
		}
		var (
			region int
			stats  core.Stats
			err    error
		)
		if ctx != nil {
			region, stats, err = e.pl.LocateCoopContext(ctx, q.Point, p)
		} else {
			region, stats, err = e.pl.LocateCoop(q.Point, p)
		}
		a.Region, a.Steps, a.Rounds, a.Err = region, stats.Steps, stats.RootRounds, err
		if err == nil {
			a.PhaseSteps = catalogPhases(stats)
		}
	case KindSpatial:
		if e.sp == nil {
			a.Err = fmt.Errorf("engine: no spatial backend configured")
			return a
		}
		var (
			cell  int
			stats spatial.Stats
			err   error
		)
		if ctx != nil {
			cell, stats, err = e.sp.LocateCoopContext(ctx, q.SX, q.SY, q.SZ, p)
		} else {
			cell, stats, err = e.sp.LocateCoop(q.SX, q.SY, q.SZ, p)
		}
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
// entry cache. A non-nil ctx makes the cache-miss search cancellable; the
// cache-hit path runs uncancellable because the hint already skips the
// cooperative entry rounds the guard exists to bound.
func (e *Engine) runCatalog(ctx context.Context, a *Answer, q Query, p int, useCache bool) {
	if q.Shard < 0 || q.Shard >= len(e.shards) {
		a.Err = fmt.Errorf("engine: catalog shard %d out of range [0, %d)", q.Shard, len(e.shards))
		return
	}
	if len(q.Path) == 0 {
		a.Err = fmt.Errorf("engine: catalog query with empty path")
		return
	}
	be := e.shards[q.Shard]
	cache := e.caches[q.Shard]
	if useCache {
		gen := be.Generation()
		if pos, ok := cache.lookup(q.Path[0], q.Key, gen); ok {
			results, stats, used, err := be.SearchExplicitWithEntry(q.Key, q.Path, p, pos)
			a.Results, a.Steps, a.Rounds, a.Err = results, stats.Steps, stats.RootRounds, err
			if err == nil {
				a.PhaseSteps = catalogPhases(stats)
			}
			if used {
				a.CacheHit = true
				return
			}
			a.CacheStale = true
			// The hint failed validation (a flush raced between the
			// generation read and the search): the full entry search
			// already ran inside SearchExplicitWithEntry, so the answer
			// stands; just refresh the cached slot below.
			if err != nil {
				return
			}
			e.fillEntry(be, cache, q)
			return
		}
		if e.cfg.FingerCache {
			if finger, dist, ok := cache.nearest(q.Path[0], q.Key, gen); ok {
				// Exact miss with a nearby cached entry: gallop from the
				// finger instead of paying the cooperative root search.
				// Like the hit path this runs uncancellable — the gallop
				// already skips the rounds the context guard bounds.
				results, stats, used, err := be.SearchExplicitFromFinger(q.Key, q.Path, p, finger)
				a.Results, a.Steps, a.Rounds, a.Err = results, stats.Steps, stats.RootRounds, err
				if err == nil {
					a.PhaseSteps = catalogPhases(stats)
					e.fillEntry(be, cache, q)
				}
				if used {
					a.FingerHit = true
					a.FingerDist = int64(dist)
					cache.fingerHit()
				}
				return
			}
		}
	}
	var (
		results []cascade.Result
		stats   core.Stats
		err     error
	)
	if ctx != nil {
		results, stats, err = be.SearchExplicitContext(ctx, q.Key, q.Path, p)
	} else {
		results, stats, err = be.SearchExplicit(q.Key, q.Path, p)
	}
	a.Results, a.Steps, a.Rounds, a.Err = results, stats.Steps, stats.RootRounds, err
	if err == nil {
		a.PhaseSteps = catalogPhases(stats)
		if useCache {
			e.fillEntry(be, cache, q)
		}
	}
}

// fillEntry caches the entry interval resolved for q. Host-side: it redoes
// the O(log n) successor probe the search performed, which the PRAM cost
// model already charged.
func (e *Engine) fillEntry(be CatalogBackend, cache *entryCache, q Query) {
	gen := be.Generation()
	pos := be.EntryProbe(q.Path[0], q.Key)
	lo, hi, err := be.EntryInterval(q.Path[0], pos)
	if err != nil {
		return
	}
	cache.insert(q.Path[0], lo, hi, pos, gen)
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
