package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/geom"
	"fraccascade/internal/pointloc"
	"fraccascade/internal/spatial"
	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
)

// randomCatalogs builds per-node random catalogs totalling roughly `total`
// native entries with keys below keyBound.
func randomCatalogs(t *tree.Tree, total int, keyBound int64, rng *rand.Rand) []catalog.Catalog {
	cats := make([]catalog.Catalog, t.N())
	per := total / t.N()
	if per < 1 {
		per = 1
	}
	for v := range cats {
		size := rng.Intn(2*per + 2)
		seen := map[catalog.Key]bool{}
		keys := make([]catalog.Key, 0, size)
		for len(keys) < size {
			k := catalog.Key(rng.Int63n(keyBound))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		cats[v] = catalog.MustFromKeys(keys, nil)
	}
	return cats
}

// seededRNG returns a deterministic rng for the given seed and logs the
// seed, so a randomized-test failure names the exact standalone replay
// (the seed-audit convention for every randomized test in this repo).
func seededRNG(tb testing.TB, seed int64) *rand.Rand {
	tb.Logf("seed %d", seed)
	return rand.New(rand.NewSource(seed))
}

// fixture bundles one of every backend kind: two static catalog shards, a
// planar locator, and a spatial locator, all as the pointer structures New
// freezes and the tests use as oracles.
type fixture struct {
	trees  []*tree.Tree
	shards []*core.Structure
	sub    *subdivision.Subdivision
	pl     *pointloc.Locator
	cx     *spatial.Complex
	sp     *spatial.Locator
	bound  int64
}

func buildFixture(tb testing.TB, seed int64, leaves, total int) *fixture {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	fx := &fixture{bound: int64(total) * 8}
	t0, err := tree.NewBalancedBinary(leaves)
	if err != nil {
		tb.Fatal(err)
	}
	t1, err := tree.NewBalancedBinary(leaves)
	if err != nil {
		tb.Fatal(err)
	}
	fx.trees = []*tree.Tree{t0, t1}
	for _, t := range fx.trees {
		st, err := core.Build(t, randomCatalogs(t, total, fx.bound, rng), core.Config{})
		if err != nil {
			tb.Fatal(err)
		}
		fx.shards = append(fx.shards, st)
	}
	fx.sub, err = subdivision.Generate(24, 12, rng)
	if err != nil {
		tb.Fatal(err)
	}
	fx.pl, err = pointloc.Build(fx.sub, core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	fx.cx, err = spatial.Generate(30, 4, rng)
	if err != nil {
		tb.Fatal(err)
	}
	fx.sp, err = spatial.NewLocator(fx.cx)
	if err != nil {
		tb.Fatal(err)
	}
	return fx
}

func (fx *fixture) newEngine(tb testing.TB, cfg Config) *Engine {
	tb.Helper()
	e, err := New(cfg, fx.shards, fx.pl, fx.sp)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// randomPath returns a root path to a uniformly random node of t.
func randomPath(t *tree.Tree, rng *rand.Rand) []tree.NodeID {
	return t.RootPath(tree.NodeID(rng.Intn(t.N())))
}

// randomQuery draws one query of a random kind; catalog keys are clustered
// around a few centres so batches have key locality for the entry cache.
func (fx *fixture) randomQuery(rng *rand.Rand) Query {
	switch rng.Intn(4) {
	case 0:
		return CatalogQuery(0, fx.clusteredKey(rng), randomPath(fx.trees[0], rng))
	case 1:
		return CatalogQuery(1, fx.clusteredKey(rng), randomPath(fx.trees[1], rng))
	case 2:
		pt, _ := fx.sub.RandomInteriorPoint(rng)
		return PointQuery(pt)
	default:
		x, y, z, _ := fx.cx.RandomInteriorPoint(rng)
		return SpatialQuery(x, y, z)
	}
}

// clusteredKey draws keys from a handful of narrow bands (half the time) or
// uniformly (the other half).
func (fx *fixture) clusteredKey(rng *rand.Rand) catalog.Key {
	if rng.Intn(2) == 0 {
		centre := (fx.bound / 8) * int64(1+rng.Intn(7))
		return catalog.Key(centre + rng.Int63n(64) - 32)
	}
	return catalog.Key(rng.Int63n(fx.bound))
}

// checkAnswer verifies one answer against the sequential oracles.
func (fx *fixture) checkAnswer(tb testing.TB, label string, q Query, a Answer) {
	tb.Helper()
	if a.Err != nil {
		tb.Fatalf("%s: query %v failed: %v", label, q.Kind, a.Err)
	}
	phased := 0
	for slot, n := range a.PhaseSteps {
		if n < 0 {
			tb.Fatalf("%s: phase %s has %d steps", label, PhaseLabels[slot], n)
		}
		phased += n
	}
	if phased != a.Steps {
		tb.Fatalf("%s: phase steps %v sum to %d, steps = %d", label, a.PhaseSteps, phased, a.Steps)
	}
	switch q.Kind {
	case KindCatalog:
		want, err := fx.shards[q.Shard].Cascade().SearchPath(q.Key, q.Path)
		if err != nil {
			tb.Fatal(err)
		}
		for i := range want {
			if a.Results[i].Key != want[i].Key || a.Results[i].Payload != want[i].Payload {
				tb.Fatalf("%s: shard %d node %d: got (%d,%d) want (%d,%d)",
					label, q.Shard, q.Path[i], a.Results[i].Key, a.Results[i].Payload, want[i].Key, want[i].Payload)
			}
		}
	case KindPoint:
		want, err := fx.sub.LocateBrute(q.Point)
		if err != nil {
			tb.Fatal(err)
		}
		if a.Region != want {
			tb.Fatalf("%s: point %v: got region %d want %d", label, q.Point, a.Region, want)
		}
	case KindSpatial:
		want, err := fx.cx.LocateBrute(q.SX, q.SY, q.SZ)
		if err != nil {
			tb.Fatal(err)
		}
		if a.Cell != want {
			tb.Fatalf("%s: spatial (%d,%d,%d): got cell %d want %d", label, q.SX, q.SY, q.SZ, a.Cell, want)
		}
	}
}

// TestPoolRunsEveryTaskOnce: at every worker count each query of a batch
// lands in its own answer slot with the oracle's answer, and the
// executor's task counter (engine.pool.tasks) advances by the batch size.
func TestPoolRunsEveryTaskOnce(t *testing.T) {
	fx := buildFixture(t, 5, 8, 200)
	rng := seededRNG(t, 5)
	for _, workers := range []int{1, 2, 8, 32} {
		e := fx.newEngine(t, Config{Procs: 256, Workers: workers})
		if got := e.Pool().Workers(); got != workers {
			t.Fatalf("Workers=%d: pool reports %d workers", workers, got)
		}
		var tasks int64
		for _, n := range []int{1, 7, 64} {
			qs := make([]Query, n)
			for i := range qs {
				qs[i] = fx.randomQuery(rng)
			}
			answers, _, err := e.ExecuteBatch(qs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				if !reflect.DeepEqual(answers[i].Query, qs[i]) {
					t.Fatalf("workers=%d n=%d: answer %d echoes %+v, want %+v", workers, n, i, answers[i].Query, qs[i])
				}
				fx.checkAnswer(t, fmt.Sprintf("workers=%d n=%d query=%d", workers, n, i), qs[i], answers[i])
			}
			tasks += int64(n)
		}
		if got := e.Metrics().Tasks; got != tasks {
			t.Errorf("workers=%d: pool counted %d tasks, want %d", workers, got, tasks)
		}
	}
}

func TestEntryCacheBasics(t *testing.T) {
	c := newEntryCache(3, nil, 0)
	node := tree.NodeID(0)
	c.insert(node, 10, 20, 4)
	if pos, ok := c.lookup(node, 15); !ok || pos != 4 {
		t.Fatalf("lookup(15) = (%d, %v), want (4, true)", pos, ok)
	}
	if pos, ok := c.lookup(node, 20); !ok || pos != 4 {
		t.Fatalf("lookup(20) = (%d, %v): hi is inclusive", pos, ok)
	}
	if _, ok := c.lookup(node, 10); ok {
		t.Fatal("lookup(10) hit: lo must be exclusive")
	}
	if _, ok := c.lookup(node, 21); ok {
		t.Fatal("lookup(21) hit outside interval")
	}
	// Fill to capacity and evict: slot (10,20] was most recently used via
	// the hits above; (30,40] inserted then never touched is the LRU.
	c.insert(node, 30, 40, 7)
	c.insert(node, 50, 60, 9)
	if _, ok := c.lookup(node, 15); !ok {
		t.Fatal("refresh hit failed")
	}
	c.insert(node, 70, 80, 11) // overflow: evicts (30,40]
	if _, ok := c.lookup(node, 35); ok {
		t.Fatal("evicted slot still hit")
	}
	if s := c.statsSnapshot(); s.Evictions != 1 || s.Size != 3 {
		t.Fatalf("stats = %+v, want 1 eviction at size 3", s)
	}
}

func TestEntryCacheMinKey(t *testing.T) {
	c := newEntryCache(4, nil, 0)
	c.insert(0, catalog.MinusInf, 100, 0)
	if pos, ok := c.lookup(0, 5); !ok || pos != 0 {
		t.Fatalf("lookup below first key = (%d, %v), want (0, true)", pos, ok)
	}
	if _, ok := c.lookup(0, catalog.MinusInf); ok {
		t.Fatal("MinusInf itself must miss (lo is exclusive)")
	}
}

func TestBatchAnswersMatchOracles(t *testing.T) {
	fx := buildFixture(t, 7, 32, 1200)
	e := fx.newEngine(t, Config{Procs: 1024, BatchSize: 16})
	rng := seededRNG(t, 99)
	for batch := 0; batch < 30; batch++ {
		qs := make([]Query, 1+rng.Intn(24))
		for i := range qs {
			qs[i] = fx.randomQuery(rng)
		}
		answers, rep, err := e.ExecuteBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Fatalf("batch %d: %d errors", batch, rep.Errors)
		}
		for i := range answers {
			fx.checkAnswer(t, fmt.Sprintf("batch %d query %d", batch, i), qs[i], answers[i])
		}
	}
	m := e.Metrics()
	if m.Cache[0].Hits+m.Cache[1].Hits == 0 {
		t.Errorf("clustered workload produced no cache hits: %+v", m.Cache)
	}
}

func TestCacheHitSkipsEntryRounds(t *testing.T) {
	fx := buildFixture(t, 3, 64, 4000)
	// A small budget keeps the Step-1 entry search at several rounds, so a
	// cache hit (one verification step) is visibly cheaper.
	e := fx.newEngine(t, Config{Procs: 4})
	path := fx.trees[0].RootPath(tree.NodeID(fx.trees[0].N() - 1))
	q := CatalogQuery(0, 12345, path)
	first, _, err := e.ExecuteBatch([]Query{q})
	if err != nil {
		t.Fatal(err)
	}
	if first[0].CacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	second, rep, err := e.ExecuteBatch([]Query{q})
	if err != nil {
		t.Fatal(err)
	}
	if !second[0].CacheHit || rep.CacheHits != 1 {
		t.Fatalf("repeat execution missed the cache (hit=%v, report=%+v)", second[0].CacheHit, rep)
	}
	if second[0].Steps >= first[0].Steps {
		t.Errorf("cache hit did not reduce steps: %d -> %d", first[0].Steps, second[0].Steps)
	}
	fx.checkAnswer(t, "cached", q, second[0])
}

// TestCacheHitNeverCostsMoreThanStep1 pins the cost claim the cache-hit
// entry rests on: at every processor share, from a sequential one to a
// share wider than the entry catalog, a validated cache hit is charged no
// more steps and no more root rounds than the plain SearchExplicit of the
// same query at the same share, which enters through the cooperative
// Step 1.
func TestCacheHitNeverCostsMoreThanStep1(t *testing.T) {
	fx := buildFixture(t, 83, 1<<7, 8000)
	rng := seededRNG(t, 84)
	for _, procs := range []int{16, 512, 4096, 65536} {
		e := fx.newEngine(t, Config{Procs: procs})
		hits := 0
		for b := 0; b < 64; b++ {
			qs := make([]Query, 16)
			for i := range qs {
				shard := rng.Intn(2)
				qs[i] = CatalogQuery(shard, fx.clusteredKey(rng), randomPath(fx.trees[shard], rng))
			}
			answers, _, err := e.ExecuteBatch(qs)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range answers {
				if a.Err != nil {
					t.Fatalf("procs %d: %v", procs, a.Err)
				}
				if !a.CacheHit {
					continue
				}
				hits++
				q := a.Query
				_, plain, err := e.shards[q.Shard].SearchExplicit(q.Key, q.Path, a.P)
				if err != nil {
					t.Fatal(err)
				}
				if a.Steps > plain.Steps || a.Rounds > plain.RootRounds {
					t.Fatalf("procs %d, p %d, key %d: cache hit costs %d steps / %d rounds, Step 1 entry %d / %d",
						procs, a.P, q.Key, a.Steps, a.Rounds, plain.Steps, plain.RootRounds)
				}
			}
		}
		if hits == 0 {
			t.Fatalf("procs %d: clustered workload produced no cache hits", procs)
		}
		t.Logf("procs %d: %d cache hits, none dearer than Step 1", procs, hits)
	}
}

func TestBatchedThroughputBeatsSequential(t *testing.T) {
	fx := buildFixture(t, 21, 64, 4000)
	e := fx.newEngine(t, Config{Procs: 4096})
	rng := seededRNG(t, 17)
	for _, b := range []int{8, 32, 64} {
		qs := make([]Query, b)
		for i := range qs {
			qs[i] = fx.randomQuery(rng)
		}
		_, rep, err := e.ExecuteBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		_, seqSteps, err := e.ExecuteSequential(qs)
		if err != nil {
			t.Fatal(err)
		}
		batched := rep.Throughput()
		sequential := float64(b) / float64(seqSteps)
		if batched <= sequential {
			t.Errorf("b=%d: batched throughput %.3f q/step not above sequential %.3f", b, batched, sequential)
		}
	}
}

func TestSubmitFlushGroupsIntoBatches(t *testing.T) {
	fx := buildFixture(t, 31, 16, 600)
	e := fx.newEngine(t, Config{Procs: 128, BatchSize: 8})
	rng := seededRNG(t, 2)
	qs := make([]Query, 21)
	for i := range qs {
		qs[i] = fx.randomQuery(rng)
		e.Submit(qs[i])
	}
	if e.Pending() != 21 {
		t.Fatalf("pending = %d, want 21", e.Pending())
	}
	answers, reports, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 21 || len(reports) != 3 {
		t.Fatalf("flush returned %d answers in %d batches, want 21 in 3", len(answers), len(reports))
	}
	if reports[0].B != 8 || reports[1].B != 8 || reports[2].B != 5 {
		t.Fatalf("batch sizes %d/%d/%d, want 8/8/5", reports[0].B, reports[1].B, reports[2].B)
	}
	for i := range answers {
		fx.checkAnswer(t, fmt.Sprintf("flush answer %d", i), qs[i], answers[i])
	}
	if e.Pending() != 0 {
		t.Errorf("pending after flush = %d", e.Pending())
	}
}

func TestRoutingErrors(t *testing.T) {
	fx := buildFixture(t, 41, 16, 600)
	bare, err := New(Config{Procs: 64}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := []Query{
		CatalogQuery(0, 1, randomPath(fx.trees[0], rand.New(rand.NewSource(1)))),
		PointQuery(geom.Point{X: 1, Y: 1}),
		SpatialQuery(1, 1, 1),
	}
	answers, rep, err := bare.ExecuteBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 3 {
		t.Fatalf("report.Errors = %d, want 3", rep.Errors)
	}
	for i, a := range answers {
		if a.Err == nil {
			t.Errorf("query %d on an empty engine succeeded", i)
		}
	}
	if _, _, err := bare.ExecuteBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := New(Config{Procs: 0}, nil, nil, nil); err == nil {
		t.Error("zero processor budget accepted")
	}
}

func TestConcurrentBatchesOnSharedEngine(t *testing.T) {
	fx := buildFixture(t, 51, 32, 1200)
	e := fx.newEngine(t, Config{Procs: 512})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := seededRNG(t, int64(1000+g))
			for round := 0; round < 10; round++ {
				qs := make([]Query, 1+rng.Intn(12))
				for i := range qs {
					// Every served structure is frozen, so concurrent
					// batches share the engine safely.
					switch rng.Intn(3) {
					case 0:
						qs[i] = CatalogQuery(0, fx.clusteredKey(rng), randomPath(fx.trees[0], rng))
					case 1:
						pt, _ := fx.sub.RandomInteriorPoint(rng)
						qs[i] = PointQuery(pt)
					default:
						x, y, z, _ := fx.cx.RandomInteriorPoint(rng)
						qs[i] = SpatialQuery(x, y, z)
					}
				}
				answers, rep, err := e.ExecuteBatch(qs)
				if err != nil {
					errs <- err
					return
				}
				if rep.Errors != 0 {
					errs <- fmt.Errorf("goroutine %d round %d: %d query errors", g, round, rep.Errors)
					return
				}
				for i := range answers {
					if answers[i].Err != nil {
						errs <- answers[i].Err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
