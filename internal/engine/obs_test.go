package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fraccascade/internal/obs"
)

// TestObsCountersMatchEngineGroundTruth runs concurrent batches on one
// instrumented engine and checks that the registry agrees with the
// engine's own accounting (the acceptance criterion: metrics vs ground
// truth). Run under -race via `make race` / the CI race job.
func TestObsCountersMatchEngineGroundTruth(t *testing.T) {
	fx := buildFixture(t, 77, 1<<4, 1500)
	reg := obs.NewRegistry()
	ring := obs.NewRing(4096)
	e := fx.newEngine(t, Config{Procs: 1024, Obs: reg, Tracer: ring})

	const goroutines, batchesPer, batchSize = 4, 6, 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var totalSteps, totalErrs uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := seededRNG(t, int64(1000+g))
			for b := 0; b < batchesPer; b++ {
				qs := make([]Query, batchSize)
				for i := range qs {
					qs[i] = fx.randomQuery(rng)
				}
				_, rep, err := e.ExecuteBatch(qs)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				totalSteps += uint64(rep.Steps)
				totalErrs += uint64(rep.Errors)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	const wantQueries = goroutines * batchesPer * batchSize
	m := e.Metrics()
	snap := reg.Snapshot()

	if m.Queries != wantQueries {
		t.Fatalf("engine.Metrics().Queries = %d, want %d", m.Queries, wantQueries)
	}
	if got := snap.Counters["engine.queries"]; got != int64(m.Queries) {
		t.Fatalf("engine.queries metric = %d, ground truth %d", got, m.Queries)
	}
	if got := snap.Counters["engine.batches"]; got != int64(m.Batches) {
		t.Fatalf("engine.batches metric = %d, ground truth %d", got, m.Batches)
	}
	if got := snap.Counters["engine.errors"]; got != int64(totalErrs) || m.Errors != totalErrs {
		t.Fatalf("errors: metric %d, Metrics %d, reports %d", got, m.Errors, totalErrs)
	}

	// The batch-steps histogram sums exactly the per-batch parallel times —
	// the oracle step counts accumulated from the reports and mirrored in
	// Metrics().StepsTotal.
	h := snap.Histograms["engine.batch.steps"]
	if h.Count != int64(m.Batches) || h.Sum != int64(totalSteps) || uint64(h.Sum) != m.StepsTotal {
		t.Fatalf("engine.batch.steps: count=%d sum=%d, want count=%d sum=%d (StepsTotal=%d)",
			h.Count, h.Sum, m.Batches, totalSteps, m.StepsTotal)
	}

	// Per-kind counters partition the query count.
	var kinds int64
	for _, k := range []string{"engine.queries.catalog", "engine.queries.point", "engine.queries.spatial"} {
		kinds += snap.Counters[k]
	}
	if kinds != wantQueries {
		t.Fatalf("per-kind counters sum to %d, want %d", kinds, wantQueries)
	}

	// Per-shard cache mirrors equal the caches' own CacheStats.
	for i := 0; i < e.NumShards(); i++ {
		cs := e.CacheStatsFor(i)
		prefix := fmt.Sprintf("engine.shard.%d.cache.", i)
		hits := snap.Counters[prefix+"hits"]
		misses := snap.Counters[prefix+"misses"]
		if hits != int64(cs.Hits) || misses != int64(cs.Misses) {
			t.Fatalf("shard %d cache mirror: metric %d/%d, CacheStats %d/%d",
				i, hits, misses, cs.Hits, cs.Misses)
		}
	}

	// Pool pull-gauges read the pool's own atomics: one task per query.
	if got := snap.Funcs["engine.pool.tasks"]; got != m.Tasks || got != wantQueries {
		t.Fatalf("engine.pool.tasks = %d, Metrics %d, want %d", got, m.Tasks, wantQueries)
	}
	if got := snap.Funcs["engine.pool.workers"]; got != int64(e.Pool().Workers()) {
		t.Fatalf("engine.pool.workers = %d, want %d", got, e.Pool().Workers())
	}
	for _, gone := range []string{"engine.pool.steals", "engine.pool.idle"} {
		if _, ok := snap.Funcs[gone]; ok {
			t.Fatalf("%s is still exported; the index-claim executor has no deques", gone)
		}
	}

	// One query span (Parent == 0) per query, plus per-phase children; all
	// step ranges are internally consistent.
	var querySpans int64
	for _, s := range ring.Spans() {
		if s.Parent == 0 {
			querySpans++
		} else if s.Phase == "" {
			t.Fatalf("child span %d lacks a phase label: %+v", s.ID, s)
		}
		if s.StepHi-s.StepLo != uint64(s.Steps) {
			t.Fatalf("span %d: step range [%d,%d) inconsistent with Steps=%d", s.ID, s.StepLo, s.StepHi, s.Steps)
		}
		if s.Kind == "" || s.P < 1 {
			t.Fatalf("span %d: missing kind/p: %+v", s.ID, s)
		}
	}
	if querySpans != int64(wantQueries) {
		t.Fatalf("query spans emitted = %d, want %d", querySpans, wantQueries)
	}

	// Per-phase step counters partition the summed per-query step counts
	// (each query's phase decomposition sums to its Steps).
	var phaseSum, answerSteps int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "engine.phase.") && strings.HasSuffix(name, ".steps") {
			phaseSum += v
		}
	}
	for _, s := range ring.Spans() {
		if s.Parent == 0 && s.Err == "" {
			answerSteps += int64(s.Steps)
		}
	}
	if phaseSum != answerSteps {
		t.Fatalf("engine.phase.*.steps sum to %d, successful query steps sum to %d", phaseSum, answerSteps)
	}
}

// TestObsDisabledStepInvariance pins the zero-perturbation guarantee: the
// same query stream on an instrumented and an uninstrumented engine yields
// bit-identical simulated costs and answers (single-worker pools make the
// cache fill order deterministic so the comparison is exact).
func TestObsDisabledStepInvariance(t *testing.T) {
	fx := buildFixture(t, 42, 1<<4, 1500)
	plain := fx.newEngine(t, Config{Procs: 2048, Workers: 1})
	observed := fx.newEngine(t, Config{Procs: 2048, Workers: 1,
		Obs: obs.NewRegistry(), Tracer: obs.NewRing(1024)})

	rng := seededRNG(t, 7)
	for round := 0; round < 8; round++ {
		qs := make([]Query, 24)
		for i := range qs {
			qs[i] = fx.randomQuery(rng)
		}
		ap, rp, err := plain.ExecuteBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		ao, ro, err := observed.ExecuteBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Steps != ro.Steps || rp.CacheHits != ro.CacheHits || rp.Errors != ro.Errors {
			t.Fatalf("round %d: reports diverge with obs enabled: %+v vs %+v", round, rp, ro)
		}
		for i := range ap {
			if ap[i].Steps != ao[i].Steps || ap[i].Rounds != ao[i].Rounds || ap[i].CacheHit != ao[i].CacheHit {
				t.Fatalf("round %d query %d: cost diverges with obs enabled: steps %d/%d rounds %d/%d hit %v/%v",
					round, i, ap[i].Steps, ao[i].Steps, ap[i].Rounds, ao[i].Rounds, ap[i].CacheHit, ao[i].CacheHit)
			}
		}
	}
}

// TestSpanStepClockAbutsAcrossBatches: with batches executed sequentially,
// consecutive batches occupy abutting windows of the engine's cumulative
// step clock.
func TestSpanStepClockAbutsAcrossBatches(t *testing.T) {
	fx := buildFixture(t, 9, 1<<4, 1200)
	ring := obs.NewRing(1024)
	e := fx.newEngine(t, Config{Procs: 512, Obs: obs.NewRegistry(), Tracer: ring})

	rng := seededRNG(t, 3)
	var clock uint64
	for round := 0; round < 5; round++ {
		qs := make([]Query, 8)
		for i := range qs {
			qs[i] = fx.randomQuery(rng)
		}
		_, rep, err := e.ExecuteBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		var batchSpans, children []obs.Span
		for _, s := range ring.Spans() {
			if s.Parent == 0 {
				batchSpans = append(batchSpans, s)
			} else {
				children = append(children, s)
			}
		}
		batchSpans = batchSpans[len(batchSpans)-len(qs):]
		var maxHi uint64
		for _, s := range batchSpans {
			if s.StepLo != clock {
				t.Fatalf("round %d: span StepLo = %d, want batch base %d", round, s.StepLo, clock)
			}
			if s.StepHi > maxHi {
				maxHi = s.StepHi
			}
			// Phase children partition the parent's window exactly.
			off := s.StepLo
			var phased int
			for _, c := range children {
				if c.Parent != s.ID {
					continue
				}
				if c.StepLo != off {
					t.Fatalf("round %d: child %q StepLo = %d, want %d", round, c.Phase, c.StepLo, off)
				}
				if c.Phase == "" {
					t.Fatalf("round %d: child of span %d has empty phase", round, s.ID)
				}
				off = c.StepHi
				phased += c.Steps
			}
			if s.Err == "" && phased != s.Steps {
				t.Fatalf("round %d: phase children sum to %d steps, parent has %d", round, phased, s.Steps)
			}
		}
		if maxHi != clock+uint64(rep.Steps) {
			t.Fatalf("round %d: widest span ends at %d, want %d", round, maxHi, clock+uint64(rep.Steps))
		}
		clock += uint64(rep.Steps)
	}
}
