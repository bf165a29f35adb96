package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzBatchSearch drives the batched engine with fuzzer-chosen workload
// seed, batch size, processor budget, and query mix, replaying every answer
// against the sequential oracles — the fuzz companion of the
// oracle-differential harness, in the style of core.FuzzDegradedSearch.
func FuzzBatchSearch(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(256), uint8(0))
	f.Add(int64(2), uint8(1), uint16(1), uint8(77))
	f.Add(int64(3), uint8(64), uint16(4096), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, bRaw uint8, pRaw uint16, mix uint8) {
		fx := buildFixture(t, seed, 8, 200)
		procs := int(pRaw)%4096 + 1
		e := fx.newEngine(t, Config{Procs: procs, CacheSize: 16})
		rng := rand.New(rand.NewSource(seed ^ int64(mix)))
		b := int(bRaw)%48 + 1
		for round := 0; round < 3; round++ {
			qs := make([]Query, b)
			for i := range qs {
				qs[i] = fx.randomQuery(rng)
			}
			answers, rep, err := e.ExecuteBatch(qs)
			if err != nil {
				t.Fatalf("seed=%d b=%d procs=%d: %v", seed, b, procs, err)
			}
			if rep.Errors != 0 {
				t.Fatalf("seed=%d b=%d procs=%d: %d query errors", seed, b, procs, rep.Errors)
			}
			for i := range answers {
				fx.checkAnswer(t, fmt.Sprintf("seed=%d b=%d procs=%d round=%d query=%d", seed, b, procs, round, i), qs[i], answers[i])
			}
		}
	})
}

// FuzzEntryCache drives a deliberately small entry-point cache with
// fuzzer-chosen sequences of clustered catalog batches, so hits, LRU
// evictions and refills interleave, asserting no wrong cache hit can ever
// surface: every answer is compared with the cascade.SearchPath oracle.
func FuzzEntryCache(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 0, 3, 0})
	f.Add(int64(9), []byte{3, 3, 3, 0, 0})
	f.Add(int64(42), []byte{0, 2, 0, 2, 3, 0, 1, 3, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		fx := buildFixture(t, seed, 8, 200)
		e := fx.newEngine(t, Config{Procs: 64, CacheSize: 8})
		rng := rand.New(rand.NewSource(seed))
		for step, op := range ops {
			// The op picks the shard and the batch size of one batch of
			// clustered queries.
			shard := int(op) % 2
			qs := make([]Query, 1+int(op>>1)%8)
			for i := range qs {
				qs[i] = CatalogQuery(shard, fx.clusteredKey(rng), randomPath(fx.trees[shard], rng))
			}
			answers, _, err := e.ExecuteBatch(qs)
			if err != nil {
				t.Fatalf("seed=%d step=%d: %v", seed, step, err)
			}
			for i := range answers {
				fx.checkAnswer(t, fmt.Sprintf("seed=%d step=%d query=%d", seed, step, i), qs[i], answers[i])
			}
		}
	})
}
