package engine

import (
	"reflect"
	"testing"
)

// TestFingerCacheOracle pins Config.FingerCache end to end: on a
// key-local catalog workload with a deliberately tiny cache (so exact
// interval hits are rare but nearby fingers abound), every answer must
// equal the uncached backend oracle bit for bit, finger hits must
// actually occur, and the per-answer flag, per-batch report, and
// per-shard cache counters must agree.
func TestFingerCacheOracle(t *testing.T) {
	fx := buildFixture(t, 21, 1<<5, 4000)
	e := fx.newEngine(t, Config{Procs: 4096, BatchSize: 16, CacheSize: 4, FingerCache: true})
	rng := seededRNG(t, 22)
	qs := make([]Query, 400)
	for i := range qs {
		qs[i] = CatalogQuery(0, fx.clusteredKey(rng), randomPath(fx.trees[0], rng))
	}
	fingerHits := 0
	reportHits := 0
	for lo := 0; lo < len(qs); lo += 16 {
		ans, rep, err := e.ExecuteBatch(qs[lo : lo+16])
		if err != nil {
			t.Fatal(err)
		}
		reportHits += rep.FingerHits
		for i, a := range ans {
			if a.Err != nil {
				t.Fatalf("query %d: %v", lo+i, a.Err)
			}
			want, _, err := fx.shards[0].SearchExplicit(a.Query.Key, a.Query.Path, a.P)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Results, want) {
				t.Fatalf("query %d (finger=%v): results differ from uncached oracle", lo+i, a.FingerHit)
			}
			if a.FingerHit {
				fingerHits++
				if a.CacheHit {
					t.Fatalf("query %d: FingerHit and CacheHit both set", lo+i)
				}
			}
		}
	}
	if fingerHits == 0 {
		t.Fatal("key-local workload produced no finger hits")
	}
	if reportHits != fingerHits {
		t.Fatalf("batch reports count %d finger hits, answers %d", reportHits, fingerHits)
	}
	if cs := e.CacheStatsFor(0); cs.FingerHits != uint64(fingerHits) {
		t.Fatalf("cache counter has %d finger hits, answers %d", cs.FingerHits, fingerHits)
	}
}

// TestFingerCacheOffByDefault guards the E20 baseline: with FingerCache
// unset, misses must run the plain search and never set the flag.
func TestFingerCacheOffByDefault(t *testing.T) {
	fx := buildFixture(t, 23, 1<<5, 2000)
	e := fx.newEngine(t, Config{Procs: 1024, BatchSize: 8, CacheSize: 4})
	rng := seededRNG(t, 24)
	for batch := 0; batch < 10; batch++ {
		qs := make([]Query, 8)
		for i := range qs {
			qs[i] = CatalogQuery(0, fx.clusteredKey(rng), randomPath(fx.trees[0], rng))
		}
		ans, rep, err := e.ExecuteBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FingerHits != 0 {
			t.Fatalf("FingerHits %d with the finger cache disabled", rep.FingerHits)
		}
		for i, a := range ans {
			if a.FingerHit {
				t.Fatalf("query %d flagged FingerHit with the finger cache disabled", i)
			}
		}
	}
	if cs := e.CacheStatsFor(0); cs.FingerHits != 0 {
		t.Fatalf("cache counter has %d finger hits with the finger cache disabled", cs.FingerHits)
	}
}
