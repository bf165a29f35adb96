package engine

import (
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/flat"
	"fraccascade/internal/tree"
)

// noSource hides the FlatSource method of a backend behind the bare
// CatalogBackend interface.
type noSource struct{ CatalogBackend }

func TestFlatConfigRejectsNonSource(t *testing.T) {
	fx := buildFixture(t, 600, 1<<4, 800)
	_, err := New(Config{Procs: 64, Flat: true},
		[]CatalogBackend{noSource{StaticShard{St: fx.static}}}, nil, nil)
	if err == nil {
		t.Fatal("Flat engine accepted a backend without FlatSource")
	}
}

// TestFlatEngineMatchesPointer runs identical batches through a pointer
// engine and a Flat engine over the same backends: every answer — results,
// steps, phase decomposition, cache behaviour — must agree, since the flat
// search replicates the cost model bit for bit.
func TestFlatEngineMatchesPointer(t *testing.T) {
	fx := buildFixture(t, 601, 1<<5, 2400)
	rng := seededRNG(t, 601)
	shards := func() []CatalogBackend {
		return []CatalogBackend{StaticShard{St: fx.static}, DynamicShard{D: fx.dyn}}
	}
	// One worker per batch: cache fills then happen in query order, so the
	// two engines' hit/miss outcomes are comparable query for query.
	ptr, err := New(Config{Procs: 256, Workers: 1}, shards(), fx.pl, fx.sp)
	if err != nil {
		t.Fatal(err)
	}
	flt, err := New(Config{Procs: 256, Workers: 1, Flat: true}, shards(), fx.pl, fx.sp)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		qs := make([]Query, 1+rng.Intn(24))
		for i := range qs {
			qs[i] = fx.randomQuery(rng)
		}
		wantAns, wantRep, err := ptr.ExecuteBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		gotAns, gotRep, err := flt.ExecuteBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		if gotRep != wantRep {
			t.Fatalf("round %d: report %+v, want %+v", round, gotRep, wantRep)
		}
		for i := range wantAns {
			w, g := wantAns[i], gotAns[i]
			if (g.Err == nil) != (w.Err == nil) {
				t.Fatalf("round %d query %d: err %v, want %v", round, i, g.Err, w.Err)
			}
			if g.P != w.P || g.Steps != w.Steps || g.Rounds != w.Rounds ||
				g.CacheHit != w.CacheHit || g.Region != w.Region || g.Cell != w.Cell {
				t.Fatalf("round %d query %d: answer %+v, want %+v", round, i, g, w)
			}
			if len(g.Results) != len(w.Results) {
				t.Fatalf("round %d query %d: %d results, want %d", round, i, len(g.Results), len(w.Results))
			}
			for j := range w.Results {
				if g.Results[j] != w.Results[j] {
					t.Fatalf("round %d query %d: result[%d] = %+v, want %+v",
						round, i, j, g.Results[j], w.Results[j])
				}
			}
		}
	}
}

// TestFlatShardCacheValidityAcrossFlush pins the per-shard entry-cache fix
// under the flat backend: cache fills resolve through the FlatShard, so a
// dynamic flush must both bump the generation (purging stale slots) and
// refreeze the flat layout before the next fill — a FlatShard that kept
// serving the old arrays would populate the new generation's cache with
// positions from the previous build. The test drives cache-friendly
// batches across repeated mutate+flush cycles and cross-checks every
// answer against the live pointer structure.
func TestFlatShardCacheValidityAcrossFlush(t *testing.T) {
	fx := buildFixture(t, 602, 1<<5, 2400)
	rng := seededRNG(t, 602)
	e, err := New(Config{Procs: 128, CacheSize: 64, Flat: true},
		[]CatalogBackend{DynamicShard{D: fx.dyn}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, ok := e.shards[0].(*FlatShard)
	if !ok {
		t.Fatalf("flat engine serves %T, want *FlatShard", e.shards[0])
	}

	bt := fx.trees[1]
	// A narrow key band against a fixed leaf set keeps the entry cache hot.
	keys := make([]catalog.Key, 8)
	for i := range keys {
		keys[i] = catalog.Key(1000 + rng.Int63n(64))
	}
	runBatch := func(cycle int) {
		qs := make([]Query, 16)
		for i := range qs {
			qs[i] = CatalogQuery(0, keys[rng.Intn(len(keys))], randomPath(bt, rng))
		}
		ans, _, err := e.ExecuteBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for i, a := range ans {
			if a.Err != nil {
				t.Fatalf("cycle %d query %d: %v", cycle, i, a.Err)
			}
			if a.CacheHit {
				hits++
			}
			want, _, err := fx.dyn.Static().SearchExplicit(qs[i].Key, qs[i].Path, a.P)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if a.Results[j] != want[j] {
					t.Fatalf("cycle %d query %d: result[%d] = %+v, want %+v (stale flat layout?)",
						cycle, i, j, a.Results[j], want[j])
				}
			}
		}
		if cycle >= 0 && hits == 0 {
			// Warm batches against an unchanged generation must hit: the
			// whole point of the test is that hits resolve correctly.
			t.Fatalf("cycle %d: no cache hits; the validity check exercised nothing", cycle)
		}
	}

	gen := fx.dyn.Generation()
	frozen := fs.Refreezes()
	for cycle := 0; cycle < 4; cycle++ {
		runBatch(-1) // fill
		runBatch(cycle)
		// Mutate inside the hot key band so post-flush positions shift,
		// then flush to a new generation.
		for i := 0; i < 20; i++ {
			v := tree.NodeID(rng.Intn(bt.N()))
			// Globally unique keys inside/near the hot band, so inserts
			// never collide with pending or already-flushed entries.
			if err := fx.dyn.Insert(v, catalog.Key(1000+cycle*20+i), int32(cycle*100+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fx.dyn.Flush(); err != nil {
			t.Fatal(err)
		}
		if g := fx.dyn.Generation(); g == gen {
			t.Fatal("flush did not advance the generation")
		} else {
			gen = g
		}
		runBatch(-1)
		runBatch(cycle)
		if fr := fs.Refreezes(); fr <= frozen {
			t.Fatalf("cycle %d: flat shard never refroze after flush (refreezes %d)", cycle, fr)
		} else {
			frozen = fr
		}
	}
}

// TestNewFlatShardFrom covers the snapshot-sidecar preload path.
func TestNewFlatShardFrom(t *testing.T) {
	fx := buildFixture(t, 603, 1<<4, 900)
	inner := StaticShard{St: fx.static}
	f, err := flat.Freeze(fx.static)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFlatShardFrom(inner, f)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Refreezes() != 0 {
		t.Errorf("preloaded shard froze %d times, want 0", fs.Refreezes())
	}
	path := fx.trees[0].RootPath(tree.NodeID(fx.trees[0].N() - 1))
	got, gotStats, err := fs.SearchExplicit(42, path, 16)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := fx.static.SearchExplicit(42, path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats || len(got) != len(want) {
		t.Fatalf("preloaded shard stats %+v, want %+v", gotStats, wantStats)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("preloaded shard result[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Shape mismatch: a layout frozen from a smaller fixture.
	small := buildFixture(t, 604, 1<<3, 300)
	fSmall, err := flat.Freeze(small.static)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFlatShardFrom(inner, fSmall); err == nil {
		t.Error("preload accepted a shape-mismatched structure")
	}
	if _, err := NewFlatShardFrom(noSource{inner}, f); err == nil {
		t.Error("preload accepted a backend without FlatSource")
	}
	if _, err := NewFlatShardFrom(inner, nil); err == nil {
		t.Error("preload accepted a nil structure")
	}
}
