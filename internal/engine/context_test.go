package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"fraccascade/internal/core"
	"fraccascade/internal/dynamic"
	"fraccascade/internal/snapshot"
)

// TestExecuteBatchContextMatchesPlain: with a live background context the
// context path must be answer-identical to ExecuteBatch — same results,
// steps, phase decomposition, and cache behaviour. Two engines over the
// same fixture isolate the entry caches; one worker per batch makes their
// cache fills happen in the same (query) order.
func TestExecuteBatchContextMatchesPlain(t *testing.T) {
	fx := buildFixture(t, 71, 16, 600)
	plain := fx.newEngine(t, Config{Procs: 256, Workers: 1})
	ctxEng := fx.newEngine(t, Config{Procs: 256, Workers: 1})
	rng := seededRNG(t, 72)
	for batch := 0; batch < 4; batch++ {
		qs := make([]Query, 12)
		for i := range qs {
			qs[i] = fx.randomQuery(rng)
		}
		want, wantRep, err := plain.ExecuteBatch(qs)
		if err != nil {
			t.Fatalf("plain batch: %v", err)
		}
		got, gotRep, err := ctxEng.ExecuteBatchContext(context.Background(), qs)
		if err != nil {
			t.Fatalf("context batch: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("batch %d: answers diverge between plain and context paths", batch)
		}
		if wantRep != gotRep {
			t.Fatalf("batch %d: reports diverge: %+v vs %+v", batch, wantRep, gotRep)
		}
	}
}

// TestExecuteBatchContextCanceled: a context canceled before the batch (the
// client-disconnect case) fails every query promptly with the context's
// error and counts them in the report — no hangs, no partial successes.
func TestExecuteBatchContextCanceled(t *testing.T) {
	fx := buildFixture(t, 73, 16, 600)
	e := fx.newEngine(t, Config{Procs: 256})
	rng := seededRNG(t, 74)
	qs := make([]Query, 10)
	for i := range qs {
		qs[i] = fx.randomQuery(rng)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	answers, rep, err := e.ExecuteBatchContext(ctx, qs)
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled batch took %v", elapsed)
	}
	if rep.Errors != len(qs) {
		t.Fatalf("report errors = %d, want %d", rep.Errors, len(qs))
	}
	for i, a := range answers {
		if !errors.Is(a.Err, context.Canceled) {
			t.Fatalf("answer %d: err = %v, want context.Canceled", i, a.Err)
		}
	}
	// The engine stays healthy after a canceled batch.
	ok, okRep, err := e.ExecuteBatchContext(context.Background(), qs)
	if err != nil || okRep.Errors != 0 {
		t.Fatalf("post-cancel batch: err=%v, errors=%d", err, okRep.Errors)
	}
	for i := range ok {
		fx.checkAnswer(t, "post-cancel", qs[i], ok[i])
	}
}

// TestExecuteBatchContextDeadline: an expired deadline behaves like
// cancellation and reports context.DeadlineExceeded per query.
func TestExecuteBatchContextDeadline(t *testing.T) {
	fx := buildFixture(t, 75, 16, 600)
	e := fx.newEngine(t, Config{Procs: 256})
	rng := seededRNG(t, 76)
	qs := []Query{fx.randomQuery(rng), fx.randomQuery(rng)}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	answers, _, err := e.ExecuteBatchContext(ctx, qs)
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	for i, a := range answers {
		if !errors.Is(a.Err, context.DeadlineExceeded) {
			t.Fatalf("answer %d: err = %v, want context.DeadlineExceeded", i, a.Err)
		}
	}
}

// TestBackendsFromStore: an engine over snapshot-restored shards answers
// exactly like the engine over the originally built ones, and a store
// holding a dynamic shard is refused, because the engine serves static
// shards only.
func TestBackendsFromStore(t *testing.T) {
	fx := buildFixture(t, 77, 16, 600)
	store := &snapshot.Store{Generation: 3, Shards: []snapshot.Shard{
		{Kind: snapshot.KindStatic, Static: fx.shards[0]},
		{Kind: snapshot.KindStatic, Static: fx.shards[1]},
	}}
	data, err := snapshot.Encode(store)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := snapshot.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	restored, err := BackendsFromStore(decoded)
	if err != nil {
		t.Fatalf("BackendsFromStore: %v", err)
	}
	if len(restored) != 2 {
		t.Fatalf("restored %d backends, want 2", len(restored))
	}
	orig := fx.newEngine(t, Config{Procs: 256, CacheSize: -1})
	fromSnap, err := New(Config{Procs: 256, CacheSize: -1}, restored, fx.pl, fx.sp)
	if err != nil {
		t.Fatalf("engine over restored backends: %v", err)
	}
	rng := seededRNG(t, 78)
	qs := make([]Query, 40)
	for i := range qs {
		qs[i] = fx.randomQuery(rng)
	}
	want, _, err := orig.ExecuteBatch(qs)
	if err != nil {
		t.Fatalf("original batch: %v", err)
	}
	got, _, err := fromSnap.ExecuteBatch(qs)
	if err != nil {
		t.Fatalf("restored batch: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored engine diverges from original")
	}

	d, err := dynamic.New(fx.trees[1], randomCatalogs(fx.trees[1], 600, fx.bound, rng), core.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	store.Shards[1] = snapshot.Shard{Kind: snapshot.KindDynamic, Dynamic: d}
	if data, err = snapshot.Encode(store); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if decoded, err = snapshot.Decode(data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, err := BackendsFromStore(decoded); err == nil {
		t.Fatal("BackendsFromStore accepted a dynamic shard")
	}
}

// TestBackendsFromStoreRejectsBadStores: nil stores and malformed shards
// fail construction instead of producing a half-wired engine.
func TestBackendsFromStoreRejectsBadStores(t *testing.T) {
	if _, err := BackendsFromStore(nil); err == nil {
		t.Fatalf("nil store accepted")
	}
	bad := []snapshot.Store{
		{Shards: []snapshot.Shard{{Kind: snapshot.KindStatic}}},
		{Shards: []snapshot.Shard{{Kind: snapshot.KindDynamic}}},
		{Shards: []snapshot.Shard{{Kind: snapshot.Kind(9)}}},
	}
	for i := range bad {
		if _, err := BackendsFromStore(&bad[i]); err == nil {
			t.Fatalf("case %d: malformed shard accepted", i)
		}
	}
}
