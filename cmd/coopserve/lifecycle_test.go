package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fraccascade/internal/flat"
	"fraccascade/internal/snapshot"
)

// lifecycleConfig is the small-structure config the lifecycle suite uses.
func lifecycleConfig() serverConfig {
	return serverConfig{
		Seed: 7, Procs: 512, BatchSize: 8,
		Leaves: 1 << 4, Entries: 800, Shards: 2,
		Regions: 24, Tiles: 20, RingSize: 1024,
	}
}

func getStatus(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(body))
}

// counterValue reads one counter from the registry snapshot.
func counterValue(t *testing.T, s *server, name string) int64 {
	t.Helper()
	return s.reg.Snapshot().Counters[name]
}

// TestReadyzNamesLifecycleStates: /readyz distinguishes building, ready,
// draining, and overloaded, and POST /query honours the same gates.
func TestReadyzNamesLifecycleStates(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.MaxInflight = 2
	s := newServerShell(cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	if code, body := getStatus(t, ts, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "building") {
		t.Fatalf("building: /readyz = %d %q", code, body)
	}
	req := queryRequest{Queries: []wireQuery{{Kind: "point", X: 1, Y: 2}}}
	if resp, _ := postQuery(t, ts, req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /query while building = %d, want 503", resp.StatusCode)
	}

	if err := s.build(); err != nil {
		t.Fatal(err)
	}
	if code, body := getStatus(t, ts, "/readyz"); code != http.StatusOK || body != "ready" {
		t.Fatalf("ready: /readyz = %d %q", code, body)
	}

	// Overload is ready + saturated inflight.
	s.inflight.Add(int64(cfg.MaxInflight))
	if code, body := getStatus(t, ts, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "overloaded") {
		t.Fatalf("overloaded: /readyz = %d %q", code, body)
	}
	s.inflight.Add(-int64(cfg.MaxInflight))

	s.beginDrain()
	if code, body := getStatus(t, ts, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining: /readyz = %d %q", code, body)
	}
	if resp, _ := postQuery(t, ts, req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /query while draining = %d, want 503", resp.StatusCode)
	}
}

// TestAdmissionControlShedsAndRecovers: past the inflight cap, /query sheds
// with 503 + Retry-After and a counter; once load clears, it serves again.
func TestAdmissionControlShedsAndRecovers(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.MaxInflight = 1
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Saturate the gauge as a stand-in for a stuck request.
	s.inflight.Add(1)
	body, _ := json.Marshal(queryRequest{Queries: []wireQuery{{Kind: "point", X: 3, Y: 4}}})
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded POST /query = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("shed response missing Retry-After")
	}
	if n := counterValue(t, s, "serve.shed"); n != 1 {
		t.Fatalf("serve.shed = %d, want 1", n)
	}

	// Load clears; the same request now succeeds and nothing leaked.
	s.inflight.Add(-1)
	if resp, out := postQuery(t, ts, queryRequest{Queries: []wireQuery{{Kind: "point", X: 3, Y: 4}}}); resp.StatusCode != http.StatusOK || len(out.Answers) != 1 {
		t.Fatalf("post-overload POST /query = %d (%d answers)", resp.StatusCode, len(out.Answers))
	}
	if n := s.inflight.Load(); n != 0 {
		t.Fatalf("inflight leaked: %d", n)
	}
}

// TestRequestDeadline: an unmeetable per-request deadline turns into 504
// and the timeout counter, not a hang.
func TestRequestDeadline(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.RequestTimeout = time.Nanosecond
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, _ := postQuery(t, ts, queryRequest{Queries: []wireQuery{{Kind: "point", X: 1, Y: 1}}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("POST /query with 1ns deadline = %d, want 504", resp.StatusCode)
	}
	if n := counterValue(t, s, "serve.timeouts"); n != 1 {
		t.Fatalf("serve.timeouts = %d, want 1", n)
	}
}

// TestClientDisconnect: a canceled request context (the client hung up)
// stops the work and is counted, without fabricating a response.
func TestClientDisconnect(t *testing.T) {
	s, err := newServer(lifecycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(queryRequest{Queries: []wireQuery{{Kind: "point", X: 5, Y: 6}}})
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, req)
	if n := counterValue(t, s, "serve.canceled"); n != 1 {
		t.Fatalf("serve.canceled = %d, want 1", n)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("disconnected client got a body: %q", rec.Body.String())
	}
}

// TestPanicRecovery: a panicking handler yields 500 plus the panic counter;
// the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	s := newServerShell(lifecycleConfig())
	h := s.withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	for i := 1; i <= 2; i++ {
		resp, err := ts.Client().Get(ts.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panic request %d = %d, want 500", i, resp.StatusCode)
		}
		if n := counterValue(t, s, "serve.panics"); n != int64(i) {
			t.Fatalf("serve.panics = %d, want %d", n, i)
		}
	}
}

// TestSnapshotLifecycle is the full drain/restart loop for both shard
// kinds: build writes a snapshot, a drain writes the final one, and a new
// server restores from it — skipping the rebuild — with identical answers.
func TestSnapshotLifecycle(t *testing.T) {
	for _, dynamic := range []bool{false, true} {
		cfg := lifecycleConfig()
		cfg.Dynamic = dynamic
		cfg.SnapshotPath = filepath.Join(t.TempDir(), "shards.snap")
		cfg.DrainTimeout = 2 * time.Second

		first, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first.loadedSnapshot {
			t.Fatalf("dynamic=%v: first boot claims a snapshot load", dynamic)
		}
		if n := counterValue(t, first, "serve.snapshot.saves"); n != 1 {
			t.Fatalf("dynamic=%v: save-on-build counter = %d, want 1", dynamic, n)
		}
		ts := httptest.NewServer(first.handler())
		var req queryRequest
		for i := 0; i < 8; i++ {
			req.Queries = append(req.Queries, wireQuery{Kind: "catalog", Shard: i % 2, Key: int64(97 * i), Leaf: int64(i)})
		}
		resp, want := postQuery(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dynamic=%v: seed query = %d", dynamic, resp.StatusCode)
		}

		// SIGTERM path minus the signal: drain, final snapshot, stop.
		first.beginDrain()
		if !first.awaitDrain(cfg.DrainTimeout) {
			t.Fatalf("dynamic=%v: drain timed out", dynamic)
		}
		if err := first.saveSnapshot(); err != nil {
			t.Fatalf("dynamic=%v: final snapshot: %v", dynamic, err)
		}
		ts.Close()
		if _, err := snapshot.Load(cfg.SnapshotPath); err != nil {
			t.Fatalf("dynamic=%v: final snapshot unreadable: %v", dynamic, err)
		}

		second, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !second.loadedSnapshot {
			t.Fatalf("dynamic=%v: restart rebuilt instead of restoring", dynamic)
		}
		if n := counterValue(t, second, "serve.snapshot.loads"); n != 1 {
			t.Fatalf("dynamic=%v: snapshot load counter = %d, want 1", dynamic, n)
		}
		ts2 := httptest.NewServer(second.handler())
		resp2, got := postQuery(t, ts2, req)
		ts2.Close()
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("dynamic=%v: restored query = %d", dynamic, resp2.StatusCode)
		}
		if !reflect.DeepEqual(want.Answers, got.Answers) {
			t.Fatalf("dynamic=%v: restored server answers diverge", dynamic)
		}
	}
}

// TestSnapshotFallbackOnCorruption: a damaged snapshot file logs and falls
// back to rebuild-from-source — startup never fails on bad bytes.
func TestSnapshotFallbackOnCorruption(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "shards.snap")
	first, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = first
	// Flip one byte mid-file.
	data, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(cfg.SnapshotPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	second, err := newServer(cfg)
	if err != nil {
		t.Fatalf("corrupt snapshot aborted startup: %v", err)
	}
	if second.loadedSnapshot {
		t.Fatalf("corrupt snapshot was served")
	}
	// The rebuild refreshed the snapshot; a third boot restores cleanly.
	third, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !third.loadedSnapshot {
		t.Fatalf("refreshed snapshot not restored")
	}
}

// TestSnapshotShapeMismatchRebuilds: a snapshot whose shard count or kind
// disagrees with the flags is ignored, not served.
func TestSnapshotShapeMismatchRebuilds(t *testing.T) {
	cfg := lifecycleConfig()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "shards.snap")
	if _, err := newServer(cfg); err != nil {
		t.Fatal(err)
	}
	// Same file, dynamic flags: the kinds no longer match.
	cfg.Dynamic = true
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.loadedSnapshot {
		t.Fatalf("static snapshot served as dynamic shards")
	}
	// Same file (now dynamic), different shard count.
	cfg.Shards = 3
	s, err = newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.loadedSnapshot {
		t.Fatalf("2-shard snapshot served for 3-shard flags")
	}
}

// TestFlatServingLifecycle: -flat serves the same answers as the pointer
// catalog shards, persists a sidecar of the catalog shards' frozen layouts
// next to the snapshot, and preloads it on restart (refreezing zero times
// when the sidecar is good). A corrupt sidecar, one truncated to its
// header, and one that still carries a spatial blob (as older sidecars
// did) each boot refrozen and serve the same answers.
func TestFlatServingLifecycle(t *testing.T) {
	for _, dynamic := range []bool{false, true} {
		dir := t.TempDir()
		cfg := lifecycleConfig()
		cfg.Dynamic = dynamic
		cfg.SnapshotPath = filepath.Join(dir, "shards.snap")

		var req queryRequest
		for i := 0; i < 10; i++ {
			req.Queries = append(req.Queries, wireQuery{Kind: "catalog", Shard: i % 2, Key: int64(131 * i), Leaf: int64(i)})
		}
		req.Queries = append(req.Queries, wireQuery{Kind: "point", X: 11, Y: 7}, wireQuery{Kind: "spatial", X: 2, Y: 3, Z: 1})

		// Pointer baseline.
		ptrCfg := cfg
		ptrCfg.SnapshotPath = filepath.Join(dir, "ptr.snap")
		ptr, err := newServer(ptrCfg)
		if err != nil {
			t.Fatal(err)
		}
		tsPtr := httptest.NewServer(ptr.handler())
		respPtr, want := postQuery(t, tsPtr, req)
		tsPtr.Close()
		if respPtr.StatusCode != http.StatusOK {
			t.Fatalf("dynamic=%v: pointer query = %d", dynamic, respPtr.StatusCode)
		}

		// Flat server over the same seed: identical wire answers.
		cfg.Flat = true
		first, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(first.flatShards) != cfg.Shards {
			t.Fatalf("dynamic=%v: %d flat shards, want %d", dynamic, len(first.flatShards), cfg.Shards)
		}
		ts := httptest.NewServer(first.handler())
		resp, got := postQuery(t, ts, req)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dynamic=%v: flat query = %d", dynamic, resp.StatusCode)
		}
		if !reflect.DeepEqual(want.Answers, got.Answers) {
			t.Fatalf("dynamic=%v: flat answers diverge from pointer answers", dynamic)
		}

		// Save-on-build wrote the sidecar next to the snapshot: one blob
		// per catalog shard and nothing else.
		sidecar := cfg.SnapshotPath + ".flat"
		if _, err := os.Stat(sidecar); err != nil {
			t.Fatalf("dynamic=%v: sidecar missing: %v", dynamic, err)
		}
		gen, blobs, err := snapshot.LoadFlat(sidecar)
		if err != nil || len(blobs) != cfg.Shards {
			t.Fatalf("dynamic=%v: sidecar unreadable: gen=%d blobs=%d err=%v (want %d blobs)",
				dynamic, gen, len(blobs), err, cfg.Shards)
		}
		for i, b := range blobs {
			if b.Kind != flat.StoreKindCatalog {
				t.Fatalf("dynamic=%v: sidecar blob %d has kind %d, want catalog", dynamic, i, b.Kind)
			}
		}

		// Restart: shards restore from the snapshot, their frozen layouts
		// from the sidecar, with no refreeze on boot.
		second, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !second.loadedSnapshot {
			t.Fatalf("dynamic=%v: restart rebuilt instead of restoring", dynamic)
		}
		fbs := second.eng.FrozenBackends()
		if len(fbs) != cfg.Shards {
			t.Fatalf("dynamic=%v: %d frozen backends, want %d", dynamic, len(fbs), cfg.Shards)
		}
		for i, fb := range fbs {
			if fb.Refreezes() != 0 {
				t.Fatalf("dynamic=%v: frozen backend %d (kind %d) refroze %d times despite a good sidecar",
					dynamic, i, fb.FrozenKind(), fb.Refreezes())
			}
		}
		if second.flatView == nil {
			t.Fatalf("dynamic=%v: restart did not retain the sidecar view", dynamic)
		}
		wantMode := "deserialized"
		if runtime.GOOS == "linux" || runtime.GOOS == "darwin" {
			wantMode = "mmap"
		}
		if second.restoreMode != wantMode {
			t.Fatalf("dynamic=%v: restore mode %q, want %q", dynamic, second.restoreMode, wantMode)
		}
		ts2r := httptest.NewServer(second.handler())
		code, readyBody := getStatus(t, ts2r, "/readyz")
		ts2r.Close()
		if code != http.StatusOK || !strings.HasPrefix(readyBody, "ready") || !strings.Contains(readyBody, "restore_mode="+wantMode) {
			t.Fatalf("dynamic=%v: /readyz = %d %q, want ready restore_mode=%s", dynamic, code, readyBody, wantMode)
		}
		ts2 := httptest.NewServer(second.handler())
		resp2, got2 := postQuery(t, ts2, req)
		ts2.Close()
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("dynamic=%v: restored flat query = %d", dynamic, resp2.StatusCode)
		}
		if !reflect.DeepEqual(want.Answers, got2.Answers) {
			t.Fatalf("dynamic=%v: restored flat answers diverge", dynamic)
		}

		// Defective sidecars: each boot logs, refreezes, and still serves
		// correct answers.
		good, err := os.ReadFile(sidecar)
		if err != nil {
			t.Fatal(err)
		}
		flipped := append([]byte(nil), good...)
		flipped[len(flipped)/2] ^= 0x20
		// The header is the 24 fixed bytes, one 24-byte table row per blob
		// and the 4-byte CRC; its CRC still matches, so the decoder must
		// catch the missing blobs by their offsets.
		headerOnly := good[:24+24*len(blobs)+4]
		legacy := snapshot.EncodeFlat(gen, append(blobs, snapshot.FlatBlob{Kind: flat.StoreKindSpatial, Data: blobs[0].Data}))
		for _, bad := range []struct {
			name string
			data []byte
			// whole: the sidecar is rejected as a whole, so every shard
			// refreezes; otherwise only the shard with the flipped blob.
			whole bool
		}{{"corrupt", flipped, false}, {"header-only", headerOnly, true}, {"spatial-blob", legacy, true}} {
			if err := os.WriteFile(sidecar, bad.data, 0o644); err != nil {
				t.Fatal(err)
			}
			third, err := newServer(cfg)
			if err != nil {
				t.Fatalf("dynamic=%v: %s sidecar aborted startup: %v", dynamic, bad.name, err)
			}
			refrozen := 0
			for _, fb := range third.eng.FrozenBackends() {
				if fb.Refreezes() > 0 {
					refrozen++
				}
			}
			if refrozen == 0 || (bad.whole && (refrozen != cfg.Shards || third.flatView != nil)) {
				t.Fatalf("dynamic=%v: %s sidecar: %d of %d shards refroze (view kept: %v)",
					dynamic, bad.name, refrozen, cfg.Shards, third.flatView != nil)
			}
			if third.restoreMode != "refrozen" {
				t.Fatalf("dynamic=%v: %s sidecar: restore mode %q, want refrozen", dynamic, bad.name, third.restoreMode)
			}
			ts3 := httptest.NewServer(third.handler())
			code, readyBody := getStatus(t, ts3, "/readyz")
			resp3, got3 := postQuery(t, ts3, req)
			ts3.Close()
			if code != http.StatusOK || !strings.Contains(readyBody, "restore_mode=refrozen") {
				t.Fatalf("dynamic=%v: %s sidecar: /readyz = %d %q, want ready restore_mode=refrozen", dynamic, bad.name, code, readyBody)
			}
			if resp3.StatusCode != http.StatusOK || !reflect.DeepEqual(want.Answers, got3.Answers) {
				t.Fatalf("dynamic=%v: %s sidecar: flat answers diverge (status %d)", dynamic, bad.name, resp3.StatusCode)
			}
		}
	}
}
