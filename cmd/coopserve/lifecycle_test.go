package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"fraccascade/internal/core"
	"fraccascade/internal/dynamic"
	"fraccascade/internal/flat"
	"fraccascade/internal/snapshot"
	"fraccascade/internal/tree"
)

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
	cfg := testConfig()
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
	cfg := testConfig()
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
	cfg := testConfig()
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
	s, err := newServer(testConfig())
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
	s := newServerShell(testConfig())
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

// TestServedShardsPinned: the default shape's frozen catalog shards — the
// blobs a build boot streams into the sidecar and a restart serves from —
// are the same bytes on every build. Any change to the generator's draws,
// the build or the freeze changes a checksum and fails here; a change to
// the snapshot encoding does not.
func TestServedShardsPinned(t *testing.T) {
	type blob struct {
		CRC  uint32 // IEEE
		Size int
	}
	want := []blob{{0x03aff4df, 337804}, {0xe21d492a, 341460}}
	frozen, _, err := newServerShell(defaultServerConfig()).buildShards(newCollector())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]blob, len(frozen))
	for i, f := range frozen {
		b, err := f.StoreBuilder().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got[i] = blob{crc32.ChecksumIEEE(b), len(b)}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("frozen shards %#x, want %#x", got, want)
	}
}

// TestServedGeometryPinned: the geo-mixed shape's frozen spatial store —
// seed 3, 8,192 regions and 8,192 tiles — is the same bytes on every
// build. A change to the generators' draws, the spatial build or the
// freeze changes its checksum and fails here.
func TestServedGeometryPinned(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.Seed, cfg.Regions, cfg.Tiles = 3, 8192, 8192
	_, sp, err := newServerShell(cfg).buildGeometry(newCollector())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const wantCRC, wantSize = 0x824c3004, 7343204
	if crc, n := crc32.ChecksumIEEE(b), len(b); crc != wantCRC || n != wantSize {
		t.Fatalf("frozen spatial store: %d bytes, CRC-32 %#08x; want %d bytes, %#08x", n, crc, wantSize, wantCRC)
	}
}

// TestServedCatalogsPinned: the default shape's catalog shards, built with
// a snapshot path, encode to the same snapshot bytes on every build. Any
// change to the generator's draw order, the catalogs it draws or the
// snapshot encoder changes the Binding and fails here.
func TestServedCatalogsPinned(t *testing.T) {
	want := snapshot.Binding{CRC: 0x28c196a2, Size: 45081}
	cfg := defaultServerConfig()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "shards.snap")
	frozen, bind, err := newServerShell(cfg).buildShards(newCollector())
	if err != nil {
		t.Fatal(err)
	}
	if len(frozen) != cfg.Shards || bind != want {
		t.Fatalf("built %d shards bound to %#x, want %d bound to %#x", len(frozen), bind, cfg.Shards, want)
	}
	gen, streamed, err := snapshot.Bind(cfg.SnapshotPath)
	if err != nil || gen != cfg.generation() || streamed != want {
		t.Fatalf("Bind = %#x %#x (err %v), want generation %#x and %#x", gen, streamed, err, cfg.generation(), want)
	}
}

// TestSnapshotLifecycle is the drain/restart loop: build writes a
// snapshot, the drain leaves it untouched (every shard is static, so the
// file is already current), and a new server restores from it — skipping
// the rebuild — with identical answers.
func TestSnapshotLifecycle(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "shards.snap")
	cfg.DrainTimeout = 2 * time.Second

	first, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.view != nil {
		t.Fatal("first boot claims a restore")
	}
	if n := counterValue(t, first, "serve.snapshot.saves"); n != 1 {
		t.Fatalf("save-on-build counter = %d, want 1", n)
	}
	saved, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(first.handler())
	var req queryRequest
	for i := 0; i < 8; i++ {
		req.Queries = append(req.Queries, wireQuery{Kind: "catalog", Shard: i % 2, Key: int64(97 * i), Leaf: int64(i)})
	}
	resp, want := postQuery(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed query = %d", resp.StatusCode)
	}

	// SIGTERM path minus the signal: drain, stop. A sidecar write in
	// progress holds the drain until it ends.
	first.beginDrain()
	first.writing.Store(true)
	if first.awaitDrain(10 * time.Millisecond) {
		t.Fatal("drain finished while a sidecar write was in progress")
	}
	first.writing.Store(false)
	if !first.awaitDrain(cfg.DrainTimeout) {
		t.Fatal("drain timed out")
	}
	ts.Close()
	if after, err := os.ReadFile(cfg.SnapshotPath); err != nil || !bytes.Equal(after, saved) {
		t.Fatalf("drain changed the build-time snapshot (err %v)", err)
	}

	second, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.view == nil {
		t.Fatal("restart rebuilt instead of restoring")
	}
	if n := counterValue(t, second, "serve.snapshot.loads"); n != 1 {
		t.Fatalf("snapshot load counter = %d, want 1", n)
	}
	if n := counterValue(t, second, "serve.snapshot.saves"); n != 0 {
		t.Fatalf("restore boot saved %d snapshots, want 0", n)
	}
	ts2 := httptest.NewServer(second.handler())
	resp2, got := postQuery(t, ts2, req)
	ts2.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restored query = %d", resp2.StatusCode)
	}
	if !reflect.DeepEqual(want.Answers, got.Answers) {
		t.Fatal("restored server answers diverge")
	}
}

// TestDrainWaitsForSidecarWrite: a drain that begins as soon as the
// server turns ready, while build may still be streaming the sidecar,
// returns only once the sidecar is in place, and the next boot maps it.
func TestDrainWaitsForSidecarWrite(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "shards.snap")
	s := newServerShell(cfg)
	done := make(chan error, 1)
	go func() { done <- s.build() }()
	for s.state.Load() != stateReady {
		select {
		case err := <-done:
			t.Fatalf("build returned %v without turning ready", err)
		default:
			time.Sleep(10 * time.Microsecond)
		}
	}
	s.beginDrain()
	if !s.awaitDrain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	if _, err := os.Stat(sidecarPath(cfg.SnapshotPath)); err != nil {
		t.Fatalf("drain returned before the sidecar was written: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if next, made := countingBoot(t, cfg); next.view == nil || made != 0 {
		t.Fatalf("the boot after the drain: mapped %v, %d shard structures made", next.view != nil, made)
	}
}

// TestSnapshotFallbackOnCorruption: a damaged snapshot logs and falls back
// to rebuilding every shard from the seed — startup never fails on bad
// bytes. The damage may be one the snapshot's own checksums catch (a
// flipped byte), or one only a decode of the last shard would (a corrupt
// count with its checksum re-sealed). Either way it changes the bytes the
// sidecar is bound to, so the boot maps nothing: it builds every shard,
// serves oracle-exact answers, and rewrites the snapshot and the sidecar,
// which the next boot maps.
func TestSnapshotFallbackOnCorruption(t *testing.T) {
	cfg := testConfig()
	req, check := oracleRequest(t, cfg, 24, 11)
	for _, tc := range []struct {
		name    string
		corrupt func(*testing.T, []byte)
	}{
		{"flipped byte", func(_ *testing.T, data []byte) { data[len(data)/2] ^= 0x40 }},
		{"last shard", corruptLastShardTree},
	} {
		cfg.SnapshotPath = filepath.Join(t.TempDir(), "shards.snap")
		if _, err := newServer(cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(cfg.SnapshotPath)
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(t, data)
		if err := os.WriteFile(cfg.SnapshotPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, made := countingBoot(t, cfg)
		if s.view != nil || counterValue(t, s, "serve.snapshot.loads") != 0 {
			t.Fatalf("%s: corrupt snapshot was served", tc.name)
		}
		if made != cfg.Shards {
			t.Fatalf("%s: boot made %d shard structures, want %d built", tc.name, made, cfg.Shards)
		}
		ts := httptest.NewServer(s.handler())
		resp, out := postQuery(t, ts, req)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: POST /query after the rebuild = %d", tc.name, resp.StatusCode)
		}
		check(t, out.Answers)
		next, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if next.view == nil {
			t.Fatalf("%s: the rebuild's sidecar was not mapped", tc.name)
		}
	}
}

// TestSnapshotFlagChangesRebuild: a restart whose -seed, -entries or
// -leaves differ from the boot that wrote the snapshot refuses the
// snapshot by its header's generation, before it maps anything, and builds
// every shard for its own flags; with the same flags it maps the sidecar.
// Either way it answers like the brute-force oracle for its flags, and the
// next boot with those flags maps.
func TestSnapshotFlagChangesRebuild(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(*serverConfig)
	}{
		{"unchanged", func(*serverConfig) {}},
		{"seed 7 to 8", func(c *serverConfig) { c.Seed = 8 }},
		{"entries 800 to 1600", func(c *serverConfig) { c.Entries = 1600 }},
		{"leaves 16 to 32", func(c *serverConfig) { c.Leaves = 32 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.SnapshotPath = filepath.Join(t.TempDir(), "shards.snap")
			if _, err := newServer(cfg); err != nil {
				t.Fatal(err)
			}
			next := cfg
			tc.change(&next)
			changed := next != cfg
			s, made := countingBoot(t, next)
			if (s.view != nil) == changed {
				t.Fatalf("mapped %v, want %v", s.view != nil, !changed)
			}
			want := 0 // a mapped restore makes no shard structure
			if changed {
				want = next.Shards
			}
			if made != want {
				t.Fatalf("boot made %d shard structures, want %d", made, want)
			}
			req, check := oracleRequest(t, next, 24, 5)
			check(t, queryAnswers(t, s, req))
			again, made := countingBoot(t, next)
			if again.view == nil || made != 0 {
				t.Fatalf("the boot after: mapped %v, %d shard structures made; want a mapped restore", again.view != nil, made)
			}
			check(t, queryAnswers(t, again, req))
		})
	}
}

// TestSidecarRestore: a restart maps the sidecar the build boot wrote,
// building no shard, and answers exactly as the build boot did. A sidecar
// that is truncated, corrupt, holds the wrong number of blobs or is bound
// to another snapshot, and a missing snapshot, send the restart to a build
// that rewrites both files. Every boot answers like the oracle, and the
// boot after each build maps again.
func TestSidecarRestore(t *testing.T) {
	cfg := testConfig()
	req, check := oracleRequest(t, cfg, 24, 13)
	// The sidecar's header and table: magic, version, blob count,
	// generation, one 24-byte row per blob, CRC. Its first blob starts at
	// 4096.
	header := int64(8 + 4 + 4 + 8 + 24*cfg.Shards + 4)
	other := testConfig()
	other.Seed++
	other.SnapshotPath = filepath.Join(t.TempDir(), "other.snap")
	if _, err := newServer(other); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, first *server, snap, side string)
		mapped bool // whether the restart maps; otherwise it builds
	}{
		{"intact", func(*testing.T, *server, string, string) {}, true},
		{"truncated to its header", func(t *testing.T, _ *server, _, side string) {
			truncate(t, side, header)
		}, false},
		{"truncated mid-blob", func(t *testing.T, _ *server, _, side string) {
			truncate(t, side, 4096+64)
		}, false},
		{"bit flipped in a blob", func(t *testing.T, _ *server, _, side string) {
			data, err := os.ReadFile(side)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-10] ^= 0x08
			if err := os.WriteFile(side, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"one blob for two shards", func(t *testing.T, first *server, _, side string) {
			v, err := snapshot.OpenFlat(side)
			if err != nil {
				t.Fatal(err)
			}
			bound := v.Generation
			v.Close()
			if err := snapshot.SaveFlat(side, bound, []*flat.StoreBuilder{first.catalogs[0].StoreBuilder()}); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"bound to another snapshot", func(t *testing.T, _ *server, _, side string) {
			data, err := os.ReadFile(sidecarPath(other.SnapshotPath))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(side, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"snapshot deleted", func(t *testing.T, _ *server, snap, _ string) {
			if err := os.Remove(snap); err != nil {
				t.Fatal(err)
			}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfg
			cfg.SnapshotPath = filepath.Join(t.TempDir(), "shards.snap")
			first, made := countingBoot(t, cfg)
			if first.view != nil || made != cfg.Shards {
				t.Fatalf("first boot: mapped %v, %d shard structures made", first.view != nil, made)
			}
			want := queryAnswers(t, first, req)
			check(t, want)
			tc.damage(t, first, cfg.SnapshotPath, sidecarPath(cfg.SnapshotPath))

			s, made := countingBoot(t, cfg)
			wantMade, loads := cfg.Shards, int64(0)
			if tc.mapped {
				wantMade, loads = 0, 1
			}
			if (s.view != nil) != tc.mapped || made != wantMade || counterValue(t, s, "serve.snapshot.loads") != loads {
				t.Fatalf("restart: mapped %v, %d shard structures made, %d loads counted; want mapped %v, %d made, %d loads",
					s.view != nil, made, counterValue(t, s, "serve.snapshot.loads"), tc.mapped, wantMade, loads)
			}
			got := queryAnswers(t, s, req)
			check(t, got)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("restart answers differ from the build boot's")
			}
			// A build rewrote what was missing or bad: the next boot maps.
			next, made := countingBoot(t, cfg)
			if next.view == nil || made != 0 {
				t.Fatalf("the boot after: mapped %v, %d shard structures made; want a mapped restore",
					next.view != nil, made)
			}
			check(t, queryAnswers(t, next, req))
		})
	}
}

// TestUnsavableSnapshotServes: a snapshot path inside a directory that
// does not exist cannot be saved. The boot still builds every shard, the
// ones the failed save did not ask for through buildShards' fallback loop,
// and answers oracle-exact; it counts no save, writes no sidecar and leaves
// no file behind.
func TestUnsavableSnapshotServes(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	cfg.SnapshotPath = filepath.Join(dir, "missing", "shards.snap")
	s, made := countingBoot(t, cfg)
	if s.view != nil || made != cfg.Shards || len(s.catalogs) != cfg.Shards {
		t.Fatalf("mapped %v, %d shard structures made, %d served; want %d built", s.view != nil, made, len(s.catalogs), cfg.Shards)
	}
	if n := counterValue(t, s, "serve.snapshot.saves"); n != 0 {
		t.Fatalf("serve.snapshot.saves = %d, want 0", n)
	}
	req, check := oracleRequest(t, cfg, 24, 17)
	check(t, queryAnswers(t, s, req))
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("the boot left %v in the snapshot's parent (err %v)", left, err)
	}
}

// truncate cuts the file at path to size bytes.
func truncate(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

// queryAnswers posts req to s and returns the answers of its 200.
func queryAnswers(t *testing.T, s *server, req queryRequest) []wireAnswer {
	t.Helper()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	resp, out := postQuery(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query = %d", resp.StatusCode)
	}
	return out.Answers
}

// TestBadShapeFlags: a shape the generators or the query handler cannot
// serve is refused by newServer with an error naming its flag, and a
// small shape that can be served boots and answers oracle-exact. None
// panics, and none reports ready while answering 500.
func TestBadShapeFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(*serverConfig)
		flag string // the flag the error names; empty: the shape must serve
	}{
		{"batch=0", func(c *serverConfig) { c.BatchSize = 0 }, "-batch"},
		{"batch=-1", func(c *serverConfig) { c.BatchSize = -1 }, "-batch"},
		{"shards=-1", func(c *serverConfig) { c.Shards = -1 }, "-shards"},
		{"entries=0", func(c *serverConfig) { c.Entries = 0 }, "-entries"},
		{"entries=-5", func(c *serverConfig) { c.Entries = -5 }, "-entries"},
		{"entries=1<<61", func(c *serverConfig) { c.Entries = 1 << 61 }, "-entries"},
		{"entries=MaxInt32+1", func(c *serverConfig) { c.Entries = math.MaxInt32 + 1 }, "-entries"},
		{"entries=1", func(c *serverConfig) { c.Entries = 1 }, ""},
		{"entries=10,leaves=128", func(c *serverConfig) { c.Entries, c.Leaves = 10, 128 }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.cfg(&cfg)
			s, err := newServer(cfg)
			if tc.flag != "" {
				if err == nil || !strings.Contains(err.Error(), tc.flag) {
					t.Fatalf("newServer error = %v, want one naming %s", err, tc.flag)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.handler())
			defer ts.Close()
			if code, body := getStatus(t, ts, "/readyz"); code != http.StatusOK {
				t.Fatalf("/readyz = %d %q", code, body)
			}
			req, check := oracleRequest(t, cfg, 8, 3)
			resp, out := postQuery(t, ts, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /query = %d", resp.StatusCode)
			}
			check(t, out.Answers)
		})
	}
}

// countingBoot builds a server with cfg and reports how many catalog
// shard structures its boot built. Startup never fails on a
// bad snapshot, so an error here fails the test.
func countingBoot(t *testing.T, cfg serverConfig) (*server, int) {
	t.Helper()
	s := newServerShell(cfg)
	shards := 0
	s.pointerBuilt = func(obj any) {
		if _, ok := obj.(*core.Structure); ok {
			shards++
		}
	}
	if err := s.build(); err != nil {
		t.Fatal(err)
	}
	return s, shards
}

// TestSnapshotShapeMismatchRebuilds: a snapshot whose manifest disagrees
// with the flags — another shard count, or a dynamic shard, which
// coopserve does not serve — is refused before anything is mapped, and the
// boot builds every shard from the seed instead.
func TestSnapshotShapeMismatchRebuilds(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "shards.snap")
	if _, err := newServer(cfg); err != nil {
		t.Fatal(err)
	}
	// Same file (2 shards), 3-shard flags.
	wide := cfg
	wide.Shards = 3
	s, built := countingBoot(t, wide)
	if s.view != nil || built != wide.Shards {
		t.Fatalf("2-shard snapshot for 3-shard flags: mapped %v, %d shard structures (want a rebuild of %d)",
			s.view != nil, built, wide.Shards)
	}

	// A 2-shard snapshot whose second shard is dynamic, written the way
	// E21 writes one.
	rng := rand.New(rand.NewSource(5))
	var shards []snapshot.Shard
	for i := 0; i < cfg.Shards; i++ {
		bt, err := tree.NewBalancedBinary(cfg.Leaves)
		if err != nil {
			t.Fatal(err)
		}
		cats := randomCatalogs(bt, cfg.Entries, rng)
		if i == 0 {
			st, err := core.Build(bt, cats, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, snapshot.Shard{Kind: snapshot.KindStatic, Static: st})
			continue
		}
		d, err := dynamic.New(bt, cats, core.Config{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, snapshot.Shard{Kind: snapshot.KindDynamic, Dynamic: d})
	}
	if err := snapshot.Save(cfg.SnapshotPath, &snapshot.Store{Shards: shards}); err != nil {
		t.Fatal(err)
	}
	s, built = countingBoot(t, cfg)
	if s.view != nil || built != cfg.Shards {
		t.Fatalf("snapshot with a dynamic shard: mapped %v, %d shard structures (want a rebuild of %d)",
			s.view != nil, built, cfg.Shards)
	}
}

// corruptLastShardTree lowers the node count at the start of the last
// shard's tree section by one and re-seals the section's checksum, so the
// file frames cleanly and only that shard's decode fails. A static shard
// ends with its tree and catalogs sections.
func corruptLastShardTree(t *testing.T, data []byte) {
	t.Helper()
	const headerSize, secHeader = 28, 12
	var starts []int
	for off := headerSize; off < len(data); {
		starts = append(starts, off)
		off += secHeader + int(binary.LittleEndian.Uint64(data[off+4:])) + 4
	}
	if len(starts) < 3 {
		t.Fatalf("snapshot has %d sections", len(starts))
	}
	sec := starts[len(starts)-2]
	if id := binary.LittleEndian.Uint32(data[sec:]); id != 2 {
		t.Fatalf("second-to-last section has id %d, want the tree section (2)", id)
	}
	plen := int(binary.LittleEndian.Uint64(data[sec+4:]))
	if data[sec+secHeader] < 2 || data[sec+secHeader] >= 0x80 {
		t.Fatalf("tree section starts with node count byte %#x", data[sec+secHeader])
	}
	data[sec+secHeader]--
	sum := sec + secHeader + plen
	binary.LittleEndian.PutUint32(data[sum:], crc32.Checksum(data[sec:sum], crc32.MakeTable(crc32.Castagnoli)))
}
