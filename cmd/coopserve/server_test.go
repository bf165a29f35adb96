package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/obs"
	"fraccascade/internal/spatial"
	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
)

// testConfig is the configuration every coopserve test starts from: the
// served defaults (telemetry, deadlines, admission control) over small
// structures, so the suite stays fast.
func testConfig() serverConfig {
	cfg := defaultServerConfig()
	cfg.Seed, cfg.Procs, cfg.BatchSize = 7, 512, 8
	cfg.Leaves, cfg.Entries, cfg.Shards = 1<<4, 800, 2
	cfg.Regions, cfg.Tiles = 24, 20
	return cfg
}

// testServer builds a server with testConfig, changed by mutate when it is
// not nil.
func testServer(tb testing.TB, mutate func(*serverConfig)) *server {
	tb.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := newServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func postQuery(t *testing.T, ts *httptest.Server, req queryRequest) (*http.Response, queryResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, out
}

// TestQueryEndpoint drives all three query kinds through POST /query and
// checks the wire answers carry the cost model: per-answer phase
// decompositions summing to the step count, cache attribution on catalog
// answers, and batch reports covering the whole request.
func TestQueryEndpoint(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	var req queryRequest
	for i := 0; i < 10; i++ {
		req.Queries = append(req.Queries,
			wireQuery{Kind: "catalog", Shard: i % 2, Key: int64(100 * i), Leaf: int64(i)},
			wireQuery{Kind: "point", X: int64(3*i + 1), Y: int64(5*i + 2)},
			wireQuery{Kind: "spatial", X: int64(i), Y: int64(2 * i), Z: int64(i % 4)},
		)
	}
	resp, out := postQuery(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query = %d", resp.StatusCode)
	}
	if len(out.Answers) != len(req.Queries) {
		t.Fatalf("answers = %d, want %d", len(out.Answers), len(req.Queries))
	}
	// 30 queries at batch size 8 → 4 engine batches.
	if len(out.Batches) != 4 {
		t.Fatalf("batches = %d, want 4", len(out.Batches))
	}
	var reported int
	for _, b := range out.Batches {
		reported += b.B
		if b.Steps < 0 || b.PShare < 1 {
			t.Fatalf("malformed batch report: %+v", b)
		}
	}
	if reported != len(req.Queries) {
		t.Fatalf("batch reports cover %d queries, want %d", reported, len(req.Queries))
	}
	for i, a := range out.Answers {
		if a.Err != "" {
			continue
		}
		var phased int
		for _, n := range a.PhaseSteps {
			phased += n
		}
		if phased != a.Steps {
			t.Fatalf("answer %d (%s): phase_steps sum to %d, steps = %d (%v)",
				i, a.Kind, phased, a.Steps, a.PhaseSteps)
		}
		if a.Kind == "catalog" && a.Cache == "" {
			t.Fatalf("answer %d: catalog answer missing cache attribution", i)
		}
		if a.Kind != "catalog" && a.Cache != "" {
			t.Fatalf("answer %d (%s): unexpected cache attribution %q", i, a.Kind, a.Cache)
		}
	}
}

// TestQueryEndpointRejections covers the request-validation paths.
func TestQueryEndpointRejections(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", resp.StatusCode)
	}

	resp, err = ts.Client().Post(ts.URL+"/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}

	for name, bad := range map[string]queryRequest{
		"empty":        {},
		"unknown kind": {Queries: []wireQuery{{Kind: "mystery"}}},
		"bad shard":    {Queries: []wireQuery{{Kind: "catalog", Shard: 99}}},
		"bad leaf":     {Queries: []wireQuery{{Kind: "catalog", Shard: 0, Leaf: 1 << 30}}},
	} {
		resp, _ := postQuery(t, ts, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestMetricsEndpoint checks /metrics is lint-clean Prometheus text and
// reflects traffic served through /query.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	req := queryRequest{Queries: []wireQuery{
		{Kind: "point", X: 11, Y: 3}, {Kind: "spatial", X: 1, Y: 2, Z: 0},
	}}
	if resp, _ := postQuery(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding query failed: %d", resp.StatusCode)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.LintProm(string(text)); len(errs) != 0 {
		t.Fatalf("/metrics fails Prometheus lint:\n%s", strings.Join(errs, "\n"))
	}
	for _, want := range []string{"engine_queries", "engine_batch_steps", "engine_phase_"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

func TestHealthEndpoints(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	s.state.Store(stateBuilding)
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz while building = %d, want 503", resp.StatusCode)
	}
}

// TestSpansEndpoint replays ring history as JSONL and checks the spans
// decode with phase children referencing their parents.
func TestSpansEndpoint(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	req := queryRequest{Queries: []wireQuery{
		{Kind: "point", X: 9, Y: 4}, {Kind: "point", X: 2, Y: 8},
		{Kind: "spatial", X: 3, Y: 1, Z: 1},
	}}
	if resp, _ := postQuery(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatal("seeding query failed")
	}

	resp, err := ts.Client().Get(ts.URL + "/spans?replay=1&limit=64")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /spans = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	parents := map[uint64]bool{}
	var queries, children int
	for dec.More() {
		var sp obs.Span
		if err := dec.Decode(&sp); err != nil {
			t.Fatal(err)
		}
		if sp.Parent == 0 {
			queries++
			parents[sp.ID] = true
		} else {
			children++
			if sp.Phase == "" {
				t.Fatalf("child span %d lacks phase label", sp.ID)
			}
			if !parents[sp.Parent] {
				t.Fatalf("child %d references unseen parent %d", sp.ID, sp.Parent)
			}
		}
	}
	if queries != len(req.Queries) {
		t.Fatalf("replayed %d query spans, want %d", queries, len(req.Queries))
	}
	if children == 0 {
		t.Fatal("no phase child spans replayed")
	}

	badResp, err := ts.Client().Get(ts.URL + "/spans?limit=nope")
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", badResp.StatusCode)
	}
}

// TestSpansFollowMode exercises GET /spans?replay=1&follow=1 end to end:
// the replay of queries posted before the stream opened, then the live
// tail of queries posted after, are exactly the ring's spans, in order,
// with no gap or overlap; limit closes a follow stream; and a client that
// disconnects ends the handler (httptest.Server.Close waits for it).
func TestSpansFollowMode(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	closed := false
	defer func() {
		if !closed {
			ts.Close()
		}
	}()

	traffic := queryRequest{Queries: []wireQuery{
		{Kind: "point", X: 3, Y: 4}, {Kind: "spatial", X: 1, Y: 1, Z: 0},
		{Kind: "catalog", Shard: 0, Key: 9, Leaf: 1},
	}}
	if resp, _ := postQuery(t, ts, traffic); resp.StatusCode != http.StatusOK {
		t.Fatal("seeding query failed")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/spans?replay=1&follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /spans follow = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var got []obs.Span
	next := func() {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("follow stream ended after %d spans: %v", len(got), sc.Err())
		}
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("follow line %d undecodable: %v", len(got), err)
		}
		got = append(got, sp)
	}
	// The first replayed span proves the handler has subscribed: replay
	// and tail come from one Subscribe.
	next()
	for i := 0; i < 2; i++ {
		if resp, _ := postQuery(t, ts, traffic); resp.StatusCode != http.StatusOK {
			t.Fatal("tail query failed")
		}
	}
	want := s.ring.Spans()
	for len(got) < len(want) {
		next()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay plus tail:\n got %+v\nwant %+v", got, want)
	}
	children := 0
	for _, sp := range got {
		if sp.Parent != 0 {
			children++
		}
	}
	if children == 0 {
		t.Fatalf("follow stream carries no phase child spans among %d", len(got))
	}

	// limit closes a follow stream after that many spans, here two spans
	// into the tail. The response headers arrive only once the handler
	// has subscribed, so the query posted after them reaches the tail.
	limit := len(want) + 2
	lresp, err := ts.Client().Get(ts.URL + "/spans?replay=1&follow=1&limit=" + strconv.Itoa(limit))
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := postQuery(t, ts, traffic); resp.StatusCode != http.StatusOK {
		t.Fatal("tail query failed")
	}
	body, err := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(body), "\n"); n != limit {
		t.Fatalf("limit=%d follow stream delivered %d spans", limit, n)
	}

	// A client that disconnects ends the handler, whose deferred cancel
	// drops the subscription: Close returns only once it has.
	cancel()
	closed = true
	done := make(chan struct{})
	go func() {
		ts.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("follow handler still running after the client disconnected")
	}
}

func TestPprofIndexEndpoint(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}

// TestStepsProfileEndpoint fetches the simulated-steps profile, verifies it
// is a valid gzipped profile.proto mentioning the engine phases, and — when
// the go tool is on PATH — feeds it to `go tool pprof -top` to prove the
// acceptance criterion end to end.
func TestStepsProfileEndpoint(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	var req queryRequest
	for i := 0; i < 16; i++ {
		req.Queries = append(req.Queries,
			wireQuery{Kind: "point", X: int64(7 * i), Y: int64(3 * i)},
			wireQuery{Kind: "catalog", Shard: i % 2, Key: int64(50 * i), Leaf: int64(i % 8)},
		)
	}
	if resp, _ := postQuery(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatal("seeding query failed")
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/steps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/steps = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("steps profile is not gzipped: %v", err)
	}
	proto, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// "steps" is the sample type; root-coop and hop-descent always accrue
	// steps on this workload (seq-tail can legitimately be zero and is
	// omitted, so it is not asserted).
	for _, phase := range []string{"steps", "root-coop", "hop-descent"} {
		if !bytes.Contains(proto, []byte(phase)) {
			t.Fatalf("steps profile missing %q in string table", phase)
		}
	}

	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH; skipping pprof -top check")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "steps.pb.gz")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(goTool, "tool", "pprof", "-top", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("root-coop")) || !bytes.Contains(out, []byte("steps")) {
		t.Fatalf("pprof -top output does not break down phases:\n%s", out)
	}
}

// TestNoPointerGeometryAfterBuild pins the memory property of serving
// only frozen layouts, on a build boot and a mapped restore: once build
// returns, no pointer structure it created is reachable — the subdivision,
// the complex, both locators and every catalog shard's core.Structure —
// and a mapped restore creates no shard structure at all. Each gets a finalizer that must run after a few GCs
// while the server stays live, so an edit that keeps one (a server field,
// an engine reference, a closure) fails here. The server must still answer
// every catalog, planar and spatial query like the brute-force oracle over
// the same seeded structures.
func TestNoPointerGeometryAfterBuild(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "shards.snap")
	req, check := oracleRequest(t, cfg, 40, 99)
	for _, mode := range []string{"built", "mapped"} {
		shardsMade := int32(cfg.Shards)
		if mode == "mapped" {
			shardsMade = 0 // the built boot wrote the sidecar this one maps
		}
		s := newServerShell(cfg)
		var built, shards, freed atomic.Int32
		s.pointerBuilt = func(obj any) {
			built.Add(1)
			if _, ok := obj.(*core.Structure); ok {
				shards.Add(1)
			}
			runtime.SetFinalizer(obj, func(any) { freed.Add(1) })
		}
		if err := s.build(); err != nil {
			t.Fatal(err)
		}
		if (s.view != nil) != (mode == "mapped") {
			t.Fatalf("%s: boot mapped the sidecar: %v", mode, s.view != nil)
		}
		if n, m := built.Load(), shards.Load(); n != 4+shardsMade || m != shardsMade {
			t.Fatalf("%s: build reported %d pointer structures (%d catalog shards), want 4 geometry and %d shards",
				mode, n, m, shardsMade)
		}
		// Finalizers of objects that point at each other run one GC apart.
		for i := 0; i < 50 && freed.Load() < built.Load(); i++ {
			runtime.GC()
			time.Sleep(5 * time.Millisecond)
		}
		if freed.Load() != built.Load() {
			t.Fatalf("%s: %d of %d pointer structures still reachable after build",
				mode, built.Load()-freed.Load(), built.Load())
		}
		ts := httptest.NewServer(s.handler())
		resp, out := postQuery(t, ts, req)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: POST /query = %d", mode, resp.StatusCode)
		}
		check(t, out.Answers)
		runtime.KeepAlive(s)
	}
}

// oracleRequest draws n catalog, n planar and n spatial queries inside
// what a server with cfg serves, and returns them with a check that holds
// a response's answers to brute force over the structures regenerated
// from cfg's seeds.
func oracleRequest(tb testing.TB, cfg serverConfig, n int, seed int64) (queryRequest, func(testing.TB, []wireAnswer)) {
	tb.Helper()
	sub, cx := servedGeometry(tb, cfg)
	trees, cats := servedCatalogs(tb, cfg)
	var req queryRequest
	var want [][]wireResult
	var located []int
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		shard := rng.Intn(cfg.Shards)
		leaf := rng.Intn(trees[shard].N())
		key := rng.Int63n(int64(cfg.Entries) * 8)
		req.Queries = append(req.Queries, wireQuery{Kind: "catalog", Shard: shard, Key: key, Leaf: int64(leaf)})
		var results []wireResult
		for _, v := range trees[shard].RootPath(tree.NodeID(leaf)) {
			results = append(results, bruteSucc(cats[shard][v], catalog.Key(key), v))
		}
		want = append(want, results)
		located = append(located, 0)

		pt, region := sub.RandomInteriorPoint(rng)
		x, y, z, _ := cx.RandomInteriorPoint(rng)
		cell, err := cx.LocateBrute(x, y, z)
		if err != nil {
			tb.Fatal(err)
		}
		req.Queries = append(req.Queries, wireQuery{Kind: "point", X: pt.X, Y: pt.Y}, wireQuery{Kind: "spatial", X: x, Y: y, Z: z})
		want = append(want, nil, nil)
		located = append(located, region, cell)
	}
	check := func(tb testing.TB, answers []wireAnswer) {
		tb.Helper()
		if len(answers) != len(req.Queries) {
			tb.Fatalf("%d answers for %d queries", len(answers), len(req.Queries))
		}
		for i, a := range answers {
			if a.Err != "" {
				tb.Fatalf("answer %d (%s): %s", i, a.Kind, a.Err)
			}
			if got := a.Region + a.Cell; got != located[i] {
				tb.Fatalf("answer %d (%s): located %d, oracle %d", i, a.Kind, got, located[i])
			}
			if !reflect.DeepEqual(a.Results, want[i]) {
				tb.Fatalf("answer %d (%s): results %+v, oracle %+v", i, a.Kind, a.Results, want[i])
			}
		}
	}
	return req, check
}

// bruteSucc finds, by a linear scan, the smallest native key >= y in node
// v's catalog: the answer cascade.SearchPath gives at v.
func bruteSucc(c catalog.Catalog, y catalog.Key, v tree.NodeID) wireResult {
	for _, e := range c.Entries() {
		if e.Native && e.Key >= y {
			return wireResult{Node: int64(v), Key: int64(e.Key), Payload: int64(e.Payload)}
		}
	}
	panic("catalog without its +inf sentinel")
}

// servedCatalogs regenerates the trees and catalogs of the catalog shards
// a server with cfg builds, with buildShards' seed and draw order.
func servedCatalogs(tb testing.TB, cfg serverConfig) ([]*tree.Tree, [][]catalog.Catalog) {
	tb.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))
	trees := make([]*tree.Tree, cfg.Shards)
	cats := make([][]catalog.Catalog, cfg.Shards)
	for i := range trees {
		bt, err := tree.NewBalancedBinary(cfg.Leaves)
		if err != nil {
			tb.Fatal(err)
		}
		trees[i], cats[i] = bt, randomCatalogs(bt, cfg.Entries, rng)
	}
	return trees, cats
}

// servedGeometry regenerates the subdivision and complex a server with cfg
// serves, with build's seed derivation and draw order.
func servedGeometry(tb testing.TB, cfg serverConfig) (*subdivision.Subdivision, *spatial.Complex) {
	tb.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x67656f6d)) // "geom"
	sub, err := subdivision.Generate(cfg.Regions, 24, rng)
	if err != nil {
		tb.Fatal(err)
	}
	cx, err := spatial.Generate(cfg.Tiles, 4, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return sub, cx
}
