package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fraccascade/internal/obs"
)

// testServer builds a small server so the httptest suite stays fast.
func testServer(t testing.TB) *server {
	t.Helper()
	cfg := serverConfig{
		Seed: 7, Procs: 512, BatchSize: 8,
		Leaves: 1 << 4, Entries: 800, Shards: 2,
		Regions: 24, Tiles: 20, RingSize: 1024,
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
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
	s := testServer(t)
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
	s := testServer(t)
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
	s := testServer(t)
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
	s := testServer(t)
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
	s := testServer(t)
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

func TestPprofIndexEndpoint(t *testing.T) {
	s := testServer(t)
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
	s := testServer(t)
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
