package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fraccascade/internal/catalog"
	"fraccascade/internal/engine"
	"fraccascade/internal/obs"
	"fraccascade/internal/tree"
)

// seedTraffic pushes a mixed workload through POST /query.
func seedTraffic(t *testing.T, ts *httptest.Server) {
	t.Helper()
	var req queryRequest
	for i := 0; i < 8; i++ {
		req.Queries = append(req.Queries,
			wireQuery{Kind: "catalog", Shard: i % 2, Key: int64(100 * i), Leaf: int64(i)},
			wireQuery{Kind: "point", X: int64(3*i + 1), Y: int64(5*i + 2)},
			wireQuery{Kind: "spatial", X: int64(i), Y: int64(2 * i), Z: int64(i % 4)},
		)
	}
	if resp, _ := postQuery(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding traffic failed: %d", resp.StatusCode)
	}
}

// injectEngineError runs one failing query (shard out of range) straight
// through the engine so the recorder and spans retain an error record;
// the HTTP layer validates shards away, so this is the only way in.
func injectEngineError(t *testing.T, s *server) {
	t.Helper()
	qs := []engine.Query{{
		Kind: engine.KindCatalog, Shard: 99, Key: catalog.Key(1),
		Path: s.catalogs[0].AppendRootPath(tree.NodeID(0), nil),
	}}
	_, rep, err := s.eng.Load().ExecuteBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 1 {
		t.Fatalf("injected batch reported %d errors, want 1", rep.Errors)
	}
}

type slowlogDump struct {
	Enabled bool               `json:"enabled"`
	Total   int64              `json:"total"`
	Errored int64              `json:"errored"`
	Dropped int64              `json:"dropped"`
	Count   int                `json:"count"`
	Records []obs.FlightRecord `json:"records"`
}

func getSlowlog(t *testing.T, ts *httptest.Server, params string) (int, slowlogDump) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/debug/slowlog" + params)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out slowlogDump
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// TestRequestIDCorrelation pins the correlation chain at the HTTP layer:
// an inbound X-Request-ID is echoed on the response header and body and
// stamped on every span and flight record of the request; without one a
// unique id is minted; a header with control bytes is discarded.
func TestRequestIDCorrelation(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	req := queryRequest{Queries: []wireQuery{
		{Kind: "catalog", Shard: 0, Key: 42, Leaf: 3},
		{Kind: "point", X: 5, Y: 9},
	}}
	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	hreq.Header.Set("X-Request-ID", "test-req-42")
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "test-req-42" {
		t.Fatalf("response header X-Request-ID = %q, want the inbound id", got)
	}
	if out.RequestID != "test-req-42" {
		t.Fatalf("response body request_id = %q", out.RequestID)
	}
	spans := 0
	for _, sp := range s.ring.Spans() {
		if sp.RequestID == "test-req-42" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("no spans carry the inbound request id")
	}
	_, dump := getSlowlog(t, ts, "")
	recs := 0
	for _, r := range dump.Records {
		if r.RequestID == "test-req-42" {
			recs++
		}
	}
	if recs != len(req.Queries) {
		t.Fatalf("slowlog retains %d records with the request id, want %d", recs, len(req.Queries))
	}

	// No inbound header: a unique id is minted and echoed.
	resp1, out1 := postQuery(t, ts, req)
	resp2, out2 := postQuery(t, ts, req)
	for _, pair := range [][2]string{
		{resp1.Header.Get("X-Request-ID"), out1.RequestID},
		{resp2.Header.Get("X-Request-ID"), out2.RequestID},
	} {
		if !strings.HasPrefix(pair[0], "cs-") || pair[0] != pair[1] {
			t.Fatalf("minted id header %q / body %q malformed", pair[0], pair[1])
		}
	}
	if out1.RequestID == out2.RequestID {
		t.Fatalf("minted ids collide: %q", out1.RequestID)
	}

	// A header that fails sanitization (embedded space) is discarded, not
	// echoed.
	hreq, _ = http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	hreq.Header.Set("X-Request-ID", "evil id")
	resp, err = ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); !strings.HasPrefix(got, "cs-") {
		t.Fatalf("hostile inbound id was echoed: %q", got)
	}
}

// TestSlowlogEndpoint drives the filterable flight-recorder dump: shard,
// kind, minimum latency, errors-only, and limit, plus parameter
// validation.
func TestSlowlogEndpoint(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	seedTraffic(t, ts)
	injectEngineError(t, s)

	code, dump := getSlowlog(t, ts, "")
	if code != http.StatusOK || !dump.Enabled {
		t.Fatalf("slowlog = %d enabled=%v, want 200 enabled", code, dump.Enabled)
	}
	// The seed workload can contain legitimately failing queries (e.g.
	// spatial points outside the complex), so pin the injected error as a
	// lower bound and check the errors filter agrees with the stats.
	if dump.Total != 25 || dump.Errored < 1 {
		t.Fatalf("slowlog total=%d errored=%d, want 25 and ≥ 1", dump.Total, dump.Errored)
	}
	if dump.Count != len(dump.Records) || dump.Count == 0 {
		t.Fatalf("slowlog count=%d records=%d", dump.Count, len(dump.Records))
	}
	for i := 1; i < len(dump.Records); i++ {
		a, b := dump.Records[i-1], dump.Records[i]
		if a.Time < b.Time {
			t.Fatal("slowlog records not newest-first")
		}
	}

	_, byShard := getSlowlog(t, ts, "?shard=1")
	if byShard.Count == 0 {
		t.Fatal("shard filter returned nothing")
	}
	for _, r := range byShard.Records {
		if r.Kind != "catalog" || r.Shard != 1 {
			t.Fatalf("shard=1 filter leaked record kind=%q shard=%d", r.Kind, r.Shard)
		}
	}
	_, byKind := getSlowlog(t, ts, "?kind=point")
	if byKind.Count == 0 {
		t.Fatal("kind filter returned nothing")
	}
	for _, r := range byKind.Records {
		if r.Kind != "point" {
			t.Fatalf("kind=point filter leaked %q", r.Kind)
		}
	}
	if _, slow := getSlowlog(t, ts, "?min_ms=100000"); slow.Count != 0 {
		t.Fatalf("min_ms=100000 matched %d records", slow.Count)
	}
	_, errs := getSlowlog(t, ts, "?errors=1")
	if int64(errs.Count) != dump.Errored {
		t.Fatalf("errors=1 returned %d records, stats say %d errored", errs.Count, dump.Errored)
	}
	for _, r := range errs.Records {
		if r.Err == "" {
			t.Fatalf("errors=1 record lacks error text: %+v", r)
		}
	}
	if _, lim := getSlowlog(t, ts, "?limit=2"); lim.Count != 2 {
		t.Fatalf("limit=2 returned %d records", lim.Count)
	}

	for _, bad := range []string{"?shard=x", "?shard=-2", "?min_ms=-1", "?min_ms=nope", "?min_ms=NaN", "?min_ms=inf", "?min_ms=1e300", "?limit=-3"} {
		if code, _ := getSlowlog(t, ts, bad); code != http.StatusBadRequest {
			t.Fatalf("slowlog%s = %d, want 400", bad, code)
		}
	}
}

func getStatusz(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /statusz = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("statusz Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestStatuszEndpoint checks the status page across its states: serving
// with traffic (quantiles, SLO, caches, slow and failed queries), fresh
// with no traffic, and still building.
func TestStatuszEndpoint(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	seedTraffic(t, ts)
	injectEngineError(t, s)

	body := getStatusz(t, ts)
	for _, want := range []string{
		"coopserve", "ready", "engine", "latency", "slo", "burn",
		"entry caches", "flight recorder",
		"slowest recent queries", "recent failures", "/debug/slowlog",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("statusz missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "no data") && !strings.Contains(body, "count") {
		t.Fatalf("statusz shows no latency data after traffic:\n%s", body)
	}

	// Fresh server: graceful with nothing recorded yet.
	s2 := testServer(t, nil)
	ts2 := httptest.NewServer(s2.routes())
	defer ts2.Close()
	if body := getStatusz(t, ts2); !strings.Contains(body, "no queries recorded yet") {
		t.Fatalf("fresh statusz not graceful:\n%s", body)
	}

	// Still building (no engine yet): the shell serves a building page.
	s3 := newServerShell(s.cfg)
	ts3 := httptest.NewServer(s3.routes())
	defer ts3.Close()
	if body := getStatusz(t, ts3); !strings.Contains(body, "building") {
		t.Fatalf("building statusz does not say so:\n%s", body)
	}
}

// TestStatuszDuringBuild polls /statusz from another goroutine while build
// runs, once through to ready and once with a drain begun mid-build (build
// then wires the engine but never turns ready). The page reads the engine
// that build publishes, so under -race a read that is not ordered after
// build's write fails here. Only the first poll is ordered before the
// build goes on; the pause after it leaves room for polls that nothing
// orders against the write.
func TestStatuszDuringBuild(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drain bool
	}{{"ready", false}, {"drain mid-build", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServerShell(testConfig())
			ts := httptest.NewServer(s.routes())
			defer ts.Close()
			stop, polled, firstPoll := make(chan struct{}), make(chan int), make(chan struct{})
			go func() {
				n := 0
				defer func() {
					if n == 0 {
						close(firstPoll) // no poll: release the build, fail below
					}
					polled <- n
				}()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := ts.Client().Get(ts.URL + "/statusz")
					if err != nil {
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if n++; n == 1 {
						close(firstPoll)
					}
				}
			}()
			paused := false
			s.pointerBuilt = func(any) {
				if paused {
					return
				}
				paused = true
				if tc.drain {
					s.beginDrain()
				}
				<-firstPoll
				time.Sleep(20 * time.Millisecond)
			}
			err := s.build()
			close(stop)
			n := <-polled
			if err != nil {
				t.Fatal(err)
			}
			if n < 2 {
				t.Fatalf("/statusz answered %d polls during the build, want at least 2", n)
			}
			want := "ready"
			if tc.drain {
				want = "draining"
			}
			if body := getStatusz(t, ts); !strings.Contains(body, want) || !strings.Contains(body, "<h2>engine</h2>") {
				t.Fatalf("statusz after the build does not show %s and the engine:\n%s", want, body)
			}
		})
	}
}

// TestTelemetrySurvivesRestart pins that flight records are in-memory
// only: a restart from the snapshot serves the same data but an empty
// recorder, and both telemetry endpoints degrade gracefully.
func TestTelemetrySurvivesRestart(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.snap")
	s := testServer(t, func(cfg *serverConfig) { cfg.SnapshotPath = snap })
	ts := httptest.NewServer(s.routes())
	seedTraffic(t, ts)
	_, dump := getSlowlog(t, ts, "")
	if dump.Total == 0 {
		t.Fatal("no records before restart")
	}
	ts.Close()

	s2 := testServer(t, func(cfg *serverConfig) { cfg.SnapshotPath = snap })
	if s2.view == nil {
		t.Fatal("restart did not restore from the snapshot")
	}
	ts2 := httptest.NewServer(s2.routes())
	defer ts2.Close()
	code, dump := getSlowlog(t, ts2, "")
	if code != http.StatusOK || !dump.Enabled || dump.Total != 0 || dump.Count != 0 {
		t.Fatalf("post-restart slowlog = %d %+v, want 200 enabled and empty", code, dump)
	}
	if body := getStatusz(t, ts2); !strings.Contains(body, "no queries recorded yet") {
		t.Fatalf("post-restart statusz not graceful:\n%s", body)
	}
}

// TestTelemetryErrorAgreement pins the serving-layer failure contract:
// after a request whose deadline expires mid-flight, the serve.query.errors
// counter, the spans' error attributes, and the slowlog all count the same
// failures.
func TestTelemetryErrorAgreement(t *testing.T) {
	s := testServer(t, func(cfg *serverConfig) { cfg.RequestTimeout = time.Nanosecond })
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	req := queryRequest{Queries: []wireQuery{
		{Kind: "catalog", Shard: 0, Key: 7, Leaf: 2},
		{Kind: "point", X: 1, Y: 1},
		{Kind: "spatial", X: 2, Y: 2, Z: 1},
	}}
	resp, _ := postQuery(t, ts, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired request = %d, want 504", resp.StatusCode)
	}

	counted := s.reg.Snapshot().Counters["serve.query.errors"]
	if counted == 0 {
		t.Fatal("serve.query.errors did not count the deadline failures")
	}
	spanErrs := int64(0)
	for _, sp := range s.ring.Spans() {
		if sp.Parent == 0 && sp.Err != "" {
			spanErrs++
		}
	}
	st := s.recorder.Stats()
	if spanErrs != counted || st.Errored != counted {
		t.Fatalf("failure counts disagree: counter=%d spans=%d recorder=%d",
			counted, spanErrs, st.Errored)
	}
	_, dump := getSlowlog(t, ts, "?errors=1")
	if int64(dump.Count) != counted {
		t.Fatalf("slowlog retains %d error records, counter says %d", dump.Count, counted)
	}
	for _, r := range dump.Records {
		if r.Err == "" {
			t.Fatalf("errors=1 record lacks error text: %+v", r)
		}
	}
}

// TestMetricsTelemetryFamilies checks the new gauge families are exported
// and the enabled /metrics page stays lint-clean.
func TestMetricsTelemetryFamilies(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	seedTraffic(t, ts)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.LintProm(string(text)); len(errs) != 0 {
		t.Fatalf("/metrics fails Prometheus lint:\n%s", strings.Join(errs, "\n"))
	}
	for _, want := range []string{
		"serve_latency_window_p50_ns", "serve_latency_window_p95_ns",
		"serve_latency_window_p99_ns", "serve_latency_window_count",
		"serve_slo_latency_burn_short_milli", "serve_slo_latency_burn_long_milli",
		"serve_slo_latency_threshold_ns", "serve_slo_latency_objective_milli",
		"serve_flight_recorded", "serve_flight_errored", "serve_flight_dropped",
		"serve_query_errors",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	// The workload may contain legitimately failing queries; whatever the
	// count, the serving counter and the recorder must agree on it.
	snap := s.reg.Snapshot()
	if snap.Counters["serve.query.errors"] != s.recorder.Stats().Errored {
		t.Fatalf("serve.query.errors = %d, recorder errored = %d",
			snap.Counters["serve.query.errors"], s.recorder.Stats().Errored)
	}
	if g := snap.Funcs["serve.flight.recorded"]; g != 24 {
		t.Fatalf("serve.flight.recorded = %d, want 24", g)
	}
	if g := snap.Funcs["serve.latency.window.count"]; g != 24 {
		t.Fatalf("serve.latency.window.count = %d, want 24", g)
	}
	if g := snap.Funcs["serve.latency.window.p50_ns"]; g <= 0 {
		t.Fatalf("serve.latency.window.p50_ns = %d, want > 0", g)
	}
	if g := snap.Gauges["serve.slo.latency.threshold_ns"]; g != int64(250*time.Millisecond) {
		t.Fatalf("serve.slo.latency.threshold_ns = %d", g)
	}
}

// TestSLOObjectiveReported checks that /metrics and /statusz report the
// objective the SLO enforces, the constant 0.99 within 250ms: the gauge
// reads 990 and the heading 99.0% under 250ms, the values the burn rates
// use.
func TestSLOObjectiveReported(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "\nserve_slo_latency_objective_milli 990\n") {
		t.Fatalf("/metrics does not report objective_milli 990:\n%s", text)
	}
	if body := getStatusz(t, ts); !strings.Contains(body, "slo: 99.0% under 250ms") {
		t.Fatalf("/statusz does not head the SLO with the enforced 99.0%%:\n%s", body)
	}
}

// TestSanitizeRequestID covers the header sanitizer's edges.
func TestSanitizeRequestID(t *testing.T) {
	long := strings.Repeat("a", 200)
	for in, want := range map[string]string{
		"":              "",
		"ok-id_42":      "ok-id_42",
		"has space":     "",
		"ctrl\x01byte":  "",
		"utf8-\xc3\xa9": "",
		long:            long[:128],
	} {
		if got := sanitizeRequestID(in); got != want {
			t.Fatalf("sanitizeRequestID(%q) = %q, want %q", in, got, want)
		}
	}
}
