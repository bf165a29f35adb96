package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/engine"
)

// The reference response structs: what json.NewEncoder(w).Encode writes
// for a queryResponse is the POST /query response format, and the oracle
// appendQueryResponse is held to byte for byte.

// wireResult is one per-node catalog answer.
type wireResult struct {
	Node    int64 `json:"node"`
	Key     int64 `json:"key"`
	Payload int64 `json:"payload"`
}

// wireAnswer is one query's response entry.
type wireAnswer struct {
	Kind       string         `json:"kind"`
	P          int            `json:"p"`
	Steps      int            `json:"steps"`
	Rounds     int            `json:"rounds"`
	Cache      string         `json:"cache,omitempty"`
	PhaseSteps map[string]int `json:"phase_steps,omitempty"`
	Results    []wireResult   `json:"results,omitempty"`
	Region     int            `json:"region,omitempty"`
	Cell       int            `json:"cell,omitempty"`
	Err        string         `json:"err,omitempty"`
}

// wireBatchReport mirrors engine.BatchReport plus throughput.
type wireBatchReport struct {
	B           int     `json:"b"`
	PShare      int     `json:"p_share"`
	Steps       int     `json:"steps"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	Errors      int     `json:"errors"`
	Throughput  float64 `json:"queries_per_step"`
}

type queryResponse struct {
	// RequestID is the correlation id (inbound X-Request-ID honored,
	// minted otherwise) — also echoed as the X-Request-ID response header
	// and stamped on every span and flight record of the request.
	RequestID string            `json:"request_id"`
	Batches   []wireBatchReport `json:"batches"`
	Answers   []wireAnswer      `json:"answers"`
}

// toWireAnswer converts an engine answer to its reference wire entry. The
// phase map holds the positive PhaseSteps slots, as the engine's map of
// non-zero phases did before it became a fixed array.
func toWireAnswer(a *engine.Answer) wireAnswer {
	wa := wireAnswer{
		Kind:   a.Query.Kind.String(),
		P:      a.P,
		Steps:  a.Steps,
		Rounds: a.Rounds,
		Region: a.Region,
		Cell:   a.Cell,
	}
	for slot, n := range a.PhaseSteps {
		if n > 0 {
			if wa.PhaseSteps == nil {
				wa.PhaseSteps = map[string]int{}
			}
			wa.PhaseSteps[engine.PhaseLabels[slot]] = n
		}
	}
	if a.Query.Kind == engine.KindCatalog && a.Err == nil {
		switch {
		case a.CacheHit:
			wa.Cache = "hit"
		case a.CacheStale:
			wa.Cache = "stale"
		default:
			wa.Cache = "miss"
		}
	}
	for _, r := range a.Results {
		wa.Results = append(wa.Results, wireResult{Node: int64(r.Node), Key: int64(r.Key), Payload: int64(r.Payload)})
	}
	if a.Err != nil {
		wa.Err = a.Err.Error()
	}
	return wa
}

// referenceResponse is the reflection encoding of a response.
func referenceResponse(t testing.TB, reqID string, reports []engine.BatchReport, answers [][]engine.Answer) []byte {
	t.Helper()
	resp := queryResponse{RequestID: reqID}
	for _, rep := range reports {
		resp.Batches = append(resp.Batches, wireBatchReport{
			B: rep.B, PShare: rep.PShare, Steps: rep.Steps,
			CacheHits: rep.CacheHits, CacheMisses: rep.CacheMisses,
			Errors: rep.Errors, Throughput: rep.Throughput(),
		})
	}
	for _, batch := range answers {
		for i := range batch {
			resp.Answers = append(resp.Answers, toWireAnswer(&batch[i]))
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// awkwardStrings need escaping or replacement on the wire: HTML-unsafe
// bytes, quotes and backslashes, control bytes, invalid UTF-8, the JSON
// line separators, DEL, and plain or empty text for contrast.
var awkwardStrings = []string{
	"", "plain", `a<b>&c"d\e`, "tab\tnew\nline\r\x00\x01\x1f", "bad\xffutf8\xc3",
	"sep\u2028par\u2029", "del\x7f", "ünïcödé ✓", "engine: catalog shard 9 out of range [0, 2)",
	"context deadline exceeded",
}

// randomRequestID draws a request id: minted-style, awkward, or random
// printable ASCII as sanitizeRequestID lets through.
func randomRequestID(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("cs-%06x-%06d", rng.Intn(1<<24), rng.Intn(1e6))
	case 1:
		return awkwardStrings[rng.Intn(len(awkwardStrings))]
	}
	b := make([]byte, rng.Intn(24))
	for i := range b {
		b[i] = byte(0x21 + rng.Intn(0x7f-0x21))
	}
	return string(b)
}

// randomInt draws a small, zero, negative or extreme int.
func randomInt(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return -rng.Intn(100)
	case 2:
		return []int{math.MaxInt64, math.MinInt64, 1 << 40}[rng.Intn(3)]
	}
	return rng.Intn(5000)
}

func randomAnswer(rng *rand.Rand) engine.Answer {
	a := engine.Answer{
		Query:      engine.Query{Kind: engine.Kind(rng.Intn(4)), Shard: rng.Intn(3)},
		P:          randomInt(rng),
		Steps:      randomInt(rng),
		Rounds:     randomInt(rng),
		CacheHit:   rng.Intn(3) == 0,
		CacheStale: rng.Intn(3) == 0,
		FingerHit:  rng.Intn(3) == 0,
	}
	for slot := range a.PhaseSteps {
		if rng.Intn(2) == 0 {
			a.PhaseSteps[slot] = rng.Intn(40)
		}
	}
	if rng.Intn(2) == 0 {
		a.Region = randomInt(rng)
	}
	if rng.Intn(2) == 0 {
		a.Cell = randomInt(rng)
	}
	switch rng.Intn(3) {
	case 0:
		a.Results = []cascade.Result{}
	case 1:
		for i := rng.Intn(9); i > 0; i-- {
			a.Results = append(a.Results, cascade.Result{
				Node:    int32(rng.Intn(1 << 20)),
				Key:     []catalog.Key{catalog.PlusInf, math.MinInt64, rng.Int63(), -rng.Int63n(1000)}[rng.Intn(4)],
				Payload: []int32{catalog.NoPayload, math.MaxInt32, int32(rng.Intn(100))}[rng.Intn(3)],
			})
		}
	}
	if rng.Intn(3) == 0 {
		a.Err = errors.New(awkwardStrings[rng.Intn(len(awkwardStrings))])
	}
	return a
}

func randomReport(rng *rand.Rand) engine.BatchReport {
	rep := engine.BatchReport{
		B: 1 + rng.Intn(64), PShare: 1 + rng.Intn(4096),
		CacheHits: rng.Intn(64), CacheMisses: rng.Intn(64), Errors: rng.Intn(4),
	}
	switch rng.Intn(4) {
	case 0: // a batch of zero-step answers: throughput 0
	case 1: // throughput below 1e-6: exponent form
		rep.Steps = 1 << (30 + rng.Intn(30))
	default:
		rep.Steps = 1 + rng.Intn(60)
	}
	return rep
}

// TestQueryResponseByteIdentity is the encoder's oracle: on seeded random
// responses — every kind (and an unknown one), cache hit/stale/miss/finger,
// errors and request ids full of bytes that need escaping, zero and
// non-zero region and cell, nil, empty and full result lists, zero-step
// batches, and several batches per request — appendQueryResponse writes
// exactly the bytes json.NewEncoder writes for the reference structs.
func TestQueryResponseByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var dst []byte
	for iter := 0; iter < 2000; iter++ {
		reqID := randomRequestID(rng)
		var reports []engine.BatchReport
		var answers [][]engine.Answer
		for b := rng.Intn(5); b > 0; b-- {
			reports = append(reports, randomReport(rng))
			batch := make([]engine.Answer, rng.Intn(12))
			for i := range batch {
				batch[i] = randomAnswer(rng)
			}
			answers = append(answers, batch)
		}
		want := referenceResponse(t, reqID, reports, answers)
		dst = appendQueryResponse(dst[:0], reqID, reports, answers)
		if !bytes.Equal(dst, want) {
			t.Fatalf("iteration %d: encoder output differs from encoding/json\n got: %q\nwant: %q", iter, dst, want)
		}
	}
}

// TestAppendJSONFloat covers encoding/json's float format at its cutoffs.
func TestAppendJSONFloat(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, 2.5, 32.0 / 13, 1e-6, 9.99e-7, 1e-7, 1.5e-10, 1e20, 1e21, 1.2345e22, -3e-8, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// TestQueryResponseOverHTTP checks the served bytes against the reference
// end to end: a mixed request longer than the batch size, under a request
// id full of HTML-unsafe bytes, decodes into the reference structs, and
// re-encoding those with encoding/json reproduces the body exactly.
func TestQueryResponseOverHTTP(t *testing.T) {
	s := testServer(t)
	var req queryRequest
	for i := 0; i < 20; i++ {
		req.Queries = append(req.Queries,
			wireQuery{Kind: "catalog", Shard: i % 2, Key: int64(37 * i), Leaf: int64(i % 16)},
			wireQuery{Kind: "point", X: int64(3*i + 1), Y: int64(5*i + 2)},
			wireQuery{Kind: "spatial", X: int64(i), Y: int64(2 * i), Z: int64(i % 4)},
		)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	r.Header.Set("X-Request-ID", `id<&>"\x`)
	w := httptest.NewRecorder()
	s.handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /query = %d: %s", w.Code, w.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != `id<&>"\x` || len(resp.Batches) != 8 || len(resp.Answers) != len(req.Queries) {
		t.Fatalf("request id %q, %d batches, %d answers", resp.RequestID, len(resp.Batches), len(resp.Answers))
	}
	var again bytes.Buffer
	if err := json.NewEncoder(&again).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), again.Bytes()) {
		t.Fatalf("served body is not encoding/json's\n got: %q\nwant: %q", w.Body.Bytes(), again.Bytes())
	}
}

// TestClientBodiesTakeFastPath: the bodies the test clients build with
// json.Marshal, and the benchmark's hand-built ones, are canonical — the
// reflection decoder never runs for them — and parse to the same queries.
func TestClientBodiesTakeFastPath(t *testing.T) {
	reqs := []queryRequest{
		{Queries: []wireQuery{}},
		{Queries: []wireQuery{{Kind: "mystery"}}},
		{Queries: []wireQuery{{Kind: "catalog", Shard: 99}}},
		{Queries: []wireQuery{{Kind: "catalog", Shard: 0, Leaf: 1 << 30}}},
		{Queries: []wireQuery{
			{Kind: "catalog", Shard: 1, Key: -5, Leaf: 7},
			{Kind: "point", X: math.MaxInt64, Y: math.MinInt64},
			{Kind: "spatial", X: 1, Y: -2, Z: 3},
		}},
	}
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := parseQueriesFast(nil, body)
		if !ok {
			t.Fatalf("json.Marshal body %s missed the fast path", body)
		}
		if fmt.Sprint(got) != fmt.Sprint(req.Queries) {
			t.Fatalf("fast path parsed %s as %v, want %v", body, got, req.Queries)
		}
	}
	hand := `{"queries":[{"kind":"catalog","shard":1,"key":88,"leaf":3},{"kind":"point","x":4,"y":5},{"kind":"spatial","x":1,"y":2,"z":0}]}`
	if _, ok := parseQueriesFast(nil, []byte(hand)); !ok {
		t.Fatalf("benchmark-style body %s missed the fast path", hand)
	}
}

// queryRequestSeeds seed FuzzQueryRequest: canonical bodies and whitespace
// variants, which take the fast path, then ways out of the canonical shape
// — case-folded, unknown and repeated keys, null, escapes, floats,
// exponents, -0, leading zeros, numbers past int64, truncated bodies and
// trailing garbage — most of which encoding/json alone must judge.
var queryRequestSeeds = []struct {
	body string
	fast bool // parseQueriesFast accepts it
}{
	{`{"queries":[{"kind":"catalog","shard":1,"key":88,"leaf":3}]}`, true},
	{`{"queries":[{"kind":"point","x":4,"y":5},{"kind":"spatial","x":1,"y":2,"z":0}]}`, true},
	{` { "queries" : [ { "kind" : "catalog" , "shard" : 0 , "key" : -7 , "leaf" : 2 } ] } `, true},
	{"\t{\n\"queries\":\r[{\"kind\":\"point\",\"x\":1,\"y\":1}\n]}\n", true},
	{`{"queries":[]}`, true},
	{`{"queries":[{}]}`, true},
	{`{"queries":[{"kind":"catalog","kind":"point","x":1,"x":2}]}`, true},
	{`{"queries":[{"kind":"a"}]}`, true},
	{`{"queries":[{"x":-0}]}`, true},
	{`{"queries":[{"x":9223372036854775807,"y":-9223372036854775808}]}`, true},
	{`{"queries":[{"kind":"point"}]} trailing garbage`, true},
	{`{"queries":[{"kind":"point"}]}{"queries":[]}`, true},
	{`{"queries":[{"Kind":"catalog"}]}`, false},
	{`{"queries":[{"KIND":"point"}]}`, false},
	{`{"Queries":[{"kind":"point"}]}`, false},
	{`{"queries":[{"kind":"point","extra":1}]}`, false},
	{`{"queries":[{"kind":"point"}],"other":true}`, false},
	{`{"queries":null}`, false},
	{`{"queries":[null]}`, false},
	{`{"queries":[{"kind":null,"x":null}]}`, false},
	{`{"queries":[{"kind":"cat\"alog"}]}`, false},
	{`{"queries":[{"x":1.0}]}`, false},
	{`{"queries":[{"x":1e3}]}`, false},
	{`{"queries":[{"x":01}]}`, false},
	{`{"queries":[{"x":9223372036854775808}]}`, false},
	{`{"queries":[{"y":-9223372036854775809}]}`, false},
	{`{"queries":[{"shard":123456789012345678901234}]}`, false},
	{`{"queries":[{"kind":"catalog","shard":1,"key":88,`, false},
	{`{"queries":[{"kind":"catal`, false},
	{`{"queries":[`, false},
	{`{`, false},
	{``, false},
	{`   `, false},
	{`{"queries":[{"kind":"point"}],}`, false},
	{`{"queries":[{"kind":"point",}]}`, false},
	{`[{"kind":"point"}]`, false},
	{`{"queries":[{"kind":"point","x":"1"}]}`, false},
	{`{"queries":[{"kind":1}]}`, false},
	{`{"queries":[{"kind":"é"}]}`, false},
	{"{\"queries\":[{\"kind\":\"a\x01b\"}]}", false},
	{`{"queries":[{"x":-}]}`, false},
	{`{"queries":[{"x":true}]}`, false},
}

// FuzzQueryRequest: for any body, the handler's decode matches
// json.NewDecoder(…).Decode — the same verdict, the same queries, the
// same error text — and toEngineQuery never panics on what it accepts.
func FuzzQueryRequest(f *testing.F) {
	for _, seed := range queryRequestSeeds {
		f.Add([]byte(seed.body))
	}
	s := testServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var want queryRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		got, gotErr := decodeQueries(nil, body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decode error %v, encoding/json %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("body %q: error %q, encoding/json %q", body, gotErr, wantErr)
			}
			return
		}
		if len(got) != len(want.Queries) {
			t.Fatalf("body %q: %d queries, encoding/json %d", body, len(got), len(want.Queries))
		}
		for i := range got {
			if got[i] != want.Queries[i] {
				t.Fatalf("body %q: query %d = %+v, encoding/json %+v", body, i, got[i], want.Queries[i])
			}
			_, _ = s.toEngineQuery(got[i])
		}
	})
}

// TestQueryRequestSeeds pins which fuzz seeds take the fast path, so a
// regression in either direction shows by name.
func TestQueryRequestSeeds(t *testing.T) {
	for _, seed := range queryRequestSeeds {
		if _, ok := parseQueriesFast(nil, []byte(seed.body)); ok != seed.fast {
			t.Errorf("parseQueriesFast(%q) ok = %v, want %v", seed.body, ok, seed.fast)
		}
	}
}

// TestQueryBodyTooLarge: a body past maxQueryBody is refused with 413
// before any of it is decoded.
func TestQueryBodyTooLarge(t *testing.T) {
	s := testServer(t)
	body := `{"queries":[{"kind":"point","x":1,"y":2}]}` + strings.Repeat(" ", maxQueryBody)
	r := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.handler().ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST /query with a %d-byte body = %d, want 413", len(body), w.Code)
	}
	r = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body[:maxQueryBody]))
	w = httptest.NewRecorder()
	s.handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /query with a body of exactly %d bytes = %d, want 200", maxQueryBody, w.Code)
	}
}

// queryHandlerAllocsBound is the measured allocation count of one warm
// 32-query catalog POST /query through the handler, telemetry at its
// defaults, with the test's request and recorder included: per query the
// root path and the engine's result slice, per request the answer slice,
// the context, header and request-id values and the recorder. Reflection
// decoding and encoding, and the per-query phase map, made it 574.
const queryHandlerAllocsBound = 98

// TestQueryHandlerAllocs pins the serving path's allocations per warm
// 32-query catalog request.
func TestQueryHandlerAllocs(t *testing.T) {
	if os.Getenv("FRACCASCADE_GUARD") == "skip" {
		t.Skip("allocation guard skipped via FRACCASCADE_GUARD=skip")
	}
	if raceEnabled {
		t.Skip("allocation guard skipped under -race: sync.Pool drops items at random")
	}
	cfg := defaultServerConfig()
	cfg.Leaves, cfg.Entries, cfg.Regions, cfg.Tiles = 1<<7, 8000, 24, 20
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var req queryRequest
	for i := 0; i < 32; i++ {
		req.Queries = append(req.Queries, wireQuery{Kind: "catalog", Shard: i % 2, Key: int64(1000 + 13*i), Leaf: int64(100 + i)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h := s.handler()
	allocs := testing.AllocsPerRun(200, func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("POST /query = %d: %s", w.Code, w.Body)
		}
	})
	t.Logf("POST /query (32 catalog queries): %.0f allocs/request", allocs)
	if allocs > queryHandlerAllocsBound {
		t.Errorf("POST /query allocates %.0f per warm 32-query request, want <= %d", allocs, queryHandlerAllocsBound)
	}
}
