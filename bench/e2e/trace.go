package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// span is one timed interval of a traced run. Spans of one request share
// its trace id, which is also the X-Request-ID the server saw.
type span struct {
	Trace  string         `json:"trace"`
	ID     string         `json:"id"`
	Parent string         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_unix_ns"`
	End    int64          `json:"end_unix_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// slowRecord is the part of a /debug/slowlog flight record that joins onto
// a request span.
type slowRecord struct {
	RequestID string `json:"request_id"`
	Time      int64  `json:"time_unix_ns"`
	WallNS    int64  `json:"wall_ns"`
	Kind      string `json:"kind"`
	Steps     int    `json:"steps"`
	Cache     string `json:"cache"`
}

// fetchSlowlog reads every record the server's flight recorder retains.
func fetchSlowlog(client *http.Client, p *serverProc) ([]slowRecord, error) {
	resp, err := client.Get("http://" + p.addr + "/debug/slowlog?limit=0")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/slowlog: %s", resp.Status)
	}
	var body struct {
		Records []slowRecord `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decode /debug/slowlog: %w", err)
	}
	return body.Records, nil
}

// requestSpans builds each traced request's spans: the root "request" span
// (due → done) with children "conn_wait" (due → sent) and "exchange"
// (sent → done), plus an "engine.query" child of the exchange for every
// slowlog record carrying the request's id. It returns the spans and how
// many slowlog records joined.
func requestSpans(seed int64, start time.Time, samples []sample, slow []slowRecord) ([]span, int) {
	byID := map[string][]slowRecord{}
	for _, r := range slow {
		byID[r.RequestID] = append(byID[r.RequestID], r)
	}
	at := func(d time.Duration) int64 { return start.Add(d).UnixNano() }
	var out []span
	joined := 0
	for i := range samples {
		s := &samples[i]
		if !s.traced {
			continue
		}
		id := spanID(seed, s.idx)
		out = append(out,
			span{Trace: id, ID: id, Name: "request", Start: at(s.due), End: at(s.done),
				Attrs: map[string]any{"queries": s.queries, "bytes": s.bytes, "failed": s.failed}},
			span{Trace: id, ID: id + "/conn_wait", Parent: id, Name: "conn_wait", Start: at(s.due), End: at(s.sent)},
			span{Trace: id, ID: id + "/exchange", Parent: id, Name: "exchange", Start: at(s.sent), End: at(s.done)})
		for k, r := range byID[id] {
			joined++
			out = append(out, span{Trace: id, ID: fmt.Sprintf("%s/engine.query.%d", id, k), Parent: id + "/exchange",
				Name: "engine.query", Start: r.Time - r.WallNS, End: r.Time,
				Attrs: map[string]any{"kind": r.Kind, "steps": r.Steps, "cache": r.Cache}})
		}
	}
	return out, joined
}

// writeSpans appends spans to w as JSONL, one span per line.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes prints where a traced request's time went, layer by layer:
// each layer's span minus the part its inner layer covers. The times are
// as measured, not scaled.
func selfTimes(res *result, ph *phase, lad *ladder) {
	n := float64(len(ph.samples))
	var wait, exchange time.Duration
	for i := range ph.samples {
		wait += ph.samples[i].sent - ph.samples[i].due
		exchange += ph.samples[i].done - ph.samples[i].sent
	}
	engineUS := delta(ph.from, ph.to, "engine_batch_wall_ns_sum") / 1e3 / n
	res.printf("self time        per request, traced half: loadgen conn_wait %.1f us | coopserve outside the engine %.1f us | engine outside the search %.1f us | search %.1f us",
		us(wait)/n, us(exchange)/n-engineUS, engineUS-lad.searchUSPerReq, lad.searchUSPerReq)
}
