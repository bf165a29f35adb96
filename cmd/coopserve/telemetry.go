package main

import (
	"encoding/json"
	"fmt"
	"html"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"fraccascade/internal/engine"
	"fraccascade/internal/obs"
)

// initTelemetry wires the serving telemetry: the correlation-id prefix,
// the flight recorder, the latency SLO with its rolling window, and their
// /metrics families.
func (s *server) initTelemetry() {
	s.bootID = fmt.Sprintf("%06x%04x", time.Now().UnixNano()&0xffffff, os.Getpid()&0xffff)
	s.recorder = obs.NewFlightRecorder(obs.FlightRecorderConfig{Reservoir: flightRecords})
	s.slo = obs.NewSLO(sloLatency, sloObjective, telemetrySubWindow, telemetrySubCount)

	// Live windowed quantiles (nanoseconds over the last 2 minutes;
	// obs.NoData = -1 when the window is empty). One snapshot per gauge
	// read is fine: /metrics scrapes are seconds apart, not hot-path.
	s.reg.RegisterFunc("serve.latency.window.p50_ns", func() int64 { return s.slo.Snapshot().P50 })
	s.reg.RegisterFunc("serve.latency.window.p95_ns", func() int64 { return s.slo.Snapshot().P95 })
	s.reg.RegisterFunc("serve.latency.window.p99_ns", func() int64 { return s.slo.Snapshot().P99 })
	s.reg.RegisterFunc("serve.latency.window.count", func() int64 { return s.slo.Snapshot().Count })

	// SLO burn rates in milli-units (gauges are int64): 1000 = burning
	// the error budget exactly at the sustainable rate.
	s.reg.RegisterFunc("serve.slo.latency.burn_short_milli", func() int64 {
		return int64(s.slo.BurnRate(burnShortSubs) * 1000)
	})
	s.reg.RegisterFunc("serve.slo.latency.burn_long_milli", func() int64 {
		return int64(s.slo.BurnRate(0) * 1000)
	})
	s.reg.Gauge("serve.slo.latency.threshold_ns").Set(int64(s.slo.Threshold()))
	s.reg.Gauge("serve.slo.latency.objective_milli").Set(int64(s.slo.Objective() * 1000))

	s.reg.RegisterFunc("serve.flight.recorded", func() int64 { return s.recorder.Stats().Total })
	s.reg.RegisterFunc("serve.flight.errored", func() int64 { return s.recorder.Stats().Errored })
	s.reg.RegisterFunc("serve.flight.dropped", func() int64 { return s.recorder.Stats().Dropped })
}

// requestID returns the request's correlation id: an inbound X-Request-ID
// (sanitized — header-safe bytes only, bounded length) or a freshly
// minted "cs-<boot>-<seq>".
func (s *server) requestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get("X-Request-ID")); id != "" {
		return id
	}
	return fmt.Sprintf("cs-%s-%06d", s.bootID, s.reqSeq.Add(1))
}

// sanitizeRequestID keeps printable non-space ASCII and caps the length,
// so a hostile header can't smuggle control bytes into the echoed
// response header, the spans, or the slowlog.
func sanitizeRequestID(id string) string {
	const maxLen = 128
	if len(id) > maxLen {
		id = id[:maxLen]
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= 0x20 || id[i] >= 0x7f {
			return ""
		}
	}
	return id
}

// observeAnswers feeds the SLO's rolling window with each answer's host
// wall time.
func (s *server) observeAnswers(answers []engine.Answer) {
	for i := range answers {
		s.slo.Observe(answers[i].WallNS)
	}
}

// handleSlowlog dumps the flight recorder as JSON, newest first. Query
// params: shard=N (default all), kind=catalog|point|spatial, min_ms=F
// (minimum wall milliseconds, finite and within int64 nanoseconds),
// errors=1 (failures only), limit=N (default 100, 0 = everything
// retained). Enabled is always true: the recorder is always on.
func (s *server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	type slowlogResponse struct {
		Enabled bool               `json:"enabled"`
		Total   int64              `json:"total"`
		Errored int64              `json:"errored"`
		Dropped int64              `json:"dropped"`
		Count   int                `json:"count"`
		Records []obs.FlightRecord `json:"records"`
	}
	resp := slowlogResponse{Enabled: true, Records: []obs.FlightRecord{}}
	q := r.URL.Query()
	shard := -1
	if v := q.Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad shard", http.StatusBadRequest)
			return
		}
		shard = n
	}
	minWall := int64(0)
	if v := q.Get("min_ms"); v != "" {
		// float64(math.MaxInt64) is 2^63, the first value int64 cannot
		// hold. The negated test also rejects NaN and +Inf, whose int64
		// conversion is undefined (MinInt64 on amd64, keeping every record).
		f, err := strconv.ParseFloat(v, 64)
		ns := f * float64(time.Millisecond)
		if err != nil || f < 0 || !(ns < math.MaxInt64) {
			http.Error(w, "bad min_ms", http.StatusBadRequest)
			return
		}
		minWall = int64(ns)
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	kind := q.Get("kind")
	errsOnly := q.Get("errors") == "1"

	st := s.recorder.Stats()
	resp.Total, resp.Errored, resp.Dropped = st.Total, st.Errored, st.Dropped
	for _, rec := range s.recorder.Records() {
		if shard >= 0 && (rec.Kind != "catalog" || rec.Shard != shard) {
			continue
		}
		if kind != "" && rec.Kind != kind {
			continue
		}
		if rec.WallNS < minWall {
			continue
		}
		if errsOnly && rec.Err == "" {
			continue
		}
		resp.Records = append(resp.Records, rec)
		if limit > 0 && len(resp.Records) >= limit {
			break
		}
	}
	resp.Count = len(resp.Records)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// handleStatusz serves a dependency-free HTML status page: lifecycle
// state, live windowed quantiles, SLO burn rates, per-shard cache hit
// rates, and the recent slow and failed queries from the flight recorder.
// Everything dynamic is HTML-escaped; the page degrades gracefully while
// building and after a restart (records are in-memory only).
func (s *server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var stateName string
	switch s.state.Load() {
	case stateBuilding:
		stateName = "building"
	case stateDraining:
		stateName = "draining"
	default:
		stateName = "ready"
	}
	fmt.Fprintf(w, `<!doctype html><html><head><meta charset="utf-8"><title>coopserve statusz</title>
<style>
body{font-family:monospace;margin:2em;background:#fafafa;color:#222}
h1{font-size:1.3em}h2{font-size:1.05em;margin-top:1.4em;border-bottom:1px solid #ccc}
table{border-collapse:collapse;margin:.4em 0}
td,th{border:1px solid #ccc;padding:.2em .6em;text-align:right}
th{background:#eee}td.l,th.l{text-align:left}
.warn{color:#b00}.ok{color:#070}.dim{color:#888}
</style></head><body>
<h1>coopserve <span class="%s">%s</span></h1>
<p>uptime %s · procs %d · batch %d · shards %d</p>
`,
		map[string]string{"ready": "ok"}[stateName], stateName,
		html.EscapeString(time.Since(s.started).Round(time.Second).String()),
		s.cfg.Procs, s.cfg.BatchSize, s.cfg.Shards)

	eng := s.eng.Load()
	if eng == nil {
		fmt.Fprint(w, `<p class="warn">structures are still building; no engine yet.</p></body></html>`)
		return
	}

	m := eng.Metrics()
	fmt.Fprintf(w, `<h2>engine</h2>
<table><tr><th class="l">queries</th><th>batches</th><th>errors</th><th>steps total</th></tr>
<tr><td class="l">%d</td><td>%d</td><td>%d</td><td>%d</td></tr></table>
`, m.Queries, m.Batches, m.Errors, m.StepsTotal)

	win := s.slo.Snapshot()
	fmt.Fprintf(w, `<h2>latency (last %s window)</h2>
<table><tr><th class="l">count</th><th>p50</th><th>p95</th><th>p99</th><th>max</th></tr>
<tr><td class="l">%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr></table>
`, s.slo.Window(), win.Count, fmtQuantile(win.P50), fmtQuantile(win.P95), fmtQuantile(win.P99), fmtQuantile(win.Max))

	good, total := s.slo.GoodTotal(0)
	burnShort, burnLong := s.slo.BurnRate(burnShortSubs), s.slo.BurnRate(0)
	cls := func(b float64) string {
		if b > 1 {
			return "warn"
		}
		return "ok"
	}
	fmt.Fprintf(w, `<h2>slo: %.1f%% under %s</h2>
<table><tr><th class="l">good/total</th><th>burn (30s)</th><th>burn (2m)</th></tr>
<tr><td class="l">%d/%d</td><td class="%s">%.2fx</td><td class="%s">%.2fx</td></tr></table>
`, s.slo.Objective()*100, s.slo.Threshold(), good, total, cls(burnShort), burnShort, cls(burnLong), burnLong)

	fmt.Fprint(w, `<h2>entry caches</h2>
<table><tr><th class="l">shard</th><th>hits</th><th>misses</th><th>hit rate</th><th>size</th></tr>
`)
	for i := 0; i < eng.NumShards(); i++ {
		cs := eng.CacheStatsFor(i)
		fmt.Fprintf(w, `<tr><td class="l">%d</td><td>%d</td><td>%d</td><td>%.1f%%</td><td>%d</td></tr>
`, i, cs.Hits, cs.Misses, cs.HitRate()*100, cs.Size)
	}
	fmt.Fprint(w, `</table>
`)

	st := s.recorder.Stats()
	fmt.Fprintf(w, `<h2>flight recorder</h2>
<p>recorded %d · errored %d · dropped %d (in-memory only; empty after restart)</p>
`, st.Total, st.Errored, st.Dropped)
	recs := s.recorder.Records()
	if len(recs) == 0 {
		fmt.Fprint(w, `<p class="dim">no queries recorded yet.</p>`)
	} else {
		slowest := append([]obs.FlightRecord(nil), recs...)
		sort.Slice(slowest, func(i, j int) bool { return slowest[i].WallNS > slowest[j].WallNS })
		if len(slowest) > 10 {
			slowest = slowest[:10]
		}
		writeRecordTable(w, "slowest recent queries", slowest)
		var failed []obs.FlightRecord
		for _, rec := range recs {
			if rec.Err != "" {
				failed = append(failed, rec)
				if len(failed) == 5 {
					break
				}
			}
		}
		if len(failed) > 0 {
			writeRecordTable(w, "recent failures", failed)
		}
	}
	fmt.Fprint(w, `<p class="dim"><a href="/debug/slowlog">/debug/slowlog</a> · <a href="/metrics">/metrics</a> · <a href="/spans?replay=1">/spans</a></p></body></html>`)
}

// writeRecordTable renders flight records as an HTML table (all dynamic
// strings escaped).
func writeRecordTable(w http.ResponseWriter, title string, recs []obs.FlightRecord) {
	fmt.Fprintf(w, `<h2>%s</h2>
<table><tr><th class="l">request id</th><th>kind</th><th>shard</th><th>wall</th><th>steps</th><th>cache</th><th class="l">error</th></tr>
`, html.EscapeString(title))
	for _, rec := range recs {
		fmt.Fprintf(w, `<tr><td class="l">%s</td><td>%s</td><td>%d</td><td>%s</td><td>%d</td><td>%s</td><td class="l">%s</td></tr>
`,
			html.EscapeString(rec.RequestID), html.EscapeString(rec.Kind), rec.Shard,
			time.Duration(rec.WallNS), rec.Steps, html.EscapeString(rec.Cache),
			html.EscapeString(rec.Err))
	}
	fmt.Fprint(w, `</table>
`)
}

// fmtQuantile renders a windowed-quantile nanosecond value, mapping the
// obs.NoData sentinel to a dash instead of a negative duration.
func fmtQuantile(ns int64) string {
	if ns < 0 {
		return "–"
	}
	return time.Duration(ns).String()
}
