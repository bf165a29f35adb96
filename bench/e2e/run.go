package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"fraccascade/internal/snapshot"
)

// conns is the number of keep-alive connections the load generator opens:
// one per core of the 2-core host the workloads were calibrated on.
const conns = 2

// runConfig holds what one invocation measures.
type runConfig struct {
	server  string        // coopserve binary
	workDir string        // scratch space for snapshots and logs
	seed    int64         // traffic seed
	timed   time.Duration // timed phase
	trace   bool          // split the timed phase, trace its second half, run the ladder
	spans   io.Writer     // JSONL span sink of a traced run
	verify  int           // queries checked one by one before the warm-up
	pool    int           // geometry pool size
}

// result is one workload's outcome. metrics holds the end-to-end metrics
// of the untraced phase, the per-layer metrics of the traced phase when
// there is one (of the untraced phase otherwise), and the ladder's.
type result struct {
	workload string
	tally
	metrics map[string]float64
	lines   []string // human-readable report
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// runWorkload starts the server, times its set-up, checks answers against
// the oracle, drives the open loop, and gathers every metric.
func runWorkload(ctx context.Context, cfg runConfig, w workload) (*result, error) {
	res := &result{workload: w.Name, metrics: map[string]float64{}}
	dir, err := os.MkdirTemp(cfg.workDir, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "shards.snap")
	flags := append(w.Shape.flags(), "-snapshot="+snap)
	logPath := filepath.Join(dir, "coopserve.log")
	drain := func(p *serverProc) error {
		if err := p.stop(); err != nil {
			return fmt.Errorf("coopserve drain: %w\n%s", err, logTail(logPath))
		}
		return nil
	}
	ref, err := startReference(ctx, w.QPR)
	if err != nil {
		return nil, err
	}
	defer ref.close()

	// Set-up: SetupReps timed start-ups, the last of which stays up.
	if w.Restart {
		p, _, err := startServer(ctx, cfg.server, flags, logPath)
		if err != nil {
			return nil, err
		}
		if err := drain(p); err != nil {
			return nil, err
		}
	}
	refSetup, err := ref.reading()
	if err != nil {
		return nil, err
	}
	var srv *serverProc
	defer func() { srv.stop() }()
	// setupKB is each start-up's peak RSS when it became ready.
	var setups, setupKB []float64
	for r := 0; r < w.SetupReps; r++ {
		if err := drain(srv); err != nil {
			return nil, err
		}
		if !w.Restart {
			if err := os.Remove(snap); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
		p, d, err := startServer(ctx, cfg.server, flags, logPath)
		if err != nil {
			return nil, err
		}
		srv = p
		setups = append(setups, d.Seconds())
		kb, err := peakRSSKB(p.pid())
		if err != nil {
			return nil, err
		}
		setupKB = append(setupKB, float64(kb))
	}
	refReady, err := ref.readingAfter(ctx, refSetup, 20)
	if err != nil {
		return nil, err
	}
	setupScale := ratio(w.RefUS, refCost(refSetup, refReady))
	res.metrics["setup_s"] = median(setups) * setupScale
	what := "build + save-on-build"
	if w.Restart {
		what = "snapshot restore"
	}
	res.printf("setup_s          %10.4f s    median of %d start-ups (%s) %.4f s, scaled by %.3f; each: %s",
		res.metrics["setup_s"], len(setups), what, median(setups), setupScale, fmtList(setups, "%.4f"))
	// The garbage collector's timing during a build adds up to 15 % to
	// the peak at random, so the least peak is the steady measure.
	res.metrics["rss_mb"] = slices.Min(setupKB) / 1000
	res.printf("rss_mb           %10.3f MB   least peak RSS at ready; each: %s kB", res.metrics["rss_mb"], fmtList(setupKB, "%.0f"))

	// Oracle: the server's own snapshot and, where needed, its geometry.
	loadStart := time.Now()
	store, err := snapshot.LoadParallel(snap, 0)
	if err != nil {
		return nil, fmt.Errorf("load the server's snapshot: %w", err)
	}
	loadMS := msSince(loadStart)
	var g *geometry
	if w.Keys == keysGeo || cfg.trace {
		if g, err = newGeometry(w.Shape, cfg.seed, cfg.pool); err != nil {
			return nil, err
		}
	}
	orc, err := newOracle(store, g.pool())
	if err != nil {
		return nil, err
	}
	url := "http://" + srv.addr + "/query"
	next, vt, err := orc.verify(ctx, url, &w, cfg.seed, cfg.verify)
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	res.tally = vt
	res.printf("oracle           %d queries in %d requests checked before the warm-up: %d failed", vt.attempted, next, vt.failed)

	// Open loop: warm-up, then the timed phase. A traced run splits the
	// timed phase into an untraced and a traced half. Each phase edge gets a
	// scrape and a reference reading.
	total := w.Warmup + cfg.timed
	traceFrom := total + 1
	marks := []time.Duration{w.Warmup}
	if cfg.trace {
		traceFrom = w.Warmup + cfg.timed/2
		marks = append(marks, traceFrom)
	}
	scrapeClient := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}
	defer scrapeClient.CloseIdleConnections()
	resetPeakRSS(srv.pid())
	lg := &loadgen{url: url, w: &w, seed: cfg.seed, pool: g.pool()}
	start := time.Now().Add(10 * time.Millisecond)
	scrapes := make(chan []scrape, 1)
	go func() {
		out := make([]scrape, 0, len(marks))
		for _, m := range marks {
			select {
			case <-ctx.Done():
				scrapes <- nil
				return
			case <-time.After(time.Until(start.Add(m))):
			}
			s, err := takeScrape(scrapeClient, srv, ref)
			if err != nil {
				scrapes <- nil
				return
			}
			out = append(out, s)
		}
		scrapes <- out
	}()
	samples := lg.run(ctx, start, next, arrivals(cfg.seed, w.Rate, total), traceFrom)
	at := <-scrapes
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if at == nil {
		return nil, fmt.Errorf("a scrape during the open loop failed")
	}
	end, err := takeScrape(scrapeClient, srv, ref)
	if err != nil {
		return nil, fmt.Errorf("final scrape: %w", err)
	}
	at = append(at, end)
	for k := 1; k < len(at); k++ {
		if at[k].ref.sent == at[k-1].ref.sent {
			return nil, fmt.Errorf("the reference answered no requests in a phase, so its times cannot be scaled")
		}
	}
	servingKB, err := peakRSSKB(srv.pid())
	if err != nil {
		return nil, err
	}
	res.metrics["coopserve.serving_rss_mb"] = float64(servingKB) / 1000

	// Every request counts toward attempted and failed. Kept bodies are
	// decoded and checked against the oracle now, off the timed path.
	var qs []query
	kept := 0
	for i := range samples {
		s := &samples[i]
		res.attempted += s.queries
		var err error
		failed := s.failed
		if s.body != nil {
			kept++
			qs = genRequest(&w, cfg.seed, s.idx, g.pool(), qs[:0])
			var steps int64
			failed, steps, err = orc.checkResponse(qs, s.body)
			if err == nil && steps != s.steps {
				failed, err = len(qs), fmt.Errorf("request %d: scanned %d steps, decoded %d", s.idx, s.steps, steps)
			}
		} else if failed > 0 {
			err = fmt.Errorf("request %d: %d of %d queries failed", s.idx, failed, s.queries)
		}
		res.fail(failed, err)
	}
	res.printf("error_rate       %10.6f      %d of %d queries failed: verification, warm-up and timed phase, with %d kept responses checked against the oracle",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted, kept)

	untraced := &phase{samples: between(samples, w.Warmup, traceFrom), from: at[0], to: at[1]}
	untraced.report(res, res.metrics, &w)
	if !cfg.trace {
		return res, drain(srv)
	}

	traced := &phase{samples: between(samples, traceFrom, total+1), from: at[1], to: at[2]}
	m := map[string]float64{}
	traced.report(&result{}, m, &w)
	for k, v := range m {
		if strings.Contains(k, ".") {
			res.metrics[k] = v
		}
	}
	res.metrics["loadgen.trace_overhead_ms"] = m["p50_ms"] - res.metrics["p50_ms"]
	res.printf("trace overhead   %+10.4f ms   traced minus untraced p50 (cpu %+.3f us/query), both scaled",
		res.metrics["loadgen.trace_overhead_ms"], m["cpu_us_per_query"]-res.metrics["cpu_us_per_query"])
	slow, err := fetchSlowlog(scrapeClient, srv)
	if err != nil {
		return nil, err
	}
	if err := drain(srv); err != nil {
		return nil, err
	}
	lad, err := runLadder(ctx, &w, cfg.seed, store, g, filepath.Join(dir, "ladder.snap"))
	if err != nil {
		return nil, err
	}
	lad.metrics["snapshot.load_ms"] = loadMS
	for k, v := range lad.metrics {
		res.metrics[k] = v
	}
	res.lines = append(res.lines, lad.lines...)
	selfTimes(res, traced, lad)

	spans, joined := requestSpans(cfg.seed, start, traced.samples, slow)
	root := fmt.Sprintf("ladder-%s-%d", w.Name, cfg.seed)
	spans = append(spans, span{Trace: root, ID: root, Name: "ladder", Start: lad.spans[0].Start, End: lad.spans[len(lad.spans)-1].End})
	for _, s := range lad.spans {
		s.Trace, s.ID, s.Parent = root, root+"/"+s.Name, root
		spans = append(spans, s)
	}
	if err := writeSpans(cfg.spans, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.printf("spans            %d spans written; %d slowlog records joined onto request spans", len(spans), joined)
	return res, nil
}

// between returns the samples due in [from, to).
func between(samples []sample, from, to time.Duration) []sample {
	var out []sample
	for _, s := range samples {
		if s.due >= from && s.due < to {
			out = append(out, s)
		}
	}
	return out
}

// phase is a stretch of the open loop reported on its own, with the
// scrapes taken at its ends.
type phase struct {
	samples  []sample
	from, to scrape
}

// report computes the phase's metrics into m and describes them in res.
// p50_ms and cpu_us_per_query are scaled by the reference's cost over the
// phase (see reference.go); the per-layer times are as measured.
func (ph *phase) report(res *result, m map[string]float64, w *workload) {
	first, last := ph.from, ph.to
	n := len(ph.samples)
	lat := make([]float64, 0, n)
	late := make([]float64, 0, n)
	wait := make([]float64, 0, n)
	var answered, queries, bytes, over int
	var steps int64
	var exchange time.Duration
	limitMS := ms(w.P99Limit)
	for i := range ph.samples {
		s := &ph.samples[i]
		lat = append(lat, ms(s.latency()))
		late = append(late, ms(s.late))
		wait = append(wait, ms(s.sent-s.due))
		answered += s.answers
		queries += s.queries
		steps += s.steps
		bytes += s.bytes
		exchange += s.done - s.sent
		// A failed request misses the limit whatever its latency.
		if s.failed > 0 || ms(s.latency()) > limitMS {
			over++
		}
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	sort.Float64s(wait)
	refUS := refCost(first.ref, last.ref)
	scale := ratio(w.RefUS, refUS)
	serverCPU := last.cpu - first.cpu
	p50 := percentile(lat, 0.5)
	cpu := ratio(us(serverCPU), float64(answered))
	m["p50_ms"] = p50 * scale
	m["cpu_us_per_query"] = cpu * scale
	m["steps_per_query"] = ratio(float64(steps), float64(answered))
	m["host.reference_us"] = refUS
	m["loadgen.p99_ms"] = percentile(lat, 0.99)
	m["loadgen.p999_ms"] = percentile(lat, 0.999)
	m["loadgen.timer_late_ms_p99"] = percentile(late, 0.99)
	m["loadgen.conn_wait_ms_p99"] = percentile(wait, 0.99)
	m["loadgen.client_cpu_us_per_query"] = ratio(us(last.client-first.client), float64(answered))
	m["coopserve.resp_bytes_per_query"] = ratio(float64(bytes), float64(queries))
	engineWallNS := delta(first, last, "engine_batch_wall_ns_sum")
	m["coopserve.outside_engine_us_per_req"] = ratio(us(exchange)-engineWallNS/1e3, float64(n))
	m["coopserve.shed"] = delta(first, last, "serve_shed_total")
	m["coopserve.timeouts"] = delta(first, last, "serve_timeouts_total")
	m["coopserve.query_errors"] = delta(first, last, "serve_query_errors_total")
	m["coopserve.window_p99_ms"] = last.prom["serve_latency_window_p99_ns"] / 1e6
	m["engine.batch_wall_us"] = ratio(engineWallNS/1e3, delta(first, last, "engine_batch_wall_ns_count"))
	var hits, misses, fingers float64
	for i := 0; i < w.Shape.Shards; i++ {
		prefix := fmt.Sprintf("engine_shard_%d_cache_", i)
		hits += delta(first, last, prefix+"hits_total")
		misses += delta(first, last, prefix+"misses_total")
		fingers += delta(first, last, prefix+"finger_hits_total")
	}
	m["engine.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["engine.finger_hit_ratio"] = ratio(fingers, misses)
	m["engine.pool_steals_per_batch"] = ratio(delta(first, last, "engine_pool_steals"), delta(first, last, "engine_batches_total"))
	engineQueries := delta(first, last, "engine_queries_total")
	for _, p := range phaseLabels {
		name := "engine_phase_" + strings.ReplaceAll(p, "-", "_") + "_steps_total"
		m["engine.phase."+p+".steps_per_query"] = ratio(delta(first, last, name), engineQueries)
	}

	verdict := "met"
	if m["loadgen.p99_ms"] > limitMS {
		verdict = "MISSED"
	}
	top := highestPercentile(n, 10)
	res.printf("host             reference %.1f us/request over the phase, so times are scaled by %.3f", refUS, scale)
	res.printf("p50_ms           %10.4f ms   measured %.4f ms over n=%d requests (%d queries) in %.1f s",
		m["p50_ms"], p50, n, queries, last.at.Sub(first.at).Seconds())
	res.printf("cpu_us_per_query %10.3f us   measured %.3f us: server utime+stime %.2f s over %d answered queries",
		m["cpu_us_per_query"], cpu, serverCPU.Seconds(), answered)
	res.printf("steps_per_query  %10.4f steps", m["steps_per_query"])
	res.printf("latency tail     p99 %.4f ms with %d samples beyond it, limit %g ms %s (%d requests over it); highest percentile with >= 10 beyond: p%g = %.4f ms (measured, not scaled)",
		m["loadgen.p99_ms"], beyond(n, 0.99), limitMS, verdict, over, 100*top, percentile(lat, top))
	if m["loadgen.timer_late_ms_p99"] > 1 {
		res.printf("WARNING: timer lateness p99 %.3f ms exceeds 1 ms; this run's latencies are not valid", m["loadgen.timer_late_ms_p99"])
	}
}

// fmtList formats xs with one verb each.
func fmtList(xs []float64, verb string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(verb, x)
	}
	return strings.Join(parts, " ")
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// selfCPU is this process's user plus system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
