// Command coopserve is a long-running HTTP daemon serving cooperative
// searches from the batched engine, with live observability and a hardened
// lifecycle:
//
//	POST /query               batched catalog/point/spatial queries (JSON)
//	GET  /metrics             Prometheus text exposition of the obs registry
//	GET  /healthz             liveness (always 200 once serving)
//	GET  /readyz              readiness (503 building/draining/overloaded)
//	GET  /spans?limit=N       JSONL span stream derived from the last 2048
//	                          queries' flight records (replay=1 prepends
//	                          history, follow=1 keeps tailing live spans)
//	GET  /statusz             human-readable status page: live windowed
//	                          latency quantiles, SLO burn rates,
//	                          cache hit rates, recent slow queries
//	GET  /debug/slowlog       flight-recorder dump (JSON), filterable by
//	                          ?shard=N&kind=K&min_ms=F&errors=1&limit=N
//	GET  /debug/pprof/        host CPU/heap/goroutine profiles
//	GET  /debug/pprof/steps   simulated-parallel-time profile (phase stacks);
//	                          loadable with `go tool pprof steps.pb.gz`
//
// Every request carries a correlation id (inbound X-Request-ID honored,
// minted otherwise), echoed on the response and stamped on the request's
// spans and flight records. The engine writes each query once, as a
// flight record, into a record ring behind /spans and into the always-on
// flight recorder, which tail-samples records — all errors, the slowest
// per window, and a uniform reservoir of 2048 — behind /debug/slowlog and
// /statusz. Each answer's wall time feeds one rolling window behind the
// latency quantiles and the burn-rate gauges on /metrics of the SLO that
// 99% of queries finish within 250ms.
//
// Every structure is served from its frozen layout: the catalog shards from
// internal/flat, point location from the frozen locators. Boot builds each
// pointer structure, freezes it and drops it before the next, so none is
// reachable once the daemon is ready. With -snapshot=PATH the daemon saves
// a crash-safe snapshot of its catalog shards at build, before it is
// ready, and once ready streams the frozen shards into a page-aligned
// sidecar, PATH.flat, bound to the snapshot's exact bytes. A restart maps
// or builds: when its flags match the snapshot and the sidecar is bound to
// it, it maps the sidecar and serves straight from the mapping, building
// no shard; anything else — a missing, stale, truncated or corrupt
// sidecar, or any defect in the snapshot — builds from the seed, which
// rewrites both files. The shards never change while serving, so SIGTERM
// only drains in-flight queries and a sidecar write in progress: the files
// on disk are already current. Requests run under -request-timeout and are
// shed with 503 + Retry-After past -max-inflight.
//
// Usage:
//
//	coopserve -addr=:8080 -procs=4096 -batch=32 -seed=1 -snapshot=/var/lib/coopserve/shards.snap
//	curl -d '{"queries":[{"kind":"point","x":101,"y":51}]}' localhost:8080/query
//	go tool pprof -top http://localhost:8080/debug/pprof/steps
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fraccascade/internal/geom"
)

// geomPoint builds the planar query point.
func geomPoint(x, y int64) geom.Point { return geom.Point{X: x, Y: y} }

// registerFlags defines coopserve's flags on fs, each over the field of
// cfg it sets and defaulting to that field's value, and returns the listen
// address flag.
func registerFlags(fs *flag.FlagSet, cfg *serverConfig) *string {
	addr := fs.String("addr", ":8080", "listen address")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "structure generator seed")
	fs.IntVar(&cfg.Procs, "procs", cfg.Procs, "total simulated processor budget per batch")
	fs.IntVar(&cfg.BatchSize, "batch", cfg.BatchSize, "queries per engine batch")
	fs.IntVar(&cfg.Leaves, "leaves", cfg.Leaves, "catalog-tree leaves per shard")
	fs.IntVar(&cfg.Entries, "entries", cfg.Entries, "approximate catalog entries per shard")
	fs.IntVar(&cfg.Shards, "shards", cfg.Shards, "catalog shards")
	fs.IntVar(&cfg.Regions, "regions", cfg.Regions, "planar subdivision regions")
	fs.IntVar(&cfg.Tiles, "tiles", cfg.Tiles, "spatial complex tiles")
	fs.StringVar(&cfg.SnapshotPath, "snapshot", cfg.SnapshotPath, "snapshot path: on start map the frozen shards from the sidecar PATH.flat when it is bound to this snapshot, else build them and save the snapshot; write the sidecar once ready (empty = disabled)")
	fs.DurationVar(&cfg.RequestTimeout, "request-timeout", cfg.RequestTimeout, "per-request deadline on POST /query (0 = none)")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", cfg.MaxInflight, "concurrent /query cap before shedding with 503 (0 = unlimited)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", cfg.DrainTimeout, "how long SIGTERM waits for in-flight queries and a sidecar write in progress")
	return addr
}

func main() {
	cfg := defaultServerConfig()
	addr := registerFlags(flag.CommandLine, &cfg)
	flag.Parse()

	srv := newServerShell(cfg)
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.handler(),
		// Slowloris and stuck-peer guards: a hostile or wedged client can
		// hold a connection only this long at each phase.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	// Serve immediately — /healthz answers and /readyz reports "building"
	// while the structures come up in the background.
	go func() {
		if err := srv.build(); err != nil {
			log.Fatalf("coopserve: build: %v", err)
		}
	}()
	log.Printf("coopserve: listening on %s", *addr)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		log.Fatal(err)
	case got := <-sig:
		log.Printf("coopserve: %v: draining (%d in flight)", got, srv.inflight.Load())
		srv.beginDrain()
		if !srv.awaitDrain(cfg.DrainTimeout) {
			log.Printf("coopserve: drain timeout with %d still in flight (sidecar write in progress: %v)", srv.inflight.Load(), srv.writing.Load())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("coopserve: shutdown: %v", err)
		}
		log.Printf("coopserve: drained, exiting")
	}
}
