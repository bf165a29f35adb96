package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/engine"
	"fraccascade/internal/flat"
	"fraccascade/internal/geom"
	"fraccascade/internal/obs"
	"fraccascade/internal/pointloc"
	"fraccascade/internal/snapshot"
	"fraccascade/internal/spatial"
	"fraccascade/internal/tree"
)

// ladderReps is how many timed passes each rung makes; it reports their
// median.
const ladderReps = 5

// ladder is the in-process part of a traced run: the workload's first
// queries replayed through each layer's public API, from the raw searches
// up to the engine as coopserve wires it.
type ladder struct {
	metrics map[string]float64
	lines   []string
	spans   []span
	// searchUSPerReq is the raw pointer-layout search time of one request's
	// queries, the innermost layer of the self-time split.
	searchUSPerReq float64
}

// rung times pass, which handles n operations: one warm pass, one pass
// counting heap allocations, then ladderReps timed passes. It records a
// span and returns the median ns and the allocations per operation.
func (l *ladder) rung(name string, n int, pass func()) (nsPerOp, allocsPerOp float64) {
	t0 := time.Now()
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(n)
	ts := make([]float64, ladderReps)
	for r := range ts {
		start := time.Now()
		pass()
		ts[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	nsPerOp = median(ts)
	l.span(name, t0, map[string]any{"ops": n, "ns_per_op": nsPerOp, "allocs_per_op": allocsPerOp})
	l.lines = append(l.lines, fmt.Sprintf("ladder %-26s %12.1f ns/op  %8.2f allocs/op  (%d ops, median of %d passes: %s)",
		name, nsPerOp, allocsPerOp, n, ladderReps, fmtList(ts, "%.0f")))
	return nsPerOp, allocsPerOp
}

// timed runs f once and records its wall time as a span, in ms.
func (l *ladder) timed(name string, f func() error) (float64, error) {
	t0 := time.Now()
	if err := f(); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	d := msSince(t0)
	l.span(name, t0, map[string]any{"ms": d})
	l.lines = append(l.lines, fmt.Sprintf("ladder %-26s %12.2f ms", name, d))
	return d, nil
}

func (l *ladder) span(name string, start time.Time, attrs map[string]any) {
	l.spans = append(l.spans, span{Name: name, Start: start.UnixNano(), End: time.Now().UnixNano(), Attrs: attrs})
}

// ladderQueries returns the workload's first verifyQueries queries, split by
// structure. A workload without catalog (or geometry) queries gets
// uniform catalog (or mixed geometry) queries from the same seed, so every
// rung has work on every workload.
func ladderQueries(w *workload, seed int64, pool *geoPool) (all, cat, geo []query) {
	all = firstQueries(w, seed, pool, verifyQueries)
	for _, q := range all {
		if q.Kind == kindCatalog {
			cat = append(cat, q)
		} else {
			geo = append(geo, q)
		}
	}
	if len(cat) == 0 {
		alt := *w
		alt.Keys = keysUniform
		cat = firstQueries(&alt, seed, pool, verifyQueries)
	}
	if len(geo) == 0 {
		alt := *w
		alt.Keys = keysGeo
		geo = firstQueries(&alt, seed, pool, verifyQueries)
	}
	return all, cat, geo
}

// firstQueries returns the first n queries of the workload's stream.
func firstQueries(w *workload, seed int64, pool *geoPool, n int) []query {
	var qs []query
	for i := 0; len(qs) < n; i++ {
		qs = genRequest(w, seed, i, pool, qs)
	}
	return qs[:n]
}

// runLadder measures every in-process rung. store is the server's loaded
// snapshot; g the regenerated geometry; tmpSnap a scratch path for the
// snapshot save rung.
func runLadder(ctx context.Context, w *workload, seed int64, store *snapshot.Store, g *geometry, tmpSnap string) (*ladder, error) {
	l := &ladder{metrics: map[string]float64{}}
	all, cat, geo := ladderQueries(w, seed, g.pool())
	// Each query gets the processor share coopserve gives it: a request's
	// queries run as batches of at most Batch.
	batch := min(w.Shape.Batch, w.QPR)
	p := w.Shape.Procs / batch

	// snapshot: save the loaded store again.
	var err error
	if l.metrics["snapshot.save_ms"], err = l.timed("snapshot.save", func() error { return snapshot.Save(tmpSnap, store) }); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(tmpSnap); err == nil {
		l.metrics["snapshot.file_mb"] = float64(fi.Size()) / 1e6
	}
	if err := os.Remove(tmpSnap); err != nil {
		return nil, err
	}

	// core: rebuild each shard from its native catalogs, then search the
	// loaded shards.
	structs := make([]*core.Structure, len(store.Shards))
	for i, sh := range store.Shards {
		structs[i] = sh.Static
	}
	if l.metrics["core.build_ms"], err = l.timed("core.build", func() error {
		for _, st := range structs {
			if _, err := core.Build(st.Tree(), nativeCatalogs(st.Cascade()), core.Config{}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	paths := make([][]tree.NodeID, len(cat))
	for i, q := range cat {
		paths[i] = structs[q.Shard].Tree().RootPath(tree.NodeID(q.Node))
	}
	var searchErr error
	coreNS, allocs := l.rung("core.search", len(cat), func() {
		for i, q := range cat {
			if _, _, err := structs[q.Shard].SearchExplicit(catalog.Key(q.Key), paths[i], p); err != nil {
				searchErr = err
			}
		}
	})
	l.metrics["core.search_ns"], l.metrics["core.search_allocs"] = coreNS, allocs

	// flat: freeze each shard, then search the frozen layout.
	frozen := make([]*flat.Structure, len(structs))
	if l.metrics["flat.freeze_ms"], err = l.timed("flat.freeze", func() error {
		for i, st := range structs {
			if frozen[i], err = flat.FreezeParallel(st, 0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]cascade.Result, w.Shape.Leaves*2)
	l.metrics["flat.search_ns"], l.metrics["flat.search_allocs"] = l.rung("flat.search", len(cat), func() {
		for i, q := range cat {
			if _, err := frozen[q.Shard].SearchExplicitInto(catalog.Key(q.Key), paths[i], p, out); err != nil {
				searchErr = err
			}
		}
	})

	// pointloc and spatial: build the locators, then locate.
	var pl *pointloc.Locator
	if l.metrics["pointloc.build_ms"], err = l.timed("pointloc.build", func() (err error) {
		pl, err = pointloc.Build(g.sub, core.Config{})
		return err
	}); err != nil {
		return nil, err
	}
	var sp *spatial.Locator
	if l.metrics["spatial.build_ms"], err = l.timed("spatial.build", func() (err error) {
		sp, err = spatial.NewLocatorParallel(g.cx, 0)
		return err
	}); err != nil {
		return nil, err
	}
	var pts []geom.Point
	var boxes [][3]int64
	for _, q := range geo {
		if q.Kind == kindPoint {
			pts = append(pts, g.p.points[q.Pool])
		} else {
			boxes = append(boxes, g.p.boxes[q.Pool])
		}
	}
	pointNS, _ := l.rung("pointloc.locate", len(pts), func() {
		for _, pt := range pts {
			if _, _, err := pl.LocateCoop(pt, p); err != nil {
				searchErr = err
			}
		}
	})
	l.metrics["pointloc.locate_ns"] = pointNS
	spatialNS, _ := l.rung("spatial.locate", len(boxes), func() {
		for _, b := range boxes {
			if _, _, err := sp.LocateCoop(b[0], b[1], b[2], p); err != nil {
				searchErr = err
			}
		}
	})
	l.metrics["spatial.locate_ns"] = spatialNS
	fz, err := sp.Freeze()
	if err != nil {
		return nil, err
	}
	sc := fz.NewScratch()
	l.metrics["spatial.frozen_locate_ns"], _ = l.rung("spatial.frozen_locate", len(boxes), func() {
		for _, b := range boxes {
			if _, _, err := fz.LocateCoopInto(b[0], b[1], b[2], p, sc); err != nil {
				searchErr = err
			}
		}
	})
	if searchErr != nil {
		return nil, fmt.Errorf("ladder search: %w", searchErr)
	}
	if w.Keys == keysGeo {
		l.searchUSPerReq = float64(w.QPR) * (pointNS + spatialNS) / 2 / 1e3
	} else {
		l.searchUSPerReq = float64(w.QPR) * coreNS / 1e3
	}

	// engine: the workload's queries in coopserve's batches, first with
	// nothing attached, then with the registry, span ring, flight recorder
	// and latency windows coopserve attaches by default.
	backends, err := engine.BackendsFromStore(store)
	if err != nil {
		return nil, err
	}
	batches := engineBatches(all, structs, g.pool(), batch)
	bare, err := engine.New(engine.Config{Procs: w.Shape.Procs, BatchSize: w.Shape.Batch}, backends, pl, sp)
	if err != nil {
		return nil, err
	}
	ns, allocs := l.rung("engine.execute", len(all), func() {
		for _, b := range batches {
			if _, _, err := bare.ExecuteBatch(b); err != nil {
				searchErr = err
			}
		}
	})
	l.metrics["engine.execute_ns_per_query"], l.metrics["engine.execute_allocs_per_query"] = ns, allocs
	withObs, err := engine.New(engine.Config{
		Procs:     w.Shape.Procs,
		BatchSize: w.Shape.Batch,
		Obs:       obs.NewRegistry(),
		Tracer:    obs.NewRing(4096),
		Recorder:  obs.NewFlightRecorder(obs.FlightRecorderConfig{Reservoir: 2048}),
	}, backends, pl, sp)
	if err != nil {
		return nil, err
	}
	latWin := obs.NewWindowedHistogram(10*time.Second, 12)
	slo := obs.NewSLO(250*time.Millisecond, 0.99, 10*time.Second, 12)
	obsNS, obsAllocs := l.rung("engine.execute_obs", len(all), func() {
		for _, b := range batches {
			answers, _, err := withObs.ExecuteBatch(b)
			if err != nil {
				searchErr = err
			}
			for i := range answers {
				latWin.Observe(answers[i].WallNS)
				slo.Observe(answers[i].WallNS)
			}
		}
	})
	if searchErr != nil {
		return nil, fmt.Errorf("ladder engine: %w", searchErr)
	}
	l.metrics["engine.execute_obs_ns_per_query"], l.metrics["engine.execute_obs_allocs_per_query"] = obsNS, obsAllocs
	l.metrics["engine.telemetry_ratio"] = ratio(obsNS, ns)
	return l, nil
}

// nativeCatalogs returns the native catalog of every node.
func nativeCatalogs(cs *cascade.Structure) []catalog.Catalog {
	out := make([]catalog.Catalog, cs.Tree().N())
	for v := range out {
		out[v] = cs.Native(tree.NodeID(v))
	}
	return out
}

// engineBatches converts qs to engine queries in batches of size b.
func engineBatches(qs []query, structs []*core.Structure, pool *geoPool, b int) [][]engine.Query {
	var out [][]engine.Query
	for lo := 0; lo < len(qs); lo += b {
		var eb []engine.Query
		for _, q := range qs[lo:min(lo+b, len(qs))] {
			switch q.Kind {
			case kindCatalog:
				path := structs[q.Shard].Tree().RootPath(tree.NodeID(q.Node))
				eb = append(eb, engine.CatalogQuery(q.Shard, catalog.Key(q.Key), path))
			case kindPoint:
				eb = append(eb, engine.PointQuery(pool.points[q.Pool]))
			case kindSpatial:
				bx := pool.boxes[q.Pool]
				eb = append(eb, engine.SpatialQuery(bx[0], bx[1], bx[2]))
			}
		}
		out = append(out, eb)
	}
	return out
}
