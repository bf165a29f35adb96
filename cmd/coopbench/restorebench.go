package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fraccascade/internal/benchfmt"
	"fraccascade/internal/core"
	"fraccascade/internal/flat"
	"fraccascade/internal/rangetree"
	"fraccascade/internal/segtree"
	"fraccascade/internal/snapshot"
	"fraccascade/internal/spatial"
	"fraccascade/internal/tree"
)

// e24TimeReps is how many timing passes each (kind, mode) cell runs; the
// fastest survives, as in E22/E23.
const e24TimeReps = 3

// e24Sink keeps decoded structures reachable so the compiler cannot
// discard the work being timed.
var e24Sink any

// e24Measure times fn (best of reps) and reports the heap grown by the
// final pass: GC, snapshot HeapAlloc, run, snapshot again. The delta is
// the live bytes a restore path pins — near zero for the zero-copy mmap
// path, the full structure for a deserializing restore.
func e24Measure(reps int, fn func()) (ms, heapKB float64) {
	best := 0.0
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		fn()
		elapsed := float64(time.Since(start).Microseconds()) / 1000
		runtime.ReadMemStats(&after)
		if rep == 0 || elapsed < best {
			best = elapsed
		}
		if d := float64(after.HeapAlloc) - float64(before.HeapAlloc); d > 0 {
			heapKB = d / 1024
		} else {
			heapKB = 0
		}
	}
	return best, heapKB
}

// e24RSSKB reads the process resident set from /proc/self/status, or -1
// where unavailable; informational only (not gated by benchdiff).
func e24RSSKB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	var kb float64
	for _, line := range splitLines(string(data)) {
		if n, _ := fmt.Sscanf(line, "VmRSS: %f kB", &kb); n == 1 {
			return kb
		}
	}
	return -1
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// e24Columns: restore latency and pinned heap get E22's 4x machine slack
// plus 1 ms / 64 KB absolute, so the near-zero mmap rows do not fail on
// scheduler and allocator noise alone.
var e24Columns = benchfmt.Columns{Keys: []string{"kind", "mode"}, Metrics: []benchfmt.Metric{
	benchfmt.Gated("restore_ms", "ms", benchfmt.Lower, 3).WithSlack(1),
	benchfmt.Gated("heap_kb", "KB", benchfmt.Lower, 3).WithSlack(64),
	{Name: "mapped", Unit: "bool", Better: benchfmt.Higher},
	{Name: "rss_kb", Unit: "KB", Better: benchfmt.Lower},
	{Name: "blob_kb", Unit: "KB", Better: benchfmt.Lower},
}}

// runE24 measures snapshot cold-start: the wall time and pinned heap to
// bring each frozen backend kind back to a queryable state from the flat
// sidecar, across the three restore paths coopserve reports as
// serve.restore_mode — mmap (zero-copy view over the mapped sidecar),
// deserialized (read the file, copy-decode every array), and refrozen
// (no usable sidecar: re-freeze from the pointer structure, the path a
// corrupt or stale sidecar degrades to). The mmap rows are the tentpole
// claim: restore cost stays flat as structures grow because nothing is
// copied until queries touch pages.
func runE24(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fmt.Println("snapshot cold-start: per-backend restore latency and pinned heap, mmap vs deserialized vs refrozen")

	// One fixture per store kind, sized like a small production shard set.
	leaves := 1 << 10
	bt, err := tree.NewBalancedBinary(leaves)
	if err != nil {
		panic(err)
	}
	cats := randomCatalogs(bt, leaves*94, rng)
	st, err := core.Build(bt, cats, core.Config{})
	if err != nil {
		panic(err)
	}
	cx, err := spatial.Generate(40, 4, rng)
	if err != nil {
		panic(err)
	}
	sp, err := spatial.NewLocator(cx)
	if err != nil {
		panic(err)
	}
	pts := make([]rangetree.Point2, 3000)
	for i := range pts {
		pts[i] = rangetree.Point2{X: rng.Int63n(4000), Y: rng.Int63n(4000)}
	}
	rt, err := rangetree.New2D(pts, core.Config{})
	if err != nil {
		panic(err)
	}
	segs := make([]segtree.VSegment, 1500)
	for i := range segs {
		y1 := 2 * rng.Int63n(2000)
		segs[i] = segtree.VSegment{X: 2 * rng.Int63n(2000), Y1: y1, Y2: y1 + 2 + 2*rng.Int63n(2000)}
	}
	it, err := segtree.NewIntersector(segs, core.Config{})
	if err != nil {
		panic(err)
	}

	type kindFixture struct {
		name     string
		kind     uint32
		marshal  func() ([]byte, error)
		open     func(data []byte) error // zero-copy decode
		copyDec  func(data []byte) error // copying decode
		refreeze func() error
	}
	fixtures := []kindFixture{
		{
			name: "catalog", kind: flat.StoreKindCatalog,
			marshal: func() ([]byte, error) {
				f, err := flat.Freeze(st)
				if err != nil {
					return nil, err
				}
				return f.MarshalBinary()
			},
			open: func(data []byte) error {
				f, _, err := flat.OpenStructure(data)
				e24Sink = f
				return err
			},
			copyDec: func(data []byte) error {
				f := new(flat.Structure)
				err := f.UnmarshalBinary(data)
				e24Sink = f
				return err
			},
			refreeze: func() error {
				f, err := flat.Freeze(st)
				e24Sink = f
				return err
			},
		},
		{
			name: "spatial", kind: flat.StoreKindSpatial,
			marshal: func() ([]byte, error) {
				f, err := sp.Freeze()
				if err != nil {
					return nil, err
				}
				return f.MarshalBinary()
			},
			open: func(data []byte) error {
				f, _, err := spatial.OpenFrozen(data)
				e24Sink = f
				return err
			},
			copyDec: func(data []byte) error {
				f, err := spatial.UnmarshalFrozen(data)
				e24Sink = f
				return err
			},
			refreeze: func() error {
				f, err := sp.Freeze()
				e24Sink = f
				return err
			},
		},
		{
			name: "rangetree", kind: flat.StoreKindRangeTree,
			marshal: func() ([]byte, error) {
				f, err := rt.Freeze()
				if err != nil {
					return nil, err
				}
				return f.MarshalBinary()
			},
			open: func(data []byte) error {
				f, _, err := rangetree.OpenFrozen2D(data)
				e24Sink = f
				return err
			},
			copyDec: func(data []byte) error {
				f, err := rangetree.UnmarshalFrozen2D(data)
				e24Sink = f
				return err
			},
			refreeze: func() error {
				f, err := rt.Freeze()
				e24Sink = f
				return err
			},
		},
		{
			name: "segtree", kind: flat.StoreKindSegTree,
			marshal: func() ([]byte, error) {
				f, err := it.Freeze()
				if err != nil {
					return nil, err
				}
				return f.MarshalBinary()
			},
			open: func(data []byte) error {
				f, _, err := segtree.OpenFrozenIntersector(data)
				e24Sink = f
				return err
			},
			copyDec: func(data []byte) error {
				f, err := segtree.UnmarshalFrozenIntersector(data)
				e24Sink = f
				return err
			},
			refreeze: func() error {
				f, err := it.Freeze()
				e24Sink = f
				return err
			},
		},
	}

	// Write the unified sidecar: one blob per kind, the exact layout
	// coopserve -flat saves.
	dir, err := os.MkdirTemp("", "coopbench-e24-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "snapshot.flat")
	blobs := make([]snapshot.FlatBlob, len(fixtures))
	for i, fx := range fixtures {
		data, err := fx.marshal()
		if err != nil {
			panic(err)
		}
		blobs[i] = snapshot.FlatBlob{Kind: fx.kind, Data: data}
	}
	if err := snapshot.SaveFlat(path, 1, blobs); err != nil {
		panic(err)
	}

	fmt.Printf("%-10s %-13s %12s %12s %10s\n", "kind", "mode", "restore ms", "heap KB", "blob KB")

	// Sidecar open itself: map vs full read.
	var view *snapshot.FlatView
	openMS, openHeap := e24Measure(e24TimeReps, func() {
		if view != nil {
			view.Close()
		}
		v, err := snapshot.OpenFlat(path)
		if err != nil {
			panic(err)
		}
		view = v
	})
	fmt.Printf("%-10s %-13s %12.3f %12.1f %10s\n", "sidecar", "mmap", openMS, openHeap, "-")
	record(e24Columns, map[string]any{
		"kind": "sidecar", "mode": "mmap",
		"restore_ms": openMS, "heap_kb": openHeap,
		"mapped": boolToInt(view.Mapped), "rss_kb": e24RSSKB(),
	})
	var loaded []snapshot.FlatBlob
	readMS, readHeap := e24Measure(e24TimeReps, func() {
		_, bs, err := snapshot.LoadFlat(path)
		if err != nil {
			panic(err)
		}
		loaded = bs
	})
	fmt.Printf("%-10s %-13s %12.3f %12.1f %10s\n", "sidecar", "deserialized", readMS, readHeap, "-")
	record(e24Columns, map[string]any{
		"kind": "sidecar", "mode": "deserialized",
		"restore_ms": readMS, "heap_kb": readHeap,
		"mapped": 0, "rss_kb": e24RSSKB(),
	})

	for i, fx := range fixtures {
		mapped := view.Blobs[i].Data
		copied := loaded[i].Data
		if view.Blobs[i].Kind != fx.kind || loaded[i].Kind != fx.kind {
			panic("sidecar blob kind out of order")
		}
		modes := []struct {
			name string
			fn   func()
		}{
			{"mmap", func() {
				if err := fx.open(mapped); err != nil {
					panic(err)
				}
			}},
			{"deserialized", func() {
				if err := fx.copyDec(copied); err != nil {
					panic(err)
				}
			}},
			{"refrozen", func() {
				if err := fx.refreeze(); err != nil {
					panic(err)
				}
			}},
		}
		for _, m := range modes {
			ms, heapKB := e24Measure(e24TimeReps, m.fn)
			fmt.Printf("%-10s %-13s %12.3f %12.1f %10.1f\n",
				fx.name, m.name, ms, heapKB, float64(len(mapped))/1024)
			record(e24Columns, map[string]any{
				"kind": fx.name, "mode": m.name,
				"restore_ms": ms, "heap_kb": heapKB,
				"blob_kb": float64(len(mapped)) / 1024,
				"rss_kb":  e24RSSKB(),
			})
		}
	}
	view.Close()
	e24Sink = nil
	fmt.Println("mmap rows must stay cheapest in both columns: the zero-copy view pins no heap and defers page faults to first query touch.")
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
