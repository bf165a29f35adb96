// Package fraccascade's root benchmark suite: one testing.B benchmark per
// reproduction experiment (E1–E18, see DESIGN.md). Wall-clock numbers are
// host-dependent; the PRAM-relevant quantities (simulated steps, hops,
// processor slots) are emitted as custom benchmark metrics so that
// `go test -bench` regenerates the EXPERIMENTS.md tables' shape.
package fraccascade

import (
	"fmt"
	"math/rand"
	"testing"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/dynamic"
	"fraccascade/internal/geom"
	"fraccascade/internal/parallel"
	"fraccascade/internal/pointloc"
	"fraccascade/internal/pram"
	"fraccascade/internal/rangetree"
	"fraccascade/internal/segtree"
	"fraccascade/internal/spatial"
	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
)

func benchCatalogs(t *tree.Tree, total int, rng *rand.Rand) []catalog.Catalog {
	cats := make([]catalog.Catalog, t.N())
	per := total / t.N()
	for v := range cats {
		size := rng.Intn(2*per + 2)
		seen := map[catalog.Key]bool{}
		keys := make([]catalog.Key, 0, size)
		for len(keys) < size {
			k := catalog.Key(rng.Intn(total * 8))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		cats[v] = catalog.MustFromKeys(keys, nil)
	}
	return cats
}

func buildBenchStructure(b *testing.B, leaves, total int, cfg core.Config) (*core.Structure, *tree.Tree, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	bt, err := tree.NewBalancedBinary(leaves)
	if err != nil {
		b.Fatal(err)
	}
	cats := benchCatalogs(bt, total, rng)
	st, err := core.Build(bt, cats, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return st, bt, rng
}

// BenchmarkE1ExplicitCoopSearch measures explicit cooperative search
// across the processor range (Theorem 1).
func BenchmarkE1ExplicitCoopSearch(b *testing.B) {
	st, bt, rng := buildBenchStructure(b, 1<<10, 60000, core.Config{})
	path := bt.RootPath(tree.NodeID(bt.N() - 1))
	for _, p := range []int{1, 16, 256, 65536} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var steps, hops int64
			for i := 0; i < b.N; i++ {
				y := catalog.Key(rng.Intn(480000))
				_, stats, err := st.SearchExplicit(y, path, p)
				if err != nil {
					b.Fatal(err)
				}
				steps += int64(stats.Steps)
				hops += int64(stats.Hops)
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
			b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
		})
	}
	// Sequential fractional cascading and the naive repeated binary
	// search, for the work comparison.
	b.Run("seqFC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			y := catalog.Key(rng.Intn(480000))
			if _, err := st.Cascade().SearchPath(y, path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE2ImplicitCoopSearch measures implicit search (Section 2.3).
func BenchmarkE2ImplicitCoopSearch(b *testing.B) {
	st, bt, rng := buildBenchStructure(b, 1<<9, 30000, core.Config{})
	inorder, err := bt.InorderIndex()
	if err != nil {
		b.Fatal(err)
	}
	var leaves []tree.NodeID
	for v := tree.NodeID(0); int(v) < bt.N(); v++ {
		if bt.IsLeaf(v) {
			leaves = append(leaves, v)
		}
	}
	for _, p := range []int{1, 256, 65536} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				target := leaves[rng.Intn(len(leaves))]
				branch := func(r cascade.Result) core.Branch {
					if inorder[r.Node] < inorder[target] {
						return core.Right
					}
					return core.Left
				}
				_, _, stats, err := st.SearchImplicit(catalog.Key(rng.Intn(240000)), branch, p)
				if err != nil {
					b.Fatal(err)
				}
				steps += int64(stats.Steps)
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkE3Preprocess measures T' construction (Theorem 1 preprocessing).
func BenchmarkE3Preprocess(b *testing.B) {
	for _, leaves := range []int{1 << 8, 1 << 10, 1 << 12} {
		rng := rand.New(rand.NewSource(1))
		bt, err := tree.NewBalancedBinary(leaves)
		if err != nil {
			b.Fatal(err)
		}
		cats := benchCatalogs(bt, leaves*40, rng)
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				st, err := core.Build(bt, cats, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				rounds += int64(st.Cascade().Stats().Rounds)
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkE4Space measures structure space per input entry (Lemma 2).
func BenchmarkE4Space(b *testing.B) {
	for _, leaves := range []int{1 << 8, 1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				st, _, _ := buildBenchStructure(b, leaves, leaves*40, core.Config{})
				r := st.SpaceReport()
				ratio = float64(r.AugEntries+r.SkeletonSlots) / float64(r.NativeEntries)
			}
			b.ReportMetric(ratio, "space/entry")
		})
	}
}

// BenchmarkE5LongPaths measures the Theorem 2 long-path search.
func BenchmarkE5LongPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const k = 2000
	pt, err := tree.NewPath(k)
	if err != nil {
		b.Fatal(err)
	}
	cats := benchCatalogs(pt, k*4, rng)
	st, err := core.Build(pt, cats, core.Config{NoTruncation: true})
	if err != nil {
		b.Fatal(err)
	}
	full := pt.RootPath(tree.NodeID(k - 1))
	for _, p := range []int{1, 256, 65536} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				_, stats, err := st.SearchLongPath(catalog.Key(rng.Intn(k*32)), full, p, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				steps += int64(stats.Steps)
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkE6DegreeD measures Theorem 3's log d factor.
func BenchmarkE6DegreeD(b *testing.B) {
	for _, d := range []int{2, 8} {
		rng := rand.New(rand.NewSource(1))
		tr, err := tree.NewRandom(2000, d, rng)
		if err != nil {
			b.Fatal(err)
		}
		cats := benchCatalogs(tr, 8000, rng)
		ds, err := core.BuildDegreeD(tr, cats, core.Config{NoTruncation: true})
		if err != nil {
			b.Fatal(err)
		}
		deepest := tree.NodeID(0)
		for v := tree.NodeID(0); int(v) < tr.N(); v++ {
			if tr.Depth(v) > tr.Depth(deepest) {
				deepest = v
			}
		}
		path := tr.RootPath(deepest)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				_, stats, err := ds.SearchExplicit(catalog.Key(rng.Intn(64000)), path, 256)
				if err != nil {
					b.Fatal(err)
				}
				steps += int64(stats.Steps)
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkE7PointLocation measures cooperative planar point location
// (Theorem 4): the pointer locator at each p and sequentially, its frozen
// twin (Locator.Freeze, then LocateCoopInto on one warm scratch) at the
// same p, and the frozen locator at coopserve's served shape (8,192
// regions drawn from a stream seeded 3 ^ "geom") at coopserve's share,
// p = 128. Query points and their brute-force regions are drawn before
// the timer starts; every answer is checked.
func BenchmarkE7PointLocation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s, err := subdivision.Generate(512, 40, rng)
	if err != nil {
		b.Fatal(err)
	}
	loc, err := pointloc.Build(s, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	fz, err := loc.Freeze(1)
	if err != nil {
		b.Fatal(err)
	}
	pts, want := planarQueries(s, rng)
	served, err := subdivision.Generate(8192, 24, rand.New(rand.NewSource(3^0x67656f6d)))
	if err != nil {
		b.Fatal(err)
	}
	servedLoc, err := pointloc.Build(served, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	servedFz, err := servedLoc.Freeze(0)
	if err != nil {
		b.Fatal(err)
	}
	servedPts, servedWant := planarQueries(served, rng)

	for _, p := range []int{1, 256, 65536} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchLocate(b, pts, want, func(q geom.Point) (int, core.Stats, error) { return loc.LocateCoop(q, p) })
		})
	}
	b.Run("seq", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(pts)
			got, err := loc.LocateSeq(pts[j])
			if err != nil {
				b.Fatal(err)
			}
			if got != want[j] {
				b.Fatalf("wrong region: %d vs %d", got, want[j])
			}
		}
	})
	for _, p := range []int{1, 256, 65536} {
		b.Run(fmt.Sprintf("frozen/p=%d", p), func(b *testing.B) {
			sc := fz.NewScratch()
			benchLocate(b, pts, want, func(q geom.Point) (int, core.Stats, error) { return fz.LocateCoopInto(q, p, sc) })
		})
	}
	b.Run("frozen/served/p=128", func(b *testing.B) {
		sc := servedFz.NewScratch()
		benchLocate(b, servedPts, servedWant, func(q geom.Point) (int, core.Stats, error) {
			return servedFz.LocateCoopInto(q, 128, sc)
		})
	})
}

// planarQueries draws 1,024 interior points of s with their brute-force
// regions.
func planarQueries(s *subdivision.Subdivision, rng *rand.Rand) ([]geom.Point, []int) {
	pts, want := make([]geom.Point, 1024), make([]int, 1024)
	for i := range pts {
		pts[i], want[i] = s.RandomInteriorPoint(rng)
	}
	return pts, want
}

// benchLocate times locate over pts, cycling through them, checks every
// answer against want and reports the mean simulated steps.
func benchLocate(b *testing.B, pts []geom.Point, want []int, locate func(geom.Point) (int, core.Stats, error)) {
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pts)
		got, stats, err := locate(pts[j])
		if err != nil {
			b.Fatal(err)
		}
		if got != want[j] {
			b.Fatalf("wrong region: %d vs %d", got, want[j])
		}
		steps += int64(stats.Steps)
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkE8Spatial measures spatial point location (Theorem 5): the
// pointer locator at each p, its frozen twin (Locator.Freeze, then
// LocateCoopInto) at the same p, and the frozen locator at coopserve's
// served shape (the 8,192-tile complex drawn after the 8,192-region
// subdivision from one stream seeded 3 ^ "geom") at coopserve's share,
// p = 128. Query points and their brute-force cells are drawn before the
// timer starts; every answer is checked.
func BenchmarkE8Spatial(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, err := spatial.Generate(400, 5, rng)
	if err != nil {
		b.Fatal(err)
	}
	loc, err := spatial.NewLocator(c)
	if err != nil {
		b.Fatal(err)
	}
	fz, err := loc.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	qs, want := spatialQueries(c, rng)
	servedRNG := rand.New(rand.NewSource(3 ^ 0x67656f6d))
	if _, err := subdivision.Generate(8192, 24, servedRNG); err != nil {
		b.Fatal(err)
	}
	served, err := spatial.Generate(8192, 4, servedRNG)
	if err != nil {
		b.Fatal(err)
	}
	servedLoc, err := spatial.NewLocator(served)
	if err != nil {
		b.Fatal(err)
	}
	servedFz, err := servedLoc.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	servedQs, servedWant := spatialQueries(served, rng)

	for _, p := range []int{1, 256, 65536} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchSpatial(b, qs, want, func(q spatialQuery) (int, spatial.Stats, error) { return loc.LocateCoop(q.x, q.y, q.z, p) })
		})
	}
	for _, p := range []int{1, 256, 65536} {
		b.Run(fmt.Sprintf("frozen/p=%d", p), func(b *testing.B) {
			sc := fz.NewScratch()
			benchSpatial(b, qs, want, func(q spatialQuery) (int, spatial.Stats, error) { return fz.LocateCoopInto(q.x, q.y, q.z, p, sc) })
		})
	}
	b.Run("frozen/served/p=128", func(b *testing.B) {
		sc := servedFz.NewScratch()
		benchSpatial(b, servedQs, servedWant, func(q spatialQuery) (int, spatial.Stats, error) {
			return servedFz.LocateCoopInto(q.x, q.y, q.z, 128, sc)
		})
	})
}

// spatialQuery is one spatial point-location query point.
type spatialQuery struct{ x, y, z int64 }

// spatialQueries draws 1,024 interior points of c with their cells.
func spatialQueries(c *spatial.Complex, rng *rand.Rand) ([]spatialQuery, []int) {
	qs, want := make([]spatialQuery, 1024), make([]int, 1024)
	for i := range qs {
		qs[i].x, qs[i].y, qs[i].z, want[i] = c.RandomInteriorPoint(rng)
	}
	return qs, want
}

// benchSpatial is benchLocate for spatial queries.
func benchSpatial(b *testing.B, qs []spatialQuery, want []int, locate func(spatialQuery) (int, spatial.Stats, error)) {
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(qs)
		got, stats, err := locate(qs[j])
		if err != nil {
			b.Fatal(err)
		}
		if got != want[j] {
			b.Fatalf("wrong cell: %d vs %d", got, want[j])
		}
		steps += int64(stats.Steps)
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkE9Retrieval measures the Theorem 6 retrieval structures.
func BenchmarkE9Retrieval(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	segs := make([]segtree.VSegment, 4000)
	for i := range segs {
		y1 := 2 * rng.Int63n(8000)
		segs[i] = segtree.VSegment{X: 2 * rng.Int63n(8000), Y1: y1, Y2: y1 + 2 + 2*rng.Int63n(4000)}
	}
	it, err := segtree.NewIntersector(segs, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	q := segtree.HQuery{Y: 6001, X1: 1000, X2: 9000}
	b.Run("segint/direct/p=256", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			_, stats, err := it.QueryDirect(q, 256)
			if err != nil {
				b.Fatal(err)
			}
			total += int64(stats.Total())
		}
		b.ReportMetric(float64(total)/float64(b.N), "steps/op")
	})
	b.Run("segint/indirect/p=256", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			_, stats, err := it.QueryIndirect(q, 256)
			if err != nil {
				b.Fatal(err)
			}
			total += int64(stats.SearchSteps + stats.AllocSteps)
		}
		b.ReportMetric(float64(total)/float64(b.N), "steps/op")
	})
	rects := make([]segtree.Rect, 4000)
	for i := range rects {
		x1, y1 := 2*rng.Int63n(8000), 2*rng.Int63n(8000)
		rects[i] = segtree.Rect{X1: x1, X2: x1 + 2*rng.Int63n(3000), Y1: y1, Y2: y1 + 2*rng.Int63n(3000)}
	}
	en, err := segtree.NewEncloser(rects, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("enclosure/p=256", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			_, stats, err := en.QueryDirect(6001, 6001, 256)
			if err != nil {
				b.Fatal(err)
			}
			total += int64(stats.Total())
		}
		b.ReportMetric(float64(total)/float64(b.N), "steps/op")
	})
	pts := make([]rangetree.Point2, 4000)
	for i := range pts {
		pts[i] = rangetree.Point2{X: rng.Int63n(8000), Y: rng.Int63n(8000)}
	}
	rt, err := rangetree.New2D(pts, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("range2d/p=256", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			_, stats, err := rt.QueryDirect(rangetree.Query2{X1: 1000, X2: 5000, Y1: 1000, Y2: 5000}, 256)
			if err != nil {
				b.Fatal(err)
			}
			total += int64(stats.Total())
		}
		b.ReportMetric(float64(total)/float64(b.N), "steps/op")
	})
}

// BenchmarkE10MultiDim measures Corollary 2's d-dimensional recursion.
func BenchmarkE10MultiDim(b *testing.B) {
	for _, d := range []int{2, 3} {
		rng := rand.New(rand.NewSource(1))
		n := 2000
		if d == 3 {
			n = 500
		}
		pts := make([][]int64, n)
		for i := range pts {
			pt := make([]int64, d)
			for c := range pt {
				pt[c] = rng.Int63n(2000)
			}
			pts[i] = pt
		}
		kd, err := rangetree.NewKD(pts, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		lo := make([]int64, d)
		hi := make([]int64, d)
		for c := 0; c < d; c++ {
			lo[c], hi[c] = 300, 1500
		}
		b.Run(fmt.Sprintf("d=%d/p=256", d), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				_, stats, err := kd.QueryDirect(rangetree.QueryKD{Lo: lo, Hi: hi}, 256)
				if err != nil {
					b.Fatal(err)
				}
				total += int64(stats.Total())
			}
			b.ReportMetric(float64(total)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkE11SkeletonBuild measures the skeleton forest construction
// whose disjointness Lemma 1 guarantees.
func BenchmarkE11SkeletonBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bt, err := tree.NewBalancedBinary(1 << 10)
	if err != nil {
		b.Fatal(err)
	}
	cats := benchCatalogs(bt, 60000, rng)
	s, err := cascade.Build(bt, cats, cascade.Options{Bidirectional: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildFromCascade(s, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15SubtreeSearch measures the generalized-search-path
// extension (open problem 3): steps stay flat as subtree breadth grows.
func BenchmarkE15SubtreeSearch(b *testing.B) {
	st, bt, rng := buildBenchStructure(b, 1<<10, 60000, core.Config{})
	var leaves []tree.NodeID
	for v := tree.NodeID(0); int(v) < bt.N(); v++ {
		if bt.IsLeaf(v) {
			leaves = append(leaves, v)
		}
	}
	for _, k := range []int{1, 16, 64} {
		targets := make([]tree.NodeID, k)
		for i := range targets {
			targets[i] = leaves[rng.Intn(len(leaves))]
		}
		b.Run(fmt.Sprintf("targets=%d", k), func(b *testing.B) {
			var steps, slots int64
			for i := 0; i < b.N; i++ {
				_, stats, err := st.SearchSubtree(catalog.Key(rng.Intn(480000)), targets, 256)
				if err != nil {
					b.Fatal(err)
				}
				steps += int64(stats.Steps)
				slots += int64(stats.SlotsPeak)
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
			b.ReportMetric(float64(slots)/float64(b.N), "slotsPeak/op")
		})
	}
}

// BenchmarkE16DynamicChurn measures the dynamic extension (open problem
// 4): mixed insert/delete/query workload with amortized rebuilds.
func BenchmarkE16DynamicChurn(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bt, err := tree.NewBalancedBinary(1 << 6)
	if err != nil {
		b.Fatal(err)
	}
	native := benchCatalogs(bt, 4000, rng)
	d, err := dynamic.New(bt, native, core.Config{}, 256)
	if err != nil {
		b.Fatal(err)
	}
	path := bt.RootPath(tree.NodeID(bt.N() - 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch i % 3 {
		case 0:
			_ = d.Insert(tree.NodeID(rng.Intn(bt.N())), catalog.Key(rng.Int63n(1<<40)), int32(i))
		case 1:
			v := tree.NodeID(rng.Intn(bt.N()))
			if k, _ := d.Find(v, catalog.Key(rng.Intn(16000))); k != catalog.PlusInf {
				_ = d.Delete(v, k)
			}
		default:
			if _, _, err := d.SearchExplicit(catalog.Key(rng.Intn(16000)), path, 256); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(d.Rebuilds()), "rebuilds")
}

// BenchmarkBatchedVsSequential measures the E20 engine claim as a
// benchmark: queries/step for batched execution versus the
// one-query-at-a-time baseline at the same total processor budget. The
// simulated throughput is emitted as a custom metric; the hard floor
// (batched > sequential at b=64) is enforced by TestBatchThroughputGuard
// via `make bench-check`.
func BenchmarkBatchedVsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	fx := buildEngineFixture(b, 4096, rng)
	for _, bs := range []int{8, 64} {
		b.Run(fmt.Sprintf("batched/b=%d", bs), func(b *testing.B) {
			var qPerStep float64
			for i := 0; i < b.N; i++ {
				batched, _ := fx.measure(b, rng, bs, 2)
				qPerStep = batched
			}
			b.ReportMetric(qPerStep, "q/step")
		})
		b.Run(fmt.Sprintf("sequential/b=%d", bs), func(b *testing.B) {
			var qPerStep float64
			for i := 0; i < b.N; i++ {
				_, sequential := fx.measure(b, rng, bs, 2)
				qPerStep = sequential
			}
			b.ReportMetric(qPerStep, "q/step")
		})
	}
}

// BenchmarkE14CoopBinarySearch measures the Step-1 primitive. The key
// array is staged into machine memory once per processor count (as a
// resident structure would be); each iteration measures one search.
func BenchmarkE14CoopBinarySearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 20
	keys := make([]int64, n)
	v := int64(0)
	for i := range keys {
		v += 1 + rng.Int63n(5)
		keys[i] = v
	}
	for _, p := range []int{1, 15, 255, 65535} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			s := parallel.NewCoopSearcher(keys, p)
			b.ResetTimer()
			var rounds int64
			for i := 0; i < b.N; i++ {
				y := rng.Int63n(keys[n-1] + 2)
				_, r := s.Search(y)
				rounds += int64(r)
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkE17SearchPRAM runs the E17 experiment body — a complete
// explicit search executed as a machine program — on both tracing
// executors at the seed parameters, so `-bench E17` compares the
// goroutine-barrier machine against the sequential virtual machine
// directly. The executor differential tests pin their step counts, work,
// and conflict verdicts to be identical; this benchmark shows the
// wall-clock gap that makes virtual the default.
func BenchmarkE17SearchPRAM(b *testing.B) {
	st, bt, rng := buildBenchStructure(b, 1<<6, 6000, core.Config{})
	path := bt.RootPath(tree.NodeID(bt.N() - 1))
	for _, kind := range []pram.ExecutorKind{pram.KindBarrier, pram.KindVirtual} {
		b.Run(fmt.Sprintf("executor=%s", kind), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				for _, p := range []int{1, 4, 16, 256, 65536} {
					m := pram.MustNewExecutor(kind, pram.CREW, 1<<21)
					y := catalog.Key(rng.Intn(48000))
					_, rep, err := st.SearchExplicitPRAM(m, y, path, p)
					if err != nil {
						b.Fatal(err)
					}
					steps += int64(rep.MachineSteps)
				}
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}
