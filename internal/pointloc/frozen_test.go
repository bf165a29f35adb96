package pointloc

import (
	"hash/crc32"
	"math/rand"
	"os"
	"sync"
	"testing"

	"fraccascade/internal/core"
	"fraccascade/internal/geom"
	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
)

// frozenBaseSeed anchors the differential: case c runs with seed
// frozenBaseSeed + c, so any reported failure replays standalone.
const frozenBaseSeed = int64(0x0F1A7_3000)

// frozenProcs are the processor counts every differential query runs at:
// the sequential end, small odd shares, and the hop heights of the larger
// substructures.
var frozenProcs = []int{1, 2, 7, 64, 128, 4096}

// TestDifferentialFrozenVsPointer pins the frozen planar twin to the
// pointer locator: 1000 seeded random subdivisions, and for every query
// point and processor count the frozen LocateCoopInto must return the
// pointer LocateCoop's region, every Stats field and its error text. The
// pointer runs with Debug on, so its Step-3 pair check holds on every hop
// the frozen locator replays. Region counts cycle through 1, powers of two
// and padded non-powers; query points include random interior points,
// chain vertices, lattice points on edges, far lateral points, and points
// next to and on YMin and YMax.
func TestDifferentialFrozenVsPointer(t *testing.T) {
	cases := 1000
	if testing.Short() {
		cases = 100
	}
	sc := &Scratch{} // shared across cases: a reused scratch must not leak state
	for c := 0; c < cases; c++ {
		caseSeed := frozenBaseSeed + int64(c)
		rng := rand.New(rand.NewSource(caseSeed))
		l, fz, s := frozenCase(t, c, rng)
		for _, q := range frozenQueryPoints(s, rng) {
			for _, p := range frozenProcs {
				checkFrozenLocate(t, caseSeed, l, fz, sc, q, p)
			}
		}
	}
}

// frozenCase builds case c's subdivision, pointer locator (Debug on) and
// frozen twin.
func frozenCase(t *testing.T, c int, rng *rand.Rand) (*Locator, *Frozen, *subdivision.Subdivision) {
	t.Helper()
	var f int
	switch c % 4 {
	case 0:
		f = 1 << rng.Intn(8) // 1, 2, 4, …, 128: no padding
	case 1:
		f = 1
	default:
		f = 3 + rng.Intn(200) // padded unless it lands on a power of two
	}
	levels := 2 + rng.Intn(24)
	var cfg core.Config
	switch c % 5 {
	case 1:
		cfg.NoTruncation = true
	case 2:
		cfg.HOverride = func(int) int { return 1 + rng.Intn(4) }
	case 3:
		cfg.CascadeStride = 2 + rng.Intn(4)
	}
	var s *subdivision.Subdivision
	if c%3 == 0 {
		s = mustGenNested(t, f, levels, rng)
	} else {
		s = mustGen(t, f, levels, rng)
	}
	l, err := Build(s, cfg)
	if err != nil {
		t.Fatalf("case %d: Build: %v", c, err)
	}
	l.Debug = true
	fz, err := l.Freeze(c % 3)
	if err != nil {
		t.Fatalf("case %d: Freeze: %v", c, err)
	}
	if int(fz.f) != f {
		t.Fatalf("case %d: frozen locator has %d regions, want %d", c, fz.f, f)
	}
	return l, fz, s
}

// frozenQueryPoints draws one case's query points.
func frozenQueryPoints(s *subdivision.Subdivision, rng *rand.Rand) []geom.Point {
	var pts []geom.Point
	for i := 0; i < 6; i++ {
		q, _ := s.RandomInteriorPoint(rng)
		pts = append(pts, q)
	}
	minX, maxX := int64(0), int64(0)
	for _, e := range s.Edges {
		minX = min(minX, e.Seg.A.X, e.Seg.B.X)
		maxX = max(maxX, e.Seg.A.X, e.Seg.B.X)
	}
	for i := 0; i < 4 && len(s.Edges) > 0; i++ {
		e := s.Edges[rng.Intn(len(s.Edges))]
		// A chain vertex (an edge endpoint strictly inside the y-range
		// when there is one), then the first lattice point strictly
		// inside the edge, if any.
		v := e.Seg.A
		if v.Y <= s.YMin {
			v = e.Seg.B
		}
		pts = append(pts, v)
		dx, dy := e.Seg.B.X-e.Seg.A.X, e.Seg.B.Y-e.Seg.A.Y
		if g := gcd(abs(dx), dy); g >= 2 {
			pts = append(pts, geom.Point{X: e.Seg.A.X + dx/g, Y: e.Seg.A.Y + dy/g})
		}
	}
	x := minX + rng.Int63n(maxX-minX+1)
	pts = append(pts,
		geom.Point{X: x, Y: s.YMin + 1}, geom.Point{X: x, Y: s.YMax - 1},
		geom.Point{X: x, Y: s.YMin}, geom.Point{X: x, Y: s.YMax},
		geom.Point{X: minX - 1000, Y: s.YMin + 1 + rng.Int63n(s.YMax-s.YMin-1)},
		geom.Point{X: maxX + 1000, Y: s.YMin + 1 + rng.Int63n(s.YMax-s.YMin-1)},
	)
	return pts
}

// checkFrozenLocate compares one frozen locate against the pointer one.
func checkFrozenLocate(t *testing.T, seed int64, l *Locator, fz *Frozen, sc *Scratch, q geom.Point, p int) {
	t.Helper()
	want, wantStats, wantErr := l.LocateCoop(q, p)
	got, gotStats, gotErr := fz.LocateCoopInto(q, p, sc)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("seed %d, q=%v, p=%d: frozen err %v, pointer err %v", seed, q, p, gotErr, wantErr)
	}
	if got != want || gotStats != wantStats {
		t.Fatalf("seed %d, q=%v, p=%d: frozen (r_%d, %+v), pointer (r_%d, %+v)", seed, q, p, got, gotStats, want, wantStats)
	}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// servedFixture is the planar locator coopserve serves at 8,192 regions,
// drawn as coopserve and bench/e2e draw it: the subdivision first, from a
// stream seeded 3 ^ "geom". Its separator tree has height 13.
type servedFixture struct {
	s  *subdivision.Subdivision
	l  *Locator
	fz *Frozen
}

var servedShape = sync.OnceValues(func() (*servedFixture, error) {
	s, err := subdivision.Generate(8192, 24, rand.New(rand.NewSource(3^0x67656f6d)))
	if err != nil {
		return nil, err
	}
	l, err := Build(s, core.Config{})
	if err != nil {
		return nil, err
	}
	l.Debug = true
	fz, err := l.Freeze(0)
	if err != nil {
		return nil, err
	}
	return &servedFixture{s: s, l: l, fz: fz}, nil
})

func mustServedShape(t *testing.T) *servedFixture {
	t.Helper()
	fx, err := servedShape()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// servedProcs are coopserve's share of its 4,096 processors (p = 128, hop
// height 1) and the counts around it and around the substructure steps;
// p > 65,536 selects the last substructure, whose blocks have height 3.
var servedProcs = []int{1, 2, 127, 128, 129, 4096, 65536, 65537, 1 << 20}

// TestDifferentialFrozenVsPointerServedShape pins the frozen locator to
// the pointer one (Debug on) at the served shape: region, every Stats
// field and error text, for frozenQueryPoints and 200 random interior
// points at every servedProcs count. The random cases of
// TestDifferentialFrozenVsPointer build trees of height 8 at most; this
// one has height 13 and, at the default config, hops through height-3
// blocks at p > 65,536.
func TestDifferentialFrozenVsPointerServedShape(t *testing.T) {
	fx := mustServedShape(t)
	st := fx.l.st
	if fx.l.height != 13 {
		t.Fatalf("served shape: separator tree height %d, want 13", fx.l.height)
	}
	for p, h := range map[int]int{128: 1, 65537: 3} {
		if got := st.Substructure(st.SelectSub(p)).H; got != h {
			t.Fatalf("served shape: p=%d hops through height-%d blocks, want %d", p, got, h)
		}
	}
	const seed = 28
	rng := rand.New(rand.NewSource(seed))
	pts := frozenQueryPoints(fx.s, rng)
	for i := 0; i < 200; i++ {
		q, _ := fx.s.RandomInteriorPoint(rng)
		pts = append(pts, q)
	}
	sc := fx.fz.NewScratch()
	for _, q := range pts {
		for _, p := range servedProcs {
			checkFrozenLocate(t, seed, fx.l, fx.fz, sc, q, p)
		}
	}
}

// TestFrozenLocateZeroAllocs pins the frozen hot path: once the scratch
// has warmed up, LocateCoopInto allocates nothing, at every processor
// count (sequential tails and block hops alike), and at the served shape
// at coopserve's share and on the height-3 blocks of its last
// substructure.
func TestFrozenLocateZeroAllocs(t *testing.T) {
	if os.Getenv("FRACCASCADE_GUARD") == "skip" {
		t.Skip("allocation guard skipped via FRACCASCADE_GUARD=skip")
	}
	l, s, rng := buildLocator(t, 300, 16, 77, core.Config{})
	fz, err := l.Freeze(1)
	if err != nil {
		t.Fatal(err)
	}
	served := mustServedShape(t)
	for _, c := range []struct {
		s     *subdivision.Subdivision
		fz    *Frozen
		procs []int
	}{{s, fz, frozenProcs}, {served.s, served.fz, []int{128, 65537}}} {
		pts := make([]geom.Point, 64)
		for i := range pts {
			pts[i], _ = c.s.RandomInteriorPoint(rng)
		}
		sc := c.fz.NewScratch()
		for _, p := range c.procs {
			allocs := testing.AllocsPerRun(20, func() {
				for _, q := range pts {
					if _, _, err := c.fz.LocateCoopInto(q, p, sc); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%d regions: LocateCoopInto(p=%d) allocates %.2f per %d queries, want 0", c.s.NumRegions, p, allocs, len(pts))
			}
		}
	}
}

// FuzzFrozenLocate checks the frozen locator against the pointer one on a
// fuzzed subdivision (seed, region count), point and processor count. The
// point is folded into the subdivision's bounding box widened by a margin,
// y including YMin and YMax themselves, so most inputs reach a locate and
// the rest exercise the out-of-range error text. h sets every hop height
// to h%5 (0 keeps the derived heights, which are 1 at every size the
// fuzzer builds), so multi-level walks through a block are fuzzed too.
func FuzzFrozenLocate(f *testing.F) {
	f.Add(int64(1), uint8(24), int64(5), int64(3), uint16(64), uint8(0))
	f.Add(int64(2), uint8(0), int64(-7), int64(0), uint16(1), uint8(0))
	f.Add(int64(3), uint8(127), int64(1<<40), int64(-1), uint16(4096), uint8(0))
	f.Add(int64(4), uint8(63), int64(0), int64(1<<62), uint16(7), uint8(0))
	f.Add(int64(5), uint8(100), int64(3), int64(11), uint16(128), uint8(2))
	f.Add(int64(6), uint8(149), int64(-2), int64(1<<20), uint16(4096), uint8(3))
	f.Add(int64(7), uint8(140), int64(17), int64(-9), uint16(65535), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, regions uint8, x, y int64, p uint16, h uint8) {
		rng := rand.New(rand.NewSource(seed))
		s := mustGen(t, 1+int(regions)%150, 2+rng.Intn(20), rng)
		var cfg core.Config
		if hv := int(h % 5); hv > 0 {
			cfg.HOverride = func(int) int { return hv }
		}
		l, err := Build(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		l.Debug = true
		fz, err := l.Freeze(1)
		if err != nil {
			t.Fatal(err)
		}
		minX, maxX := int64(-64), int64(64)
		for _, e := range s.Edges {
			minX = min(minX, e.Seg.A.X, e.Seg.B.X)
			maxX = max(maxX, e.Seg.A.X, e.Seg.B.X)
		}
		q := geom.Point{
			X: minX + int64(uint64(x)%uint64(maxX-minX+1)),
			Y: s.YMin + int64(uint64(y)%uint64(s.YMax-s.YMin+1)),
		}
		checkFrozenLocate(t, seed, l, fz, fz.NewScratch(), q, int(p))
	})
}

// lcaByParentWalk is the reference LCA: lift the deeper node to the
// other's depth, then lift both until they meet.
func lcaByParentWalk(t *tree.Tree, u, v tree.NodeID) tree.NodeID {
	for t.Depth(u) > t.Depth(v) {
		u = t.Parent(u)
	}
	for t.Depth(v) > t.Depth(u) {
		v = t.Parent(v)
	}
	for u != v {
		u, v = t.Parent(u), t.Parent(v)
	}
	return u
}

// TestServedShapeHomes: at coopserve's 8,192-region shape every edge is
// homed at the LCA a parent walk finds from its two region leaves, and
// the frozen planar structure built over those homes is the one pinned by
// its flat store's CRC-32 and length.
func TestServedShapeHomes(t *testing.T) {
	fx := mustServedShape(t)
	l := fx.l
	for ei, e := range fx.s.Edges {
		left := tree.NodeID(l.fPad - 1 + int(e.Left) - 1)
		right := tree.NodeID(l.fPad - 1 + int(e.Right) - 1)
		if got, want := l.homeOf(e), lcaByParentWalk(l.t, left, right); got != want {
			t.Fatalf("edge %d (regions %d, %d) homed at node %d, want %d", ei, e.Left, e.Right, got, want)
		}
	}
	blob, err := fx.fz.st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const wantCRC, wantSize = 0x72c57be6, 5105028
	if crc, n := crc32.ChecksumIEEE(blob), len(blob); crc != wantCRC || n != wantSize {
		t.Fatalf("frozen planar store: %d bytes, CRC-32 %#08x; want %d bytes, %#08x", n, crc, wantSize, wantCRC)
	}
}
