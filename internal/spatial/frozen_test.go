package spatial

import (
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fraccascade/internal/subdivision"
)

// frozenBaseSeed anchors the differential: case c runs with seed
// frozenBaseSeed + c, so any reported failure replays standalone.
const frozenBaseSeed = int64(0x0F1A7_2000)

// TestDifferentialFrozenVsPointer pins the frozen spatial twin to the
// pointer locator: 1000 seeded random complexes, and for every query the
// frozen LocateCoopInto — direct, after a marshal/unmarshal round trip,
// and through the zero-copy open — must return the identical cell and
// bit-identical Stats at every processor count.
func TestDifferentialFrozenVsPointer(t *testing.T) {
	cases := 1000
	if testing.Short() {
		cases = 100
	}
	for c := 0; c < cases; c++ {
		caseSeed := frozenBaseSeed + int64(c)
		runFrozenCase(t, c, caseSeed)
	}
}

func runFrozenCase(t *testing.T, c int, caseSeed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(caseSeed))
	tiles, maxStack := 1+rng.Intn(60), 1+rng.Intn(6)
	if c%17 == 0 {
		tiles, maxStack = 1, 1 // exercise the treeless single-cell locator
	}
	cx := mustGen(t, tiles, maxStack, rng)
	l, err := NewLocator(cx)
	if err != nil {
		t.Fatalf("case seed %d: NewLocator: %v", caseSeed, err)
	}
	f, err := l.Freeze()
	if err != nil {
		t.Fatalf("case seed %d: Freeze: %v", caseSeed, err)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatalf("case seed %d: MarshalBinary: %v", caseSeed, err)
	}
	decoded, err := UnmarshalFrozen(blob)
	if err != nil {
		t.Fatalf("case seed %d: UnmarshalFrozen: %v", caseSeed, err)
	}
	opened, _, err := OpenFrozen(blob)
	if err != nil {
		t.Fatalf("case seed %d: OpenFrozen: %v", caseSeed, err)
	}
	scratches := []*Scratch{f.NewScratch(), decoded.NewScratch(), opened.NewScratch()}
	frozens := []*Frozen{f, decoded, opened}
	names := []string{"frozen", "decoded", "opened"}

	for q := 0; q < 10; q++ {
		x, y, z, _ := cx.RandomInteriorPoint(rng)
		p := 1 << uint(rng.Intn(18))
		wantCell, wantStats, wantErr := l.LocateCoop(x, y, z, p)
		for i, fz := range frozens {
			gotCell, gotStats, gotErr := fz.LocateCoopInto(x, y, z, p, scratches[i])
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("case seed %d: %s LocateCoop(%d,%d,%d,p=%d) err %v, want %v",
					caseSeed, names[i], x, y, z, p, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if gotCell != wantCell || gotStats != wantStats {
				t.Fatalf("case seed %d: %s LocateCoop(%d,%d,%d,p=%d) = (%d, %+v), want (%d, %+v)",
					caseSeed, names[i], x, y, z, p, gotCell, gotStats, wantCell, wantStats)
			}
		}
	}

	// Out-of-bounds queries fail identically.
	_, _, wantErr := l.LocateCoop(cx.XYMax+1, 1, 1, 4)
	_, _, gotErr := f.LocateCoopInto(cx.XYMax+1, 1, 1, 4, scratches[0])
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("case seed %d: out-of-bounds err %v, want %v", caseSeed, gotErr, wantErr)
	}
}

// TestFrozenLocateZeroAllocs pins the frozen spatial hot path: after the
// scratch has warmed up, a cooperative locate allocates nothing.
func TestFrozenLocateZeroAllocs(t *testing.T) {
	if os.Getenv("FRACCASCADE_GUARD") == "skip" {
		t.Skip("allocation guard skipped via FRACCASCADE_GUARD=skip")
	}
	rng := rand.New(rand.NewSource(11))
	cx := mustGen(t, 200, 6, rng)
	l, err := NewLocator(cx)
	if err != nil {
		t.Fatal(err)
	}
	f, err := l.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	sc := f.NewScratch()
	x, y, z, want := cx.RandomInteriorPoint(rng)
	for _, p := range []int{1, 16, 1 << 10, 1 << 16} {
		// Warm the scratch so frontier growth is behind us.
		if got, _, err := f.LocateCoopInto(x, y, z, p, sc); err != nil || got != want {
			t.Fatalf("LocateCoopInto(p=%d) = (%d, %v), want (%d, nil)", p, got, err, want)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := f.LocateCoopInto(x, y, z, p, sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("LocateCoopInto(p=%d) allocates %.1f per query, want 0", p, allocs)
		}
	}
}

// TestFrozenDecodeRejectsCorruption flips every byte of an encoded frozen
// locator one at a time: each mutant must either fail to open or remain a
// safely queryable structure — never panic.
func TestFrozenDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cx := mustGen(t, 12, 3, rng)
	l, err := NewLocator(cx)
	if err != nil {
		t.Fatal(err)
	}
	f, err := l.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	x, y, z, _ := cx.RandomInteriorPoint(rng)
	stride := 1
	if len(blob) > 4096 {
		stride = len(blob) / 4096
	}
	for i := 0; i < len(blob); i += stride {
		mutant := append([]byte(nil), blob...)
		mutant[i] ^= 0x40
		g, err := UnmarshalFrozen(mutant)
		if err != nil {
			continue
		}
		// CRC collisions are effectively impossible for single-bit flips, but
		// if a mutant decodes it must still be safe to query.
		g.LocateCoopInto(x, y, z, 16, g.NewScratch())
	}
	// Truncations must fail cleanly too.
	for _, n := range []int{0, 7, 8, 24, len(blob) / 2, len(blob) - 1} {
		if _, err := UnmarshalFrozen(blob[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}
}

// checkFrozenSpatial compares one frozen locate against the pointer one:
// cell, every Stats field and error text.
func checkFrozenSpatial(t *testing.T, what string, l *Locator, fz *Frozen, sc *Scratch, x, y, z int64, p int) {
	t.Helper()
	want, wantStats, wantErr := l.LocateCoop(x, y, z, p)
	got, gotStats, gotErr := fz.LocateCoopInto(x, y, z, p, sc)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: LocateCoop(%d,%d,%d,p=%d) err %v, pointer err %v", what, x, y, z, p, gotErr, wantErr)
	}
	if got != want || gotStats != wantStats {
		t.Fatalf("%s: LocateCoop(%d,%d,%d,p=%d) = (%d, %+v), pointer (%d, %+v)",
			what, x, y, z, p, got, gotStats, want, wantStats)
	}
}

// servedFixture is the spatial complex coopserve serves at 8,192 tiles,
// drawn as coopserve and bench/e2e draw it: the subdivision first, then
// the complex, from one stream seeded 3 ^ "geom". Its surface tree has
// 65,535 nodes and height 15, so hops clip at the leaves.
type servedFixture struct {
	cx *Complex
	l  *Locator
	f  *Frozen
}

var servedShape = sync.OnceValues(func() (*servedFixture, error) {
	rng := rand.New(rand.NewSource(3 ^ 0x67656f6d))
	if _, err := subdivision.Generate(8192, 24, rng); err != nil {
		return nil, err
	}
	cx, err := Generate(8192, 4, rng)
	if err != nil {
		return nil, err
	}
	l, err := NewLocator(cx)
	if err != nil {
		return nil, err
	}
	f, err := l.Freeze()
	if err != nil {
		return nil, err
	}
	return &servedFixture{cx: cx, l: l, f: f}, nil
})

func mustServedShape(t *testing.T) *servedFixture {
	t.Helper()
	fx, err := servedShape()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestDifferentialFrozenVsPointerServedShape pins the frozen locator to the
// pointer one at the served shape, directly and after a marshal/unmarshal
// round trip, at processor counts around every hop-height step and at 125,
// where a hop that miscounted its nodes would double their processor
// share. Every other query sits on or next to a facet (x and y on its
// edges or inside, z on its plane or one off), and about a third of those
// outside the complex, so slab bounds, ties with facet heights and the
// out-of-range error text are all compared. The facet is homed at a
// uniformly drawn surface node, so the deep nodes, whose few slabs a
// facet's edge often bounds, are drawn as often as the shallow ones.
func TestDifferentialFrozenVsPointerServedShape(t *testing.T) {
	fx := mustServedShape(t)
	if fx.f.height != 15 || fx.f.n != 1<<16-1 {
		t.Fatalf("served shape: height %d, %d nodes; want 15, 65535", fx.f.height, fx.f.n)
	}
	blob, err := fx.f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalFrozen(blob)
	if err != nil {
		t.Fatal(err)
	}
	frozens := map[string]*Frozen{"frozen": fx.f, "decoded": decoded}
	scratches := map[string]*Scratch{"frozen": fx.f.NewScratch(), "decoded": decoded.NewScratch()}
	cx, f := fx.cx, fx.f
	var homes []int32 // the nodes with at least one slab
	for v := int32(0); v < f.n; v++ {
		if f.nodeSlabBase[v+1] > f.nodeSlabBase[v] {
			homes = append(homes, v)
		}
	}
	rng := rand.New(rand.NewSource(27))
	// near draws one of the candidates or, one time in eight, a bound of
	// the complex's box [lo, hi] or a step past it.
	near := func(lo, hi int64, candidates ...int64) int64 {
		if rng.Intn(8) == 0 {
			return []int64{lo - 2, lo, hi, hi + 2}[rng.Intn(4)]
		}
		return candidates[rng.Intn(len(candidates))]
	}
	for q := 0; q < 300; q++ {
		x, y, z, _ := cx.RandomInteriorPoint(rng)
		if q%2 == 1 {
			v := homes[rng.Intn(len(homes))]
			lo, hi := f.slabFacetStart[f.nodeSlabBase[v]], f.slabFacetStart[f.nodeSlabBase[v+1]]
			fc := cx.Facets[f.slabFacets[lo+rng.Int31n(hi-lo)]]
			x = near(cx.XYMin, cx.XYMax, fc.X1, fc.X2, fc.X1+1+rng.Int63n(max(fc.X2-fc.X1-1, 1)))
			y = near(cx.XYMin, cx.XYMax, fc.Y1, fc.Y2, fc.Y1+1+rng.Int63n(max(fc.Y2-fc.Y1-1, 1)))
			z = near(cx.ZMin, cx.ZMax, fc.Z-1, fc.Z, fc.Z+1)
		}
		for _, p := range []int{1, 2, 3, 16, 125, 127, 128, 129, 4096, 1 << 17} {
			for name, fz := range frozens {
				checkFrozenSpatial(t, name, fx.l, fz, scratches[name], x, y, z, p)
			}
		}
	}
}

// TestFrozenScratchBoundedByHop pins the scratch to the hop, not the tree:
// on the served shape a fresh scratch and one locate at coopserve's share
// (p = 128, 127 hop nodes) allocate under 4 KB, where a scratch sized to
// the 65,535-node tree took about 590 KB.
func TestFrozenScratchBoundedByHop(t *testing.T) {
	if os.Getenv("FRACCASCADE_GUARD") == "skip" {
		t.Skip("allocation guard skipped via FRACCASCADE_GUARD=skip")
	}
	fx := mustServedShape(t)
	x, y, z, want := fx.cx.RandomInteriorPoint(rand.New(rand.NewSource(5)))
	if got, _, err := fx.f.LocateCoop(x, y, z, 128); err != nil || got != want {
		t.Fatalf("LocateCoop = (%d, %v), want (%d, nil)", got, err, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc := fx.f.NewScratch()
	got, _, err := fx.f.LocateCoopInto(x, y, z, 128, sc)
	runtime.ReadMemStats(&after)
	if err != nil || got != want {
		t.Fatalf("LocateCoopInto = (%d, %v), want (%d, nil)", got, err, want)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4096 {
		t.Errorf("NewScratch and one locate allocated %d bytes, want under 4096", n)
	}
}

// TestFrozenValidateRequiresHeap: the frozen hop walks the surface tree by
// heap index, so a stored tree that is not the perfect heap of its height
// must be refused by both decoders, even when its depths and child order
// look sound.
func TestFrozenValidateRequiresHeap(t *testing.T) {
	cx := mustGen(t, 40, 4, rand.New(rand.NewSource(13)))
	l, err := NewLocator(cx)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		mutate     func(f *Frozen)
	}{
		{"root's children swapped", "heap order", func(f *Frozen) {
			f.children[0], f.children[1] = f.children[1], f.children[0]
		}},
		{"node count off its height", "tree nodes for height", func(f *Frozen) { f.height++ }},
	} {
		f, err := l.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		c.mutate(f)
		blob, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalFrozen(blob); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: UnmarshalFrozen err %v, want one naming %q", c.name, err, c.want)
		}
		if _, _, err := OpenFrozen(blob); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: OpenFrozen err %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// FuzzFrozenSpatialLocate checks the frozen spatial locator against the
// pointer one on a fuzzed complex (seed, tile count, stack depth), point
// and processor count. The point is folded into the complex's box widened
// by a margin, so most inputs reach a locate and the rest exercise the
// out-of-range error text.
func FuzzFrozenSpatialLocate(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(3), int64(5), int64(3), int64(9), uint32(128))
	f.Add(int64(2), uint8(0), uint8(0), int64(-7), int64(0), int64(0), uint32(1))
	f.Add(int64(3), uint8(149), uint8(5), int64(1<<40), int64(-1), int64(1<<33), uint32(1<<17))
	f.Add(int64(4), uint8(63), uint8(2), int64(0), int64(1<<62), int64(-5), uint32(7))
	f.Fuzz(func(t *testing.T, seed int64, tiles, stack uint8, x, y, z int64, p uint32) {
		rng := rand.New(rand.NewSource(seed))
		cx := mustGen(t, 1+int(tiles)%150, 1+int(stack)%6, rng)
		l, err := NewLocator(cx)
		if err != nil {
			t.Fatal(err)
		}
		fz, err := l.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		const margin = 64
		into := func(v, lo, hi int64) int64 { return lo - margin + int64(uint64(v)%uint64(hi-lo+2*margin+1)) }
		qx, qy, qz := into(x, cx.XYMin, cx.XYMax), into(y, cx.XYMin, cx.XYMax), into(z, cx.ZMin, cx.ZMax)
		checkFrozenSpatial(t, "fuzz", l, fz, fz.NewScratch(), qx, qy, qz, int(p))
	})
}
