package spatial

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
)

// generateByScan is the reference for Generate: it finds each split by
// scanning every rectangle so far (O(tiles²)), keeps each column's cuts in
// a map, and orders cells with a stable sort.
func generateByScan(tiles, maxStack int, rng *rand.Rand) *Complex {
	const span = int64(1 << 20)
	rects := []rect{{0, span, 0, span}}
	for len(rects) < tiles {
		best, bestArea := -1, int64(0)
		for i, r := range rects {
			area := (r.x2 - r.x1) * (r.y2 - r.y1)
			if area > bestArea && (r.x2-r.x1 >= 4 || r.y2-r.y1 >= 4) {
				best, bestArea = i, area
			}
		}
		if best < 0 {
			break
		}
		r := rects[best]
		splitX := r.x2-r.x1 >= r.y2-r.y1
		if splitX && r.x2-r.x1 < 4 {
			splitX = false
		}
		if !splitX && r.y2-r.y1 < 4 {
			splitX = true
		}
		if splitX {
			cut := r.x1 + 2 + 2*rng.Int63n((r.x2-r.x1-2)/2)
			rects[best] = rect{r.x1, cut, r.y1, r.y2}
			rects = append(rects, rect{cut, r.x2, r.y1, r.y2})
		} else {
			cut := r.y1 + 2 + 2*rng.Int63n((r.y2-r.y1-2)/2)
			rects[best] = rect{r.x1, r.x2, r.y1, cut}
			rects = append(rects, rect{r.x1, r.x2, cut, r.y2})
		}
	}
	c := &Complex{XYMin: 0, XYMax: span, ZMin: 0, ZMax: span}
	cuts := make([][]int64, len(rects))
	for i := range rects {
		k := 1 + rng.Intn(maxStack)
		cutSet := map[int64]bool{}
		for len(cutSet) < k-1 {
			cutSet[2+2*rng.Int63n(span/2-2)] = true
		}
		for z := range cutSet {
			cuts[i] = append(cuts[i], z)
		}
		sort.Slice(cuts[i], func(a, b int) bool { return cuts[i][a] < cuts[i][b] })
	}
	type protoCell struct {
		box Box
		col int
	}
	var proto []protoCell
	for ci, r := range rects {
		bounds := append(append([]int64{c.ZMin}, cuts[ci]...), c.ZMax)
		for k := 0; k+1 < len(bounds); k++ {
			proto = append(proto, protoCell{
				box: Box{X1: r.x1, X2: r.x2, Y1: r.y1, Y2: r.y2, Z1: bounds[k], Z2: bounds[k+1]},
				col: ci,
			})
		}
	}
	sort.SliceStable(proto, func(a, b int) bool {
		if proto[a].box.Z1 != proto[b].box.Z1 {
			return proto[a].box.Z1 < proto[b].box.Z1
		}
		return proto[a].col < proto[b].col
	})
	c.Cells = make([]Box, len(proto))
	idxInCol := make(map[int][]int32)
	for i, pc := range proto {
		c.Cells[i] = pc.box
		idxInCol[pc.col] = append(idxInCol[pc.col], int32(i+1))
	}
	r := int32(len(c.Cells))
	for ci, cr := range rects {
		ids := idxInCol[ci]
		bounds := append(append([]int64{c.ZMin}, cuts[ci]...), c.ZMax)
		mk := func(z int64, below, above int32) {
			c.Facets = append(c.Facets, Facet{
				X1: cr.x1, X2: cr.x2, Y1: cr.y1, Y2: cr.y2,
				Z: z, Below: below, Above: above,
			})
		}
		mk(c.ZMin, 0, ids[0])
		for k := 0; k+1 < len(ids); k++ {
			mk(bounds[k+1], ids[k], ids[k+1])
		}
		mk(c.ZMax, ids[len(ids)-1], r+1)
	}
	return c
}

// buildNodeLocatorBySlabSort is the reference for buildNodeLocator: a map
// of seen x bounds, then every slab sorted by Y1 on its own.
func buildNodeLocatorBySlabSort(facets []Facet, ids []int32) nodeLocator {
	var nl nodeLocator
	if len(ids) == 0 {
		return nl
	}
	seen := map[int64]bool{}
	for _, id := range ids {
		f := facets[id]
		for _, x := range []int64{f.X1, f.X2} {
			if !seen[x] {
				seen[x] = true
				nl.xs = append(nl.xs, x)
			}
		}
	}
	sort.Slice(nl.xs, func(a, b int) bool { return nl.xs[a] < nl.xs[b] })
	nl.slabs = make([][]int32, len(nl.xs)-1)
	for _, id := range ids {
		f := facets[id]
		lo := sort.Search(len(nl.xs), func(i int) bool { return nl.xs[i] >= f.X1 })
		hi := sort.Search(len(nl.xs), func(i int) bool { return nl.xs[i] >= f.X2 })
		for s := lo; s < hi; s++ {
			nl.slabs[s] = append(nl.slabs[s], id)
		}
	}
	for _, slab := range nl.slabs {
		sort.Slice(slab, func(a, b int) bool { return facets[slab[a]].Y1 < facets[slab[b]].Y1 })
	}
	return nl
}

// referenceCase is one seeded Generate input of the reference tests.
type referenceCase struct {
	seed            int64
	tiles, maxStack int
}

// referenceCases are 500 seeded shapes: stacks of 1–6 cells, and tile
// counts drawn below 50, 500 and 5,000 in turn.
func referenceCases() []referenceCase {
	rng := rand.New(rand.NewSource(0x5ca9))
	cases := make([]referenceCase, 500)
	for i := range cases {
		cases[i] = referenceCase{
			seed:     int64(i + 1),
			tiles:    1 + rng.Intn([]int{50, 500, 5000}[i%3]),
			maxStack: 1 + rng.Intn(6),
		}
	}
	return cases
}

// servedRNG returns the stream coopserve draws its complex from: seeded
// 3 ^ "geom", past the 8,192-region subdivision drawn first.
func servedRNG(t *testing.T) *rand.Rand {
	t.Helper()
	rng := rand.New(rand.NewSource(3 ^ 0x67656f6d))
	if _, err := subdivision.Generate(8192, 24, rng); err != nil {
		t.Fatal(err)
	}
	return rng
}

// TestGenerateMatchesScan holds Generate to generateByScan: the same
// complex and the same next rng draw, over the reference cases and the
// served shape (8,192 tiles, stacks of up to 4).
func TestGenerateMatchesScan(t *testing.T) {
	check := func(name string, tiles, maxStack int, rng, refRNG *rand.Rand) {
		got, err := Generate(tiles, maxStack, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := generateByScan(tiles, maxStack, refRNG); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Generate(%d, %d) differs from the scan", name, tiles, maxStack)
		}
		if got, want := rng.Int63(), refRNG.Int63(); got != want {
			t.Fatalf("%s: next draw %d after Generate, %d after the scan", name, got, want)
		}
	}
	for _, rc := range referenceCases() {
		check(fmt.Sprintf("seed %d", rc.seed), rc.tiles, rc.maxStack,
			rand.New(rand.NewSource(rc.seed)), rand.New(rand.NewSource(rc.seed)))
	}
	check("served shape", 8192, 4, servedRNG(t), servedRNG(t))
}

// TestNewLocatorMatchesReferenceBuild holds every surface of the
// reference cases' complexes and of the served one to the references: the
// facets homed at a node are those whose leaves' LCA, by a parent walk, is
// that node, and the node's slab boundaries and slabs are the ones the
// per-slab sort builds over them.
func TestNewLocatorMatchesReferenceBuild(t *testing.T) {
	check := func(name string, cx *Complex) {
		l, err := NewLocator(cx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l.r == 1 {
			return
		}
		perNode := make([][]int32, l.t.N())
		leaf := func(idx int32) tree.NodeID { return tree.NodeID(l.rPad - 1 + int(idx) - 1) }
		for fi, f := range cx.Facets {
			lo, hi := max(f.Below, 1), min(f.Above-1, int32(l.r-1))
			if lo <= hi {
				home := lcaByParentWalk(l.t, leaf(lo), leaf(hi+1))
				perNode[home] = append(perNode[home], int32(fi))
			}
		}
		for v, ids := range perNode {
			want, got := buildNodeLocatorBySlabSort(cx.Facets, ids), l.locs[v]
			if !slices.Equal(got.xs, want.xs) || !slices.EqualFunc(got.slabs, want.slabs, slices.Equal[[]int32]) {
				t.Fatalf("%s: node %d: xs %v slabs %v, want xs %v slabs %v", name, v, got.xs, got.slabs, want.xs, want.slabs)
			}
		}
	}
	for _, rc := range referenceCases() {
		check(fmt.Sprintf("seed %d", rc.seed), mustGen(t, rc.tiles, rc.maxStack, rand.New(rand.NewSource(rc.seed))))
	}
	check("served shape", mustServedShape(t).cx)
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

// TestSplitHeapOrder: Generate's heap yields the largest area first and,
// among equal areas, the lowest index — the rectangle the scan picks —
// also after the top entry shrinks in place, as a split shrinks it.
func TestSplitHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h splitHeap
	for _, i := range rng.Perm(300) {
		heap.Push(&h, splitEntry{area: int64(1 + rng.Intn(4)), i: i})
	}
	h[0].area = 2
	heap.Fix(&h, 0)
	var got []splitEntry
	for h.Len() > 0 {
		got = append(got, heap.Pop(&h).(splitEntry))
	}
	if !slices.IsSortedFunc(got, func(a, b splitEntry) int {
		if a.area != b.area {
			return int(b.area - a.area)
		}
		return a.i - b.i
	}) {
		t.Fatalf("heap order %v", got)
	}
}

// TestGenerateRejectsUncuttableStack: a maxStack above maxStackLimit could
// draw a column of more cells than there are distinct even cuts, so
// Generate refuses it, naming maxStack, instead of drawing forever. With
// seed 2 the first column of Generate(4, 1<<21) would draw 1,746,649
// cells; with seed 44082 the one column of Generate(1, maxStackLimit) draws 5.
func TestGenerateRejectsUncuttableStack(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Generate(4, 1<<21, rand.New(rand.NewSource(2)))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "maxStack") {
			t.Fatalf("Generate(4, 1<<21) = %v, want an error naming maxStack", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Generate(4, 1<<21) did not return in 10 s")
	}
	if _, err := Generate(1, maxStackLimit+1, rand.New(rand.NewSource(44082))); err == nil {
		t.Fatal("Generate(1, maxStackLimit+1) returned no error")
	}
	c, err := Generate(1, maxStackLimit, rand.New(rand.NewSource(44082)))
	if err != nil || len(c.Cells) != 5 {
		t.Fatalf("Generate(1, maxStackLimit) = %v cells, %v; want 5 cells", len(c.Cells), err)
	}
}
