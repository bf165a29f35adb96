// Package spatial implements spatial point location in an acyclic cell
// complex (Theorem 5, Corollary 1): the three-dimensional extension of the
// separator tree based on separating surfaces.
//
// Cells are axis-aligned boxes arranged in vertical columns over a
// guillotine tiling of the xy-square; the vertical dominance relation is
// acyclic by construction and sorting boxes by their bottom z-coordinate
// yields a topological order, standing in for the Voronoi complexes of
// Corollary 1 (see DESIGN.md for the substitution argument). The balanced
// tree T has the cells at its leaves in topological order; internal node j
// is the separating surface χ_j between cells of index ≤ j and > j. A
// facet whose lower cell has index b and upper cell index a belongs to
// surfaces χ_b..χ_{a−1} and is stored once, at the LCA of that range
// (its proper surface), exactly like proper edges in the planar case.
// Sentinel facets at the bottom and top of every column make each χ_j
// total over every column, so every "gap" during a search is a
// stored-elsewhere gap resolved by the same monotone (L, R) bracket as in
// planar point location.
//
// Discriminating a query against χ_j is a planar point location in the
// projection of χ_j's proper facets. Because the projected facets are
// disjoint axis-aligned rectangles, each node carries a slab structure
// (x-slabs, y-sorted rectangles per slab) searched with two cooperative
// p-ary dictionary searches — the same O((log n)/log p) discrimination
// cost Theorem 4 provides for general monotone subdivisions. A hop
// processes Θ(log p) levels of T at once, giving the Theorem 5 total of
// O((log² n)/log² p).
package spatial

import (
	"cmp"
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"fraccascade/internal/parallel"
)

// Box is an axis-aligned cell.
type Box struct {
	X1, X2, Y1, Y2, Z1, Z2 int64
}

// Contains reports whether the box contains the (strict interior) point.
func (b Box) Contains(x, y, z int64) bool {
	return b.X1 < x && x < b.X2 && b.Y1 < y && y < b.Y2 && b.Z1 < z && z < b.Z2
}

// Facet is a horizontal rectangle separating two cells of a column
// (sentinel facets use cell index 0 below the column and r+1 above it).
type Facet struct {
	X1, X2, Y1, Y2 int64
	Z              int64
	// Below and Above are 1-based cell indices in topological order;
	// Below == 0 marks the bottom sentinel, Above == r+1 the top one.
	Below, Above int32
}

// Complex is an acyclic cell complex of stacked boxes over a rectangular
// tiling, with cells listed in topological (dominance-respecting) order.
type Complex struct {
	Cells  []Box
	Facets []Facet
	// XYMin/XYMax bound the tiling; ZMin/ZMax bound every column.
	XYMin, XYMax, ZMin, ZMax int64
}

// span is the extent of the tiling and of every column. It is even, and
// Generate puts every facet bound on an even coordinate, so queries use
// odd ones.
const span = int64(1 << 20)

// maxStackLimit is the largest maxStack Generate accepts: a column draws its
// k−1 distinct interior cuts from the span/2−2 even values 2, 4, …,
// span−4, so it holds at most span/2−1 cells.
const maxStackLimit = int(span/2 - 1)

// Generate builds a random complex: a guillotine tiling of the xy-square
// into `tiles` rectangles, each carrying a stack of 1..maxStack boxes.
// It returns an error for invalid parameters (tiles < 1, or maxStack
// outside [1, 524287], past which a column cannot draw distinct cuts).
//
// Each step splits the rectangle of largest area that still has room,
// the lowest index among equals; a max-heap keyed on (area, index) finds
// it in O(log tiles), so the tiling takes O(tiles log tiles) and the same
// rng draws as a scan over every rectangle.
func Generate(tiles, maxStack int, rng *rand.Rand) (*Complex, error) {
	if tiles < 1 || maxStack < 1 {
		return nil, fmt.Errorf("spatial: invalid parameters tiles=%d maxStack=%d (both must be ≥ 1)", tiles, maxStack)
	}
	if maxStack > maxStackLimit {
		return nil, fmt.Errorf("spatial: invalid parameter maxStack=%d (a column holds at most %d cells)", maxStack, maxStackLimit)
	}
	rects := []rect{{0, span, 0, span}}
	todo := splitHeap{{area: span * span, i: 0}}
	for len(rects) < tiles && len(todo) > 0 {
		best := todo[0].i
		r := rects[best]
		splitX := r.x2-r.x1 >= r.y2-r.y1
		if splitX && r.x2-r.x1 < 4 {
			splitX = false
		}
		if !splitX && r.y2-r.y1 < 4 {
			splitX = true
		}
		var next rect
		if splitX {
			cut := r.x1 + 2 + 2*rng.Int63n((r.x2-r.x1-2)/2)
			rects[best], next = rect{r.x1, cut, r.y1, r.y2}, rect{cut, r.x2, r.y1, r.y2}
		} else {
			cut := r.y1 + 2 + 2*rng.Int63n((r.y2-r.y1-2)/2)
			rects[best], next = rect{r.x1, r.x2, r.y1, cut}, rect{r.x1, r.x2, cut, r.y2}
		}
		rects = append(rects, next)
		if rects[best].splittable() {
			todo[0].area = rects[best].area()
			heap.Fix(&todo, 0)
		} else {
			heap.Pop(&todo)
		}
		if next.splittable() {
			heap.Push(&todo, splitEntry{area: next.area(), i: len(rects) - 1})
		}
	}
	c := &Complex{XYMin: 0, XYMax: span, ZMin: 0, ZMax: span}
	// bounds[i] is column i's z bounds bottom-up: ZMin, its k−1 distinct
	// even interior cuts, ZMax.
	bounds := make([][]int64, len(rects))
	for i := range rects {
		k := 1 + rng.Intn(maxStack)
		b := make([]int64, 1, k+1)
		for drawn := map[int64]bool{}; len(b) < k; {
			if z := 2 + 2*rng.Int63n(span/2-2); !drawn[z] {
				drawn[z] = true
				b = append(b, z)
			}
		}
		slices.Sort(b[1:])
		bounds[i] = append(b, c.ZMax)
	}
	// Cells: all boxes, topologically ordered by bottom z, ties broken by
	// column (dominance is intra-column only, so any z1-sorted order is
	// topological). Z1 is distinct within a column, so (Z1, column) is a
	// total order and any sort yields the same cells.
	type protoCell struct {
		box Box
		col int
	}
	var proto []protoCell
	for ci, r := range rects {
		b := bounds[ci]
		for k := 0; k+1 < len(b); k++ {
			proto = append(proto, protoCell{
				box: Box{X1: r.x1, X2: r.x2, Y1: r.y1, Y2: r.y2, Z1: b[k], Z2: b[k+1]},
				col: ci,
			})
		}
	}
	slices.SortFunc(proto, func(a, b protoCell) int {
		if c := cmp.Compare(a.box.Z1, b.box.Z1); c != 0 {
			return c
		}
		return cmp.Compare(a.col, b.col)
	})
	c.Cells = make([]Box, len(proto))
	idxInCol := make([][]int32, len(rects)) // column -> cell indices bottom-up
	for i, pc := range proto {
		c.Cells[i] = pc.box
		idxInCol[pc.col] = append(idxInCol[pc.col], int32(i+1))
	}
	r := int32(len(c.Cells))
	// Facets: between consecutive boxes of a column, plus sentinels.
	c.Facets = make([]Facet, 0, len(proto)+len(rects))
	for ci, cr := range rects {
		ids, b := idxInCol[ci], bounds[ci]
		mk := func(z int64, below, above int32) {
			c.Facets = append(c.Facets, Facet{
				X1: cr.x1, X2: cr.x2, Y1: cr.y1, Y2: cr.y2,
				Z: z, Below: below, Above: above,
			})
		}
		mk(c.ZMin, 0, ids[0])
		for k := 0; k+1 < len(ids); k++ {
			mk(b[k+1], ids[k], ids[k+1])
		}
		mk(c.ZMax, ids[len(ids)-1], r+1)
	}
	return c, nil
}

// rect is a tile of Generate's tiling.
type rect struct{ x1, x2, y1, y2 int64 }

func (r rect) area() int64 { return (r.x2 - r.x1) * (r.y2 - r.y1) }

// splittable reports whether a cut on even coordinates leaves both halves
// non-empty along some axis.
func (r rect) splittable() bool { return r.x2-r.x1 >= 4 || r.y2-r.y1 >= 4 }

// splitEntry is a splittable rectangle in Generate's heap: its index in
// the tiling and its area.
type splitEntry struct {
	area int64
	i    int
}

// splitHeap is a container/heap max-heap of the splittable rectangles,
// the largest area first and the lowest index among equal areas.
type splitHeap []splitEntry

func (h splitHeap) Len() int { return len(h) }
func (h splitHeap) Less(a, b int) bool {
	if h[a].area != h[b].area {
		return h[a].area > h[b].area
	}
	return h[a].i < h[b].i
}
func (h splitHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *splitHeap) Push(x any)   { *h = append(*h, x.(splitEntry)) }
func (h *splitHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// LocateBrute returns the 1-based index of the cell containing the query
// by scanning all cells: the validation oracle.
func (c *Complex) LocateBrute(x, y, z int64) (int, error) {
	for i, b := range c.Cells {
		if b.Contains(x, y, z) {
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("spatial: point (%d,%d,%d) in no cell", x, y, z)
}

// RandomInteriorPoint returns an odd-coordinate point strictly inside a
// random cell, with that cell's index.
func (c *Complex) RandomInteriorPoint(rng *rand.Rand) (x, y, z int64, cell int) {
	for {
		i := rng.Intn(len(c.Cells))
		b := c.Cells[i]
		if b.X2-b.X1 < 2 || b.Y2-b.Y1 < 2 || b.Z2-b.Z1 < 2 {
			continue
		}
		x = b.X1 + 1 + 2*rng.Int63n((b.X2-b.X1)/2)
		y = b.Y1 + 1 + 2*rng.Int63n((b.Y2-b.Y1)/2)
		z = b.Z1 + 1 + 2*rng.Int63n((b.Z2-b.Z1)/2)
		return x, y, z, i + 1
	}
}

// Validate checks structural invariants of the complex.
func (c *Complex) Validate() error {
	r := int32(len(c.Cells))
	for i, f := range c.Facets {
		if f.Below < 0 || f.Above > r+1 || (f.Below >= f.Above) {
			return fmt.Errorf("spatial: facet %d has bad cell pair (%d, %d)", i, f.Below, f.Above)
		}
	}
	// Topological order: for facets between real cells, below < above
	// already checked; also cells sorted by Z1 within shared columns is
	// implied by construction.
	prev := int64(-1)
	for i, b := range c.Cells {
		if b.Z1 < prev {
			return fmt.Errorf("spatial: cell %d breaks z-sorted topological order", i)
		}
		prev = b.Z1
	}
	return nil
}

// nodeLocator is the per-surface planar point-location structure over the
// projections of the surface's proper facets: x-slabs with y-sorted
// disjoint rectangles.
type nodeLocator struct {
	xs    []int64   // slab boundaries (sorted unique x-coordinates)
	slabs [][]int32 // facet ids per slab, sorted by Y1
}

// buildNodeLocator builds the slab structure over the proper facets ids.
// A surface's facets are disjoint in projection, so the facets crossing
// one slab have distinct Y1: ids are sorted by Y1 once and swept into
// slabs sized beforehand, and each slab comes out in Y1 order.
func buildNodeLocator(facets []Facet, ids []int32) nodeLocator {
	var nl nodeLocator
	if len(ids) == 0 {
		return nl
	}
	xs := make([]int64, 0, 2*len(ids))
	for _, id := range ids {
		xs = append(xs, facets[id].X1, facets[id].X2)
	}
	slices.Sort(xs)
	nl.xs = slices.Compact(xs)
	byY1 := slices.Clone(ids)
	slices.SortFunc(byY1, func(a, b int32) int { return cmp.Compare(facets[a].Y1, facets[b].Y1) })
	// Facet id spans slabs [lo, hi): the slabs between its x bounds.
	slabsOf := func(id int32) (lo, hi int) {
		lo, _ = slices.BinarySearch(nl.xs, facets[id].X1)
		hi, _ = slices.BinarySearch(nl.xs, facets[id].X2)
		return lo, hi
	}
	start := make([]int, len(nl.xs))
	for _, id := range ids {
		lo, hi := slabsOf(id)
		for s := lo; s < hi; s++ {
			start[s+1]++
		}
	}
	for s := 1; s < len(start); s++ {
		start[s] += start[s-1]
	}
	all := make([]int32, start[len(start)-1])
	nl.slabs = make([][]int32, len(nl.xs)-1)
	for s := range nl.slabs {
		nl.slabs[s] = all[start[s]:start[s]:start[s+1]]
	}
	for _, id := range byY1 {
		lo, hi := slabsOf(id)
		for s := lo; s < hi; s++ {
			nl.slabs[s] = append(nl.slabs[s], id)
		}
	}
	return nl
}

// locate returns the proper facet covering (x, y) in projection, or −1.
// rounds reports the cooperative search cost with p processors: two p-ary
// dictionary searches (x-slab, then y within the slab).
func (nl *nodeLocator) locate(facets []Facet, x, y int64, p int) (id int32, rounds int) {
	if len(nl.xs) == 0 {
		return -1, 1
	}
	slab := sort.Search(len(nl.xs), func(i int) bool { return nl.xs[i] > x }) - 1
	rounds += parallel.CoopSearchSteps(len(nl.xs), p)
	if slab < 0 || slab >= len(nl.slabs) {
		return -1, rounds
	}
	list := nl.slabs[slab]
	rounds += parallel.CoopSearchSteps(len(list), p)
	i := sort.Search(len(list), func(k int) bool { return facets[list[k]].Y2 >= y })
	if i < len(list) && facets[list[i]].Y1 <= y && y <= facets[list[i]].Y2 {
		return list[i], rounds
	}
	return -1, rounds
}
