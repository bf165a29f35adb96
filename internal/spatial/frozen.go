package spatial

import (
	"fmt"

	"fraccascade/internal/flat"
	"fraccascade/internal/parallel"
	"fraccascade/internal/tree"
)

// Frozen is the flat SoA encoding of a Locator: the surface tree, the
// per-node slab structures, and the facet geometry rebuilt as int32-indexed
// arrays with no internal pointers, serialized through the shared
// flat.Store codec. LocateCoopInto replicates the pointer locate hop for
// hop — identical cells, identical Stats — at zero heap allocations per
// query (pinned by the seeded differential and the alloc guards).
type Frozen struct {
	r, rPad, height, n   int32
	xyMin, xyMax         int64
	zMin, zMax           int64
	sep, cell, depth     []int32
	childStart, children []int32
	fBelow, fAbove       []int32
	fY1, fY2, fZ         []int64
	// Per-node slab structures: node v's slab boundaries occupy
	// xs[xsStart[v]:xsStart[v+1]]; its k boundaries carry k−1 slabs whose
	// global indices start at nodeSlabBase[v]; slab g's facet ids occupy
	// slabFacets[slabFacetStart[g]:slabFacetStart[g+1]], sorted by Y1.
	xsStart        []int32
	xs             []int64
	nodeSlabBase   []int32
	slabFacetStart []int32
	slabFacets     []int32
}

// Scratch is the reusable per-goroutine state of a frozen locate: the
// facet id each node of the current hop located, or −1, in the pointer
// path's BFS order. It grows on first use to the hop's node count
// 2^(h+1) − 1 and never with the tree. One scratch serves one query at a
// time; concurrent queries need one scratch each.
type Scratch struct {
	ids []int32
}

// NewScratch returns an empty scratch for this structure.
func (f *Frozen) NewScratch() *Scratch { return &Scratch{} }

// Freeze re-encodes the locator into the flat layout. Every slice is
// allocated once at its final size.
func (l *Locator) Freeze() (*Frozen, error) {
	f := &Frozen{
		r: int32(l.r), rPad: int32(l.rPad),
		xyMin: l.c.XYMin, xyMax: l.c.XYMax, zMin: l.c.ZMin, zMax: l.c.ZMax,
	}
	nf := len(l.c.Facets)
	f.fBelow = make([]int32, nf)
	f.fAbove = make([]int32, nf)
	f.fY1 = make([]int64, nf)
	f.fY2 = make([]int64, nf)
	f.fZ = make([]int64, nf)
	for i, fc := range l.c.Facets {
		f.fBelow[i], f.fAbove[i] = fc.Below, fc.Above
		f.fY1[i], f.fY2[i], f.fZ[i] = fc.Y1, fc.Y2, fc.Z
	}
	if l.r == 1 {
		return f, nil // single cell: no tree, every query answers 1
	}
	n := l.t.N()
	f.n = int32(n)
	f.height = int32(l.height)
	f.sep = make([]int32, n)
	copy(f.sep, l.sep)
	f.cell = make([]int32, n)
	copy(f.cell, l.cell)
	f.depth = make([]int32, n)
	f.childStart = make([]int32, n+1)
	totalChildren := 0
	for v := 0; v < n; v++ {
		totalChildren += len(l.t.Children(tree.NodeID(v)))
	}
	f.children = make([]int32, totalChildren)
	off := 0
	totalXS, totalSlabs, totalSlabFacets := 0, 0, 0
	for v := 0; v < n; v++ {
		f.depth[v] = int32(l.t.Depth(tree.NodeID(v)))
		f.childStart[v] = int32(off)
		for _, c := range l.t.Children(tree.NodeID(v)) {
			f.children[off] = c
			off++
		}
		totalXS += len(l.locs[v].xs)
		totalSlabs += len(l.locs[v].slabs)
		for _, slab := range l.locs[v].slabs {
			totalSlabFacets += len(slab)
		}
	}
	f.childStart[n] = int32(off)
	f.xsStart = make([]int32, n+1)
	f.xs = make([]int64, totalXS)
	f.nodeSlabBase = make([]int32, n+1)
	f.slabFacetStart = make([]int32, totalSlabs+1)
	f.slabFacets = make([]int32, totalSlabFacets)
	xsOff, slabOff, sfOff := 0, 0, 0
	for v := 0; v < n; v++ {
		f.xsStart[v] = int32(xsOff)
		f.nodeSlabBase[v] = int32(slabOff)
		nl := &l.locs[v]
		copy(f.xs[xsOff:], nl.xs)
		xsOff += len(nl.xs)
		for _, slab := range nl.slabs {
			f.slabFacetStart[slabOff] = int32(sfOff)
			copy(f.slabFacets[sfOff:], slab)
			sfOff += len(slab)
			slabOff++
		}
	}
	f.xsStart[n] = int32(xsOff)
	f.nodeSlabBase[n] = int32(slabOff)
	f.slabFacetStart[totalSlabs] = int32(sfOff)
	return f, nil
}

// isLeaf reports whether node v has no children.
func (f *Frozen) isLeaf(v int32) bool { return f.childStart[v+1] == f.childStart[v] }

// nodeLocate is nodeLocator.locate on the flat layout: the proper facet
// covering (x, y) in projection, or −1, with the identical cooperative
// round count (two p-ary dictionary searches). Binary searches are
// hand-rolled so the hot path allocates nothing.
func (f *Frozen) nodeLocate(v int32, x, y int64, p int) (id int32, rounds int) {
	xlo, xhi := int(f.xsStart[v]), int(f.xsStart[v+1])
	k := xhi - xlo
	if k == 0 {
		return -1, 1
	}
	rounds = parallel.CoopSearchSteps(k, p)
	if x < f.xs[xlo] || x >= f.xs[xhi-1] {
		return -1, rounds // outside every slab
	}
	// First boundary > x (sort.Search on xs), which lies in (xlo, xhi−1];
	// the slab before it holds x.
	lo, hi := xlo+1, xhi-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.xs[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	g := int(f.nodeSlabBase[v]) + lo - xlo - 1
	slo, shi := int(f.slabFacetStart[g]), int(f.slabFacetStart[g+1])
	rounds += parallel.CoopSearchSteps(shi-slo, p)
	// First facet in the y-sorted slab with Y2 ≥ y.
	a, b := slo, shi
	for a < b {
		mid := int(uint(a+b) >> 1)
		if f.fY2[f.slabFacets[mid]] >= y {
			b = mid
		} else {
			a = mid + 1
		}
	}
	if a < shi {
		id := f.slabFacets[a]
		if f.fY1[id] <= y && y <= f.fY2[id] {
			return id, rounds
		}
	}
	return -1, rounds
}

// fold narrows the bracket by the facet id a node located and reports
// whether the query lies above it, which sends the search right.
func (f *Frozen) fold(id int32, z int64, br *bracket) (goRight bool) {
	if z > f.fZ[id] {
		br.maxEL = max(br.maxEL, min(f.fAbove[id]-1, f.r-1))
		return true
	}
	br.minER = min(br.minER, max(f.fBelow[id], 1))
	return false
}

// discriminate mirrors Locator.discriminate on the flat layout.
func (f *Frozen) discriminate(v int32, x, y, z int64, br *bracket, p int) (goRight bool, rounds int, err error) {
	j := f.sep[v]
	id, rounds := f.nodeLocate(v, x, y, p)
	if id >= 0 {
		return f.fold(id, z, br), rounds, nil
	}
	switch {
	case j <= br.maxEL:
		return true, rounds, nil
	case j >= br.minER:
		return false, rounds, nil
	default:
		return false, rounds, fmt.Errorf("spatial: surface %d undetermined (maxEL=%d minER=%d)", j, br.maxEL, br.minER)
	}
}

func (f *Frozen) checkQuery(x, y, z int64) error {
	if x <= f.xyMin || x >= f.xyMax || y <= f.xyMin || y >= f.xyMax ||
		z <= f.zMin || z >= f.zMax {
		return fmt.Errorf("spatial: query (%d,%d,%d) outside the complex", x, y, z)
	}
	return nil
}

// hopHeight mirrors Locator.hopHeight.
func (f *Frozen) hopHeight(p int) int {
	h := 1
	for (1<<(uint(h)+2))-1 <= p && h < int(f.height) {
		h++
	}
	return h
}

// LocateCoop is LocateCoopInto with a throwaway scratch, for callers that
// do not care about steady-state allocations.
func (f *Frozen) LocateCoop(x, y, z int64, p int) (int, Stats, error) {
	return f.LocateCoopInto(x, y, z, p, f.NewScratch())
}

// LocateCoopInto performs the cooperative spatial search of Theorem 5 on
// the frozen layout: bit-identical cells and Stats to Locator.LocateCoop,
// zero heap allocations per query once the scratch has warmed up.
func (f *Frozen) LocateCoopInto(x, y, z int64, p int, sc *Scratch) (int, Stats, error) {
	if p < 1 {
		p = 1
	}
	var stats Stats
	if err := f.checkQuery(x, y, z); err != nil {
		return 0, stats, err
	}
	if f.r == 1 {
		return 1, stats, nil
	}
	h := f.hopHeight(p)
	br := bracket{maxEL: 0, minER: f.r}
	v := int32(0) // root of the balanced surface tree
	for !f.isLeaf(v) {
		var err error
		v, err = f.locateStep(v, x, y, z, p, h, &br, &stats, sc)
		if err != nil {
			return 0, stats, err
		}
	}
	cell := int(f.cell[v])
	if cell > int(f.r) {
		return 0, stats, fmt.Errorf("spatial: query landed in dummy cell %d", cell)
	}
	return cell, stats, nil
}

// locateStep mirrors Locator.locateStep: a single sequential
// discrimination when h == 1 or p == 1, otherwise one h-level hop. The
// surface tree is a perfect heap (validate), node u's children are 2u+1
// and 2u+2, so the hop's nodes at relative depth d are the ids
// [(v+1)<<d − 1, (v+1)<<d − 1 + 1<<d): level by level, the pointer path's
// BFS order.
func (f *Frozen) locateStep(v int32, x, y, z int64, p, h int, br *bracket, stats *Stats, sc *Scratch) (int32, error) {
	if h == 1 || p == 1 {
		goRight, rounds, err := f.discriminate(v, x, y, z, br, p)
		if err != nil {
			return v, err
		}
		stats.DiscrimRounds += rounds
		stats.Steps += rounds
		stats.SeqLevels++
		if goRight {
			return 2*v + 2, nil
		}
		return 2*v + 1, nil
	}
	depth, height := int(f.depth[v]), int(f.height)
	levels := min(h, height-depth)
	count := 1<<(levels+1) - 1
	if cap(sc.ids) < count {
		sc.ids = make([]int32, 1<<(h+1)-1)
	}
	ids := sc.ids[:count]
	pShare := max(p/count, 1)
	// v's own search takes at least one round, even of an empty
	// dictionary, so a level of empty dictionaries adds none.
	maxRounds := 1
	for d := 0; d <= levels && depth+d < height; d++ {
		first, w := (int(v)+1)<<d-1, 1<<d
		row := ids[w-1 : 2*w-1]
		if f.xsStart[first] == f.xsStart[first+w] {
			// Every dictionary of the level is empty: no facet.
			for i := range row {
				row[i] = -1
			}
			continue
		}
		for i := range row {
			id, rounds := f.nodeLocate(int32(first+i), x, y, pShare)
			row[i] = id
			maxRounds = max(maxRounds, rounds)
			if id >= 0 {
				f.fold(id, z, br)
			}
		}
	}
	if br.maxEL >= br.minER {
		return v, fmt.Errorf("spatial: inconsistent bracket (%d, %d)", br.maxEL, br.minER)
	}
	stats.DiscrimRounds += maxRounds
	stats.Steps += maxRounds + 2
	stats.Hops++
	// Descend: a node that located a facet goes right iff z lies above
	// it, a gap node iff its surface lies at or below the bracket's maxEL.
	for d, pos := 0, 0; d < levels; d++ {
		ci := 0
		if id := ids[1<<d-1+pos]; id >= 0 && z > f.fZ[id] || id < 0 && f.sep[v] <= br.maxEL {
			ci = 1
		}
		v, pos = 2*v+1+int32(ci), 2*pos+ci
	}
	return v, nil
}

// MarshalBinary encodes the frozen locator as a spatial-kind store.
func (f *Frozen) MarshalBinary() ([]byte, error) { return f.StoreBuilder().Marshal() }

// StoreBuilder returns the frozen locator's spatial-kind store, whose
// sections alias the locator's arrays, for streaming (WriteTo) or
// marshalling.
func (f *Frozen) StoreBuilder() *flat.StoreBuilder {
	b := flat.NewStoreBuilder(flat.StoreKindSpatial)
	b.Meta(uint64(int64(f.r)))
	b.Meta(uint64(int64(f.rPad)))
	b.Meta(uint64(int64(f.height)))
	b.Meta(uint64(int64(f.n)))
	b.Meta(uint64(f.xyMin))
	b.Meta(uint64(f.xyMax))
	b.Meta(uint64(f.zMin))
	b.Meta(uint64(f.zMax))
	b.I32s(f.sep)
	b.I32s(f.cell)
	b.I32s(f.depth)
	b.I32s(f.childStart)
	b.I32s(f.children)
	b.I32s(f.fBelow)
	b.I32s(f.fAbove)
	b.I64s(f.fY1)
	b.I64s(f.fY2)
	b.I64s(f.fZ)
	b.I32s(f.xsStart)
	b.I64s(f.xs)
	b.I32s(f.nodeSlabBase)
	b.I32s(f.slabFacetStart)
	b.I32s(f.slabFacets)
	return b
}

// OpenFrozen decodes and fully validates a spatial-kind store blob, with
// the arrays aliasing data when the host allows zero-copy (the mmap
// restore path). The returned flag reports whether aliasing happened.
func OpenFrozen(data []byte) (*Frozen, bool, error) {
	st, err := flat.OpenStore(data, true)
	if err != nil {
		return nil, false, err
	}
	f, err := decodeFrozen(st)
	if err != nil {
		return nil, false, err
	}
	return f, st.ZeroCopy(), nil
}

// UnmarshalFrozen decodes and fully validates a spatial-kind store blob,
// copying every array out of data.
func UnmarshalFrozen(data []byte) (*Frozen, error) {
	st, err := flat.OpenStore(data, false)
	if err != nil {
		return nil, err
	}
	return decodeFrozen(st)
}

func decodeFrozen(st *flat.Store) (*Frozen, error) {
	if st.Kind() != flat.StoreKindSpatial {
		return nil, fmt.Errorf("spatial: store kind %d, want spatial (%d)", st.Kind(), flat.StoreKindSpatial)
	}
	c := flat.NewStoreCursor(st)
	var f Frozen
	f.r = int32(int64(c.Meta()))
	f.rPad = int32(int64(c.Meta()))
	f.height = int32(int64(c.Meta()))
	f.n = int32(int64(c.Meta()))
	f.xyMin = int64(c.Meta())
	f.xyMax = int64(c.Meta())
	f.zMin = int64(c.Meta())
	f.zMax = int64(c.Meta())
	f.sep = c.I32s()
	f.cell = c.I32s()
	f.depth = c.I32s()
	f.childStart = c.I32s()
	f.children = c.I32s()
	f.fBelow = c.I32s()
	f.fAbove = c.I32s()
	f.fY1 = c.I64s()
	f.fY2 = c.I64s()
	f.fZ = c.I64s()
	f.xsStart = c.I32s()
	f.xs = c.I64s()
	f.nodeSlabBase = c.I32s()
	f.slabFacetStart = c.I32s()
	f.slabFacets = c.I32s()
	if err := c.Finish(); err != nil {
		return nil, err
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// validate checks every structural invariant the frozen query path relies
// on for memory safety and termination, so a hostile blob yields an error
// instead of a panic or an endless descent.
func (f *Frozen) validate() error {
	if f.r < 1 {
		return fmt.Errorf("spatial: frozen r = %d", f.r)
	}
	nf := len(f.fBelow)
	if len(f.fAbove) != nf || len(f.fY1) != nf || len(f.fY2) != nf || len(f.fZ) != nf {
		return fmt.Errorf("spatial: frozen facet arrays disagree on length")
	}
	n := int(f.n)
	if f.r == 1 {
		if n != 0 {
			return fmt.Errorf("spatial: frozen single-cell locator carries %d tree nodes", n)
		}
		return nil
	}
	// The query path walks the surface tree as a perfect heap by index:
	// node v's children are 2v+1 and 2v+2, and every id fits in int32.
	if f.height < 1 || f.height > maxFrozenHeight {
		return fmt.Errorf("spatial: frozen height %d outside [1, %d]", f.height, maxFrozenHeight)
	}
	if n != 1<<(f.height+1)-1 {
		return fmt.Errorf("spatial: frozen %d tree nodes for height %d, want %d", n, f.height, 1<<(f.height+1)-1)
	}
	if len(f.sep) != n || len(f.cell) != n || len(f.depth) != n {
		return fmt.Errorf("spatial: frozen sep/cell/depth lengths %d/%d/%d, want %d",
			len(f.sep), len(f.cell), len(f.depth), n)
	}
	if err := frozenStarts("childStart", f.childStart, n, len(f.children)); err != nil {
		return err
	}
	if f.depth[0] != 0 {
		return fmt.Errorf("spatial: frozen root depth %d", f.depth[0])
	}
	for v := 0; v < n; v++ {
		deg := int(f.childStart[v+1] - f.childStart[v])
		if deg != 0 && deg != 2 {
			return fmt.Errorf("spatial: frozen node %d has degree %d", v, deg)
		}
		if deg == 0 {
			if int(f.depth[v]) != int(f.height) {
				return fmt.Errorf("spatial: frozen leaf %d at depth %d, height %d", v, f.depth[v], f.height)
			}
			if f.cell[v] < 0 {
				return fmt.Errorf("spatial: frozen leaf %d has cell %d", v, f.cell[v])
			}
			continue
		}
		kids := f.children[f.childStart[v]:f.childStart[v+1]]
		if int(kids[0]) != 2*v+1 || int(kids[1]) != 2*v+2 || int(kids[1]) >= n {
			return fmt.Errorf("spatial: frozen node %d has children %d, %d, not in heap order", v, kids[0], kids[1])
		}
		for _, c := range kids {
			if f.depth[c] != f.depth[v]+1 {
				return fmt.Errorf("spatial: frozen child %d depth %d under depth-%d parent", c, f.depth[c], f.depth[v])
			}
		}
	}
	if err := frozenStarts("xsStart", f.xsStart, n, len(f.xs)); err != nil {
		return err
	}
	if err := frozenStarts("nodeSlabBase", f.nodeSlabBase, n, len(f.slabFacetStart)-1); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		k := int(f.xsStart[v+1] - f.xsStart[v])
		slabs := int(f.nodeSlabBase[v+1] - f.nodeSlabBase[v])
		want := k - 1
		if k == 0 {
			want = 0
		}
		if slabs != want {
			return fmt.Errorf("spatial: frozen node %d has %d slabs for %d boundaries", v, slabs, k)
		}
		for i := int(f.xsStart[v]) + 1; i < int(f.xsStart[v+1]); i++ {
			if f.xs[i] <= f.xs[i-1] {
				return fmt.Errorf("spatial: frozen node %d slab boundaries not increasing", v)
			}
		}
	}
	if err := frozenStarts("slabFacetStart", f.slabFacetStart, len(f.slabFacetStart)-1, len(f.slabFacets)); err != nil {
		return err
	}
	for i, id := range f.slabFacets {
		if id < 0 || int(id) >= nf {
			return fmt.Errorf("spatial: frozen slab slot %d holds facet %d out of range", i, id)
		}
	}
	return nil
}

// maxFrozenHeight caps the surface tree's height so its 2^(height+1) − 1
// node ids fit in int32.
const maxFrozenHeight = 30

// frozenStarts is validateStarts for the frozen spatial arrays.
func frozenStarts(name string, starts []int32, count, total int) error {
	if len(starts) != count+1 {
		return fmt.Errorf("spatial: frozen %s length %d, want %d", name, len(starts), count+1)
	}
	if starts[0] != 0 {
		return fmt.Errorf("spatial: frozen %s[0] = %d, want 0", name, starts[0])
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			return fmt.Errorf("spatial: frozen %s not monotone at %d", name, i)
		}
	}
	if int(starts[len(starts)-1]) != total {
		return fmt.Errorf("spatial: frozen %s ends at %d, want %d", name, starts[len(starts)-1], total)
	}
	return nil
}
