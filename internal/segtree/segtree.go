// Package segtree implements the Theorem 6 retrieval structures built on
// segment trees with catalogs: orthogonal segment intersection (report the
// vertical segments crossed by a horizontal query segment) and point
// enclosure (report the rectangles containing a query point).
//
// Both structures are balanced binary trees with O(n log n) total catalog
// size. A query identifies a root-to-leaf path by a dictionary search on
// one coordinate and then runs explicit cooperative searches (Theorem 1)
// along that path on the other coordinate, identifying in each catalog the
// contiguous range of items to report. Retrieval is either direct (mark
// the items; a prefix-sum over the path allocates processors, O(log log n)
// time for p ≥ log n) or indirect (return the list of non-empty catalog
// ranges, O(1) extra time with concurrent writes).
//
// Catalog keys must be distinct, so items are keyed by the composite
// value·2^21 + id; ranges widen to composite bounds accordingly. This
// caps structures at 2^21 items and coordinate magnitudes at 2^41.
package segtree

import (
	"fmt"
	"sort"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/parallel"
	"fraccascade/internal/pram"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// idBits is the width of the id part of composite catalog keys.
const idBits = 21

// compose builds the composite catalog key for (value, id).
func compose(value int64, id int32) catalog.Key {
	return value<<idBits | int64(id)
}

// composeLo is the smallest composite key with the given value.
func composeLo(value int64) catalog.Key { return value << idBits }

// VSegment is a vertical segment at abscissa X spanning [Y1, Y2].
type VSegment struct {
	X, Y1, Y2 int64
}

// HQuery is a horizontal query segment at ordinate Y spanning [X1, X2].
type HQuery struct {
	Y, X1, X2 int64
}

// Intersector answers orthogonal segment intersection queries.
type Intersector struct {
	segs   []VSegment
	t      *tree.Tree
	st     *core.Structure
	leafLo []int64 // leaf i covers y in [leafLo[i], leafLo[i+1])
	nLeaf  int
}

// NewIntersector preprocesses the vertical segments.
func NewIntersector(segs []VSegment, cfg core.Config) (*Intersector, error) {
	if len(segs) >= 1<<idBits {
		return nil, fmt.Errorf("segtree: %d segments exceed composite-key capacity", len(segs))
	}
	for i, s := range segs {
		if s.Y1 >= s.Y2 {
			return nil, fmt.Errorf("segtree: segment %d has empty span [%d,%d]", i, s.Y1, s.Y2)
		}
	}
	it := &Intersector{segs: segs}
	// Elementary y-intervals from distinct endpoints.
	coordSet := map[int64]bool{}
	for _, s := range segs {
		coordSet[s.Y1] = true
		coordSet[s.Y2] = true
	}
	coords := make([]int64, 0, len(coordSet))
	for c := range coordSet {
		coords = append(coords, c)
	}
	sort.Slice(coords, func(a, b int) bool { return coords[a] < coords[b] })
	// Leaves: one per interval [coords[i], coords[i+1]) plus the unbounded
	// extremes, padded to a power of two (padding leaves are empty
	// top-end intervals).
	nLeaf := len(coords) + 1
	pad := 1
	for pad < nLeaf {
		pad *= 2
	}
	it.nLeaf = pad
	it.leafLo = make([]int64, pad)
	const negInf = -(1 << 62)
	it.leafLo[0] = negInf
	for i := range coords {
		it.leafLo[i+1] = coords[i]
	}
	for i := nLeaf; i < pad; i++ {
		it.leafLo[i] = 1 << 62
	}
	t, err := tree.NewBalancedBinary(pad)
	if err != nil {
		return nil, err
	}
	it.t = t
	// Canonical decomposition: insert each segment over its half-open
	// leaf-index range.
	perNode := make([][]int32, t.N())
	for id, s := range segs {
		lo := it.leafIndex(s.Y1)
		hi := it.leafIndex(s.Y2)
		it.insert(0, 0, pad, lo, hi, int32(id), perNode)
	}
	// Node catalogs are independent of each other once the canonical
	// decomposition is fixed (each iteration writes only cats[v]), so
	// the builds fan out over the host executor with errors surfaced in
	// node order.
	cats := make([]catalog.Catalog, t.N())
	catErrs := make([]error, t.N())
	par := cfg.Parallelism
	if cfg.Sequential {
		par = 1
	}
	workpool.ForEach(par, t.N(), 32, func(loI, hiI int) {
		for v := loI; v < hiI; v++ {
			ids := perNode[v]
			if len(ids) == 0 {
				cats[v] = catalog.Empty()
				continue
			}
			keys := make([]catalog.Key, len(ids))
			payloads := make([]int32, len(ids))
			for i, id := range ids {
				keys[i] = compose(segs[id].X, id)
				payloads[i] = id
			}
			cats[v], catErrs[v] = catalog.FromKeys(keys, payloads)
		}
	})
	for _, cerr := range catErrs {
		if cerr != nil {
			return nil, cerr
		}
	}
	st, err := core.Build(t, cats, cfg)
	if err != nil {
		return nil, err
	}
	it.st = st
	return it, nil
}

// leafIndex returns the index of the elementary interval containing y.
func (it *Intersector) leafIndex(y int64) int {
	return sort.Search(len(it.leafLo), func(i int) bool { return it.leafLo[i] > y }) - 1
}

// insert performs the standard canonical decomposition of leaf-index range
// [lo, hi) over the implicit complete tree (node v spans [nodeLo, nodeHi)).
func (it *Intersector) insert(v tree.NodeID, nodeLo, nodeHi, lo, hi int, id int32, perNode [][]int32) {
	if lo <= nodeLo && nodeHi <= hi {
		perNode[v] = append(perNode[v], id)
		return
	}
	mid := (nodeLo + nodeHi) / 2
	if lo < mid {
		it.insert(2*v+1, nodeLo, mid, lo, min(hi, mid), id, perNode)
	}
	if hi > mid {
		it.insert(2*v+2, mid, nodeHi, max(lo, mid), hi, id, perNode)
	}
}

// Structure exposes the underlying cooperative search structure.
func (it *Intersector) Structure() *core.Structure { return it.st }

// NaiveQuery scans every segment: the validation oracle.
func (it *Intersector) NaiveQuery(q HQuery) []int32 {
	var out []int32
	for id, s := range it.segs {
		if s.X >= q.X1 && s.X <= q.X2 && s.Y1 <= q.Y && q.Y <= s.Y2 {
			out = append(out, int32(id))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Range is one catalog range of reported items for indirect retrieval:
// positions [Lo, Hi) in node's augmented catalog hold the hits.
type Range struct {
	Node   tree.NodeID
	Lo, Hi int
}

// RetrievalStats reports the simulated cost of a cooperative retrieval.
type RetrievalStats struct {
	// SearchSteps covers the path dictionary search plus the two explicit
	// cooperative searches: O((log n)/log p).
	SearchSteps int
	// AllocSteps covers the prefix-sum processor allocation of direct
	// retrieval: O(log log n) for p ≥ log n (0 for indirect with
	// concurrent write).
	AllocSteps int
	// ReportSteps is ⌈k/p⌉ for direct retrieval.
	ReportSteps int
	// K is the number of reported items.
	K int
}

// Total returns the total simulated parallel time.
func (s RetrievalStats) Total() int { return s.SearchSteps + s.AllocSteps + s.ReportSteps }

// queryRanges runs the shared search phase and returns only the non-empty
// per-node hit ranges.
func (it *Intersector) queryRanges(q HQuery, p int) ([]Range, RetrievalStats, error) {
	all, stats, err := it.queryRangesAll(q, p)
	if err != nil {
		return nil, stats, err
	}
	ranges := all[:0:0]
	for _, r := range all {
		if r.Lo < r.Hi {
			ranges = append(ranges, r)
		}
	}
	return ranges, stats, nil
}

// queryRangesAll runs the shared search phase: the stabbing path for q.Y
// and two explicit cooperative searches on the composite x-keys, returning
// one (possibly empty) hit range per path node, in path order.
func (it *Intersector) queryRangesAll(q HQuery, p int) ([]Range, RetrievalStats, error) {
	var stats RetrievalStats
	if q.X1 > q.X2 {
		return nil, stats, fmt.Errorf("segtree: empty x-range [%d, %d]", q.X1, q.X2)
	}
	leaf := it.leafIndex(q.Y)
	if leaf < 0 {
		leaf = 0
	}
	// Dictionary search for the path: p-ary search over leaf boundaries.
	stats.SearchSteps += parallel.CoopSearchSteps(it.nLeaf, p)
	leafNode := tree.NodeID(it.nLeaf - 1 + leaf)
	path := it.t.RootPath(leafNode)

	loRes, s1, err := it.st.SearchExplicit(composeLo(q.X1), path, p)
	if err != nil {
		return nil, stats, err
	}
	hiRes, s2, err := it.st.SearchExplicit(composeLo(q.X2+1), path, p)
	if err != nil {
		return nil, stats, err
	}
	stats.SearchSteps += s1.Steps + s2.Steps
	ranges := make([]Range, 0, len(path))
	for i, v := range path {
		lo, hi := loRes[i].AugPos, hiRes[i].AugPos
		// Successor positions are in the augmented catalog; narrow to
		// native hits by walking the entries (counted into K below).
		cat := it.st.Cascade().Aug(v)
		for lo < hi && !cat.At(lo).Native {
			lo++
		}
		last := hi
		for last > lo && !cat.At(last-1).Native {
			last--
		}
		if lo > last {
			last = lo
		}
		ranges = append(ranges, Range{Node: v, Lo: lo, Hi: last})
	}
	return ranges, stats, nil
}

// expand materialises item ids from catalog ranges, counting native hits.
func (it *Intersector) expand(ranges []Range) []int32 {
	var out []int32
	for _, r := range ranges {
		cat := it.st.Cascade().Aug(r.Node)
		for pos := r.Lo; pos < r.Hi; pos++ {
			e := cat.At(pos)
			if e.Native && e.Payload >= 0 {
				out = append(out, e.Payload)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// QueryDirect performs direct cooperative retrieval with p processors:
// items are materialised, and the stats account the prefix-sum processor
// allocation plus ⌈k/p⌉ reporting rounds
// (Theorem 6.1: O((log n)/log p + log log n + k/p), CREW).
func (it *Intersector) QueryDirect(q HQuery, p int) ([]int32, RetrievalStats, error) {
	if p < 1 {
		p = 1
	}
	ranges, stats, err := it.queryRanges(q, p)
	if err != nil {
		return nil, stats, err
	}
	out := it.expand(ranges)
	stats.K = len(out)
	// Prefix sums over the per-path-node counts allocate processors.
	stats.AllocSteps = 2 * parallel.CeilLog2(len(ranges)+1)
	stats.ReportSteps = (len(out) + p - 1) / p
	return out, stats, nil
}

// QueryIndirect performs indirect cooperative retrieval: it returns the
// linked list of non-empty catalog ranges without touching the items
// (Theorem 6.2: O((log n)/log p), CRCW — the non-empty ranges link up in
// O(1) with concurrent writes when p = Ω(log² n), accounted here).
func (it *Intersector) QueryIndirect(q HQuery, p int) ([]Range, RetrievalStats, error) {
	if p < 1 {
		p = 1
	}
	ranges, stats, err := it.queryRanges(q, p)
	if err != nil {
		return nil, stats, err
	}
	logn := parallel.CeilLog2(int(it.st.Cascade().Stats().NativeEntries))
	if p >= logn*logn {
		stats.AllocSteps = 1 // concurrent-write linking
	} else {
		stats.AllocSteps = 2 * parallel.CeilLog2(len(ranges)+1)
	}
	for _, r := range ranges {
		stats.K += r.Hi - r.Lo // upper bound; dummies excluded at expansion
	}
	return ranges, stats, nil
}

// Expand converts indirect ranges into item ids (host-side, for tests).
func (it *Intersector) Expand(ranges []Range) []int32 { return it.expand(ranges) }

// QueryIndirectPRAM performs the Theorem 6.2 linking step on an actual
// CRCW machine: after the (host-run) search phase produces one range per
// path node, the non-empty ranges are chained into a linked list by the
// one-step priority-write next-pointer kernel with (path length)²
// processors — the paper's "whenever p = Ω(log² n), we use concurrent
// write to do this in O(1) time". It returns the linked non-empty ranges
// in list order and the machine's step count for the linking (always 2:
// initialise + priority write).
func (it *Intersector) QueryIndirectPRAM(m pram.Executor, q HQuery, p int) ([]Range, int, error) {
	if !m.Model().AllowsConcurrentWrite() {
		return nil, 0, fmt.Errorf("segtree: indirect linking requires concurrent writes; machine is %s", m.Model())
	}
	all, _, err := it.queryRangesAll(q, p)
	if err != nil {
		return nil, 0, err
	}
	n := len(all)
	flagsBase := m.Alloc(n)
	nextBase := m.Alloc(n)
	for i, r := range all {
		if r.Lo < r.Hi {
			m.Store(flagsBase+i, 1)
		}
	}
	before := m.Time()
	if err := parallel.NextPointersPRAM(m, flagsBase, n, nextBase); err != nil {
		return nil, 0, err
	}
	linkSteps := m.Time() - before
	// Walk the list: head = first non-empty, then next pointers.
	var out []Range
	head := -1
	for i := 0; i < n; i++ {
		if m.Load(flagsBase+i) != 0 {
			head = i
			break
		}
	}
	for i := head; i >= 0 && i < n; i = int(m.Load(nextBase + i)) {
		out = append(out, all[i])
	}
	return out, linkSteps, nil
}
