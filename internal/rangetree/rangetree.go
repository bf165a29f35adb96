// Package rangetree implements orthogonal range search: the layered
// (fractionally cascaded) 2-D range tree of Theorem 6 and its d-dimensional
// extension of Corollary 2.
//
// The 2-D structure is a balanced tree over the points sorted by x; every
// node's catalog holds its subtree's points keyed by y (composite with the
// point id, keeping keys distinct). A query [x1,x2]×[y1,y2] identifies the
// two boundary root-to-leaf paths by dictionary searches on x, runs two
// explicit cooperative searches (Theorem 1) along them with the keys y1
// and y2+1, and converts each canonical node's y-range into catalog
// positions with a single O(1) bridge descent from its on-path parent —
// the textbook use of fractional cascading in range trees, here with the
// cooperative O((log n)/log p) search bound.
//
// For d > 2 dimensions, a balanced tree over the first coordinate stores a
// (d−1)-dimensional structure per node (O(n·log^{d−1} n) space); a query
// recurses into the canonical nodes with the processors split among them,
// giving the Corollary 2 bound O(((log n)/log p)^{d−1} + k/p).
package rangetree

import (
	"fmt"
	"sort"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/parallel"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

const idBits = 21

func compose(value int64, id int32) catalog.Key { return value<<idBits | int64(id) }
func composeLo(value int64) catalog.Key         { return value << idBits }

// Point2 is a planar point.
type Point2 struct {
	X, Y int64
}

// Query2 is a closed axis-parallel query rectangle.
type Query2 struct {
	X1, X2, Y1, Y2 int64
}

// Stats reports the simulated cost of a cooperative range query.
type Stats struct {
	// SearchSteps covers dictionary and cooperative catalog searches.
	SearchSteps int
	// AllocSteps covers prefix-sum processor allocation.
	AllocSteps int
	// ReportSteps is ⌈k/p⌉.
	ReportSteps int
	// K is the number of reported points.
	K int
}

// Total returns the total simulated parallel time.
func (s Stats) Total() int { return s.SearchSteps + s.AllocSteps + s.ReportSteps }

// Tree2D is the layered range tree over 2-D points.
type Tree2D struct {
	pts   []Point2
	ids   []int32 // original ids (the structure may be built on a subset)
	t     *tree.Tree
	st    *core.Structure
	leafX []int64
	nLeaf int
	// rank[v][pos] counts native entries before position pos of v's
	// augmented catalog, so counting queries avoid touching the items.
	rank [][]int32
}

// New2D builds the structure over the points (ids 0..n−1).
func New2D(pts []Point2, cfg core.Config) (*Tree2D, error) {
	ids := make([]int32, len(pts))
	for i := range ids {
		ids[i] = int32(i)
	}
	return new2D(pts, ids, cfg)
}

func new2D(pts []Point2, ids []int32, cfg core.Config) (*Tree2D, error) {
	if len(pts) >= 1<<idBits {
		return nil, fmt.Errorf("rangetree: %d points exceed composite-key capacity", len(pts))
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("rangetree: no points")
	}
	rt := &Tree2D{pts: pts, ids: ids}
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if pts[order[a]].X != pts[order[b]].X {
			return pts[order[a]].X < pts[order[b]].X
		}
		return order[a] < order[b]
	})
	pad := 1
	for pad < len(pts) {
		pad *= 2
	}
	rt.nLeaf = pad
	rt.leafX = make([]int64, pad)
	t, err := tree.NewBalancedBinary(pad)
	if err != nil {
		return nil, err
	}
	rt.t = t
	perNode := make([][]int, t.N()) // indices into pts
	for leaf := 0; leaf < pad; leaf++ {
		v := pad - 1 + leaf
		if leaf < len(order) {
			rt.leafX[leaf] = pts[order[leaf]].X
			perNode[v] = []int{order[leaf]}
		} else {
			rt.leafX[leaf] = 1 << 62
		}
	}
	// Merge upward: each internal node's list is its children's union
	// sorted by (Y, id) — the construction the EREW preprocessing does
	// level by level. Within a level the merges are independent (node v
	// writes only perNode[v], reading its two already-finished children),
	// so each level fans out over the host executor; the level barrier
	// preserves the bottom-up dependency.
	par := cfg.Parallelism
	if cfg.Sequential {
		par = 1
	}
	mergeNode := func(v int) {
		l, r := perNode[2*v+1], perNode[2*v+2]
		merged := make([]int, 0, len(l)+len(r))
		i, j := 0, 0
		less := func(a, b int) bool {
			if pts[a].Y != pts[b].Y {
				return pts[a].Y < pts[b].Y
			}
			return a < b
		}
		for i < len(l) && j < len(r) {
			if less(l[i], r[j]) {
				merged = append(merged, l[i])
				i++
			} else {
				merged = append(merged, r[j])
				j++
			}
		}
		merged = append(merged, l[i:]...)
		merged = append(merged, r[j:]...)
		perNode[v] = merged
	}
	for levelSize := pad / 2; levelSize >= 1; levelSize /= 2 {
		base := levelSize - 1 // level nodes are [base, base+levelSize)
		workpool.ForEach(par, levelSize, 4, func(loI, hiI int) {
			for i := loI; i < hiI; i++ {
				mergeNode(base + i)
			}
		})
	}
	cats := make([]catalog.Catalog, t.N())
	catErrs := make([]error, t.N())
	workpool.ForEach(par, t.N(), 32, func(loI, hiI int) {
		for v := loI; v < hiI; v++ {
			list := perNode[v]
			if len(list) == 0 {
				cats[v] = catalog.Empty()
				continue
			}
			keys := make([]catalog.Key, len(list))
			payloads := make([]int32, len(list))
			for i, pi := range list {
				keys[i] = compose(pts[pi].Y, int32(pi))
				payloads[i] = int32(pi)
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
	rt.st = st
	rt.rank = make([][]int32, t.N())
	workpool.ForEach(par, t.N(), 32, func(loI, hiI int) {
		for v := loI; v < hiI; v++ {
			cat := st.Cascade().Aug(tree.NodeID(v))
			rk := make([]int32, cat.Len()+1)
			run := int32(0)
			for i := 0; i < cat.Len(); i++ {
				rk[i] = run
				e := cat.At(i)
				if e.Native && e.Payload >= 0 {
					run++
				}
			}
			rk[cat.Len()] = run
			rt.rank[v] = rk
		}
	})
	return rt, nil
}

// Structure exposes the underlying cooperative search structure.
func (rt *Tree2D) Structure() *core.Structure { return rt.st }

// NaiveQuery scans all points: the validation oracle. Returned ids are the
// original point ids, sorted.
func (rt *Tree2D) NaiveQuery(q Query2) []int32 {
	var out []int32
	for i, pt := range rt.pts {
		if pt.X >= q.X1 && pt.X <= q.X2 && pt.Y >= q.Y1 && pt.Y <= q.Y2 {
			out = append(out, rt.ids[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// canonRange is a canonical node with the catalog positions of the query
// rectangle's y-interval.
type canonRange struct {
	node   tree.NodeID
	lo, hi int
}

// QueryDirect reports all points in the rectangle with p processors.
func (rt *Tree2D) QueryDirect(q Query2, p int) ([]int32, Stats, error) {
	canon, stats, err := rt.canonicalRanges(q, p)
	if err != nil {
		return nil, stats, err
	}
	var out []int32
	for _, c := range canon {
		cat := rt.st.Cascade().Aug(c.node)
		for pos := c.lo; pos < c.hi; pos++ {
			e := cat.At(pos)
			if e.Native && e.Payload >= 0 {
				out = append(out, rt.ids[e.Payload])
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	stats.K = len(out)
	stats.AllocSteps = 2 * parallel.CeilLog2(len(canon)+1)
	stats.ReportSteps = (len(out) + p - 1) / p
	return out, stats, nil
}

// Range is one canonical-node catalog range for indirect retrieval
// (Theorem 6.2): positions [Lo, Hi) of the node's augmented catalog hold
// the query's hits (interleaved with dummy entries, skipped on expansion).
type Range struct {
	Node   tree.NodeID
	Lo, Hi int
}

// QueryIndirect returns the non-empty canonical ranges without touching
// the items — O((log n)/log p) regardless of k.
func (rt *Tree2D) QueryIndirect(q Query2, p int) ([]Range, Stats, error) {
	canon, stats, err := rt.canonicalRanges(q, p)
	if err != nil {
		return nil, stats, err
	}
	var out []Range
	for _, c := range canon {
		if n := int(rt.rank[c.node][c.hi] - rt.rank[c.node][c.lo]); n > 0 {
			out = append(out, Range{Node: c.node, Lo: c.lo, Hi: c.hi})
			stats.K += n
		}
	}
	stats.AllocSteps = 1 // CRCW linking (see segtree.QueryIndirectPRAM)
	return out, stats, nil
}

// Expand materialises the points of indirect ranges (host-side).
func (rt *Tree2D) Expand(ranges []Range) []int32 {
	var out []int32
	for _, r := range ranges {
		cat := rt.st.Cascade().Aug(r.Node)
		for pos := r.Lo; pos < r.Hi; pos++ {
			e := cat.At(pos)
			if e.Native && e.Payload >= 0 {
				out = append(out, rt.ids[e.Payload])
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// QueryCount counts the points in the rectangle without reporting them:
// the same O((log n)/log p) search, then one native-rank subtraction per
// canonical node — no k/p term at all.
func (rt *Tree2D) QueryCount(q Query2, p int) (int, Stats, error) {
	canon, stats, err := rt.canonicalRanges(q, p)
	if err != nil {
		return 0, stats, err
	}
	count := 0
	for _, c := range canon {
		count += int(rt.rank[c.node][c.hi] - rt.rank[c.node][c.lo])
	}
	stats.K = count
	stats.AllocSteps = 2 * parallel.CeilLog2(len(canon)+1)
	return count, stats, nil
}

// canonicalRanges runs the shared search phase: the two boundary paths,
// two cooperative y-searches per path, and the per-canonical-node bridge
// descents.
func (rt *Tree2D) canonicalRanges(q Query2, p int) ([]canonRange, Stats, error) {
	if p < 1 {
		p = 1
	}
	var stats Stats
	if q.X1 > q.X2 || q.Y1 > q.Y2 {
		return nil, stats, fmt.Errorf("rangetree: empty query %+v", q)
	}
	lo := sort.Search(rt.nLeaf, func(i int) bool { return rt.leafX[i] >= q.X1 })
	hi := sort.Search(rt.nLeaf, func(i int) bool { return rt.leafX[i] > q.X2 })
	stats.SearchSteps += 2 * parallel.CoopSearchSteps(rt.nLeaf, p)
	if lo >= hi {
		return nil, stats, nil
	}
	// Boundary paths; clamp to existing leaves.
	leftLeaf := tree.NodeID(rt.nLeaf - 1 + lo)
	rightLeaf := tree.NodeID(rt.nLeaf - 1 + hi - 1)
	pathL := rt.t.RootPath(leftLeaf)
	pathR := rt.t.RootPath(rightLeaf)
	kLo, kHi := composeLo(q.Y1), composeLo(q.Y2+1)
	posLo := map[tree.NodeID]int{}
	posHi := map[tree.NodeID]int{}
	for _, pth := range [][]tree.NodeID{pathL, pathR} {
		rl, s1, err := rt.st.SearchExplicit(kLo, pth, p)
		if err != nil {
			return nil, stats, err
		}
		rh, s2, err := rt.st.SearchExplicit(kHi, pth, p)
		if err != nil {
			return nil, stats, err
		}
		stats.SearchSteps += s1.Steps + s2.Steps
		for i, v := range pth {
			posLo[v] = rl[i].AugPos
			posHi[v] = rh[i].AugPos
		}
	}
	// Canonical decomposition of leaf range [lo, hi); each canonical node
	// is either on a boundary path (positions known) or a child of one
	// (one O(1) bridge descent).
	var canon []tree.NodeID
	var collect func(v tree.NodeID, nodeLo, nodeHi int)
	collect = func(v tree.NodeID, nodeLo, nodeHi int) {
		if lo <= nodeLo && nodeHi <= hi {
			canon = append(canon, v)
			return
		}
		mid := (nodeLo + nodeHi) / 2
		if lo < mid {
			collect(2*v+1, nodeLo, mid)
		}
		if hi > mid {
			collect(2*v+2, mid, nodeHi)
		}
	}
	collect(0, 0, rt.nLeaf)
	out := make([]canonRange, 0, len(canon))
	for _, c := range canon {
		pl, okL := posLo[c]
		ph, okH := posHi[c]
		if !okL || !okH {
			parent := rt.t.Parent(c)
			ci := rt.t.ChildIndex(parent, c)
			ppl, ok1 := posLo[parent]
			pph, ok2 := posHi[parent]
			if !ok1 || !ok2 {
				return nil, stats, fmt.Errorf("rangetree: canonical node %d has off-path parent", c)
			}
			pl, _ = rt.st.Cascade().Descend(kLo, parent, ci, ppl)
			ph, _ = rt.st.Cascade().Descend(kHi, parent, ci, pph)
		}
		if pl > ph {
			ph = pl
		}
		out = append(out, canonRange{node: c, lo: pl, hi: ph})
	}
	return out, stats, nil
}
