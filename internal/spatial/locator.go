package spatial

import (
	"fmt"

	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// Stats reports the simulated parallel cost of a spatial location.
type Stats struct {
	// Steps is the total simulated time: Theorem 5 bounds it by
	// O((log² n)/log² p).
	Steps int
	// Hops counts Θ(log p)-level jumps; SeqLevels counts single-level
	// descents (p = 1 path).
	Hops      int
	SeqLevels int
	// DiscrimRounds sums the per-node planar point-location rounds.
	DiscrimRounds int
}

// Locator answers point-location queries in a cell complex.
type Locator struct {
	c      *Complex
	t      *tree.Tree
	r      int // real cell count
	rPad   int
	height int
	sep    []int32 // internal node -> surface index
	cell   []int32 // leaf -> cell index
	locs   []nodeLocator

	// Debug enables internal invariant checks.
	Debug bool
}

// Cells returns the real cell count of the located complex.
func (l *Locator) Cells() int { return l.r }

// NewLocator preprocesses the complex: builds the surface tree, assigns
// proper facets by LCA, and builds each surface's planar structure, using
// all cores for the per-surface builds.
func NewLocator(c *Complex) (*Locator, error) {
	return NewLocatorParallel(c, 0)
}

// NewLocatorParallel is NewLocator with an explicit host-parallelism
// bound for construction (0 selects all cores, 1 is sequential). The
// built locator is identical for every value — only wall time changes.
func NewLocatorParallel(c *Complex, parallelism int) (*Locator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	r := len(c.Cells)
	rPad := 1
	for rPad < r {
		rPad *= 2
	}
	l := &Locator{c: c, r: r, rPad: rPad}
	if r == 1 {
		return l, nil
	}
	t, err := tree.NewBalancedBinary(rPad)
	if err != nil {
		return nil, err
	}
	l.t = t
	l.height = t.Height()
	inorder, err := t.InorderIndex()
	if err != nil {
		return nil, err
	}
	l.sep = make([]int32, t.N())
	l.cell = make([]int32, t.N())
	for v := tree.NodeID(0); int(v) < t.N(); v++ {
		if t.IsLeaf(v) {
			l.cell[v] = inorder[v]/2 + 1
		} else {
			l.sep[v] = (inorder[v] + 1) / 2
		}
	}
	leafNode := func(idx int32) tree.NodeID { return tree.NodeID(rPad - 1 + int(idx) - 1) }
	lca := tree.NewLCA(t)
	perNode := make([][]int32, t.N())
	for fi, f := range c.Facets {
		// Surface range [lo, hi] clipped to real surfaces 1..r−1.
		lo, hi := f.Below, f.Above-1
		if lo < 1 {
			lo = 1
		}
		if hi > int32(r-1) {
			hi = int32(r - 1)
		}
		if lo > hi {
			continue // facet crossed by no real surface
		}
		home := lca.LCA(leafNode(lo), leafNode(hi+1))
		if t.IsLeaf(home) {
			return nil, fmt.Errorf("spatial: facet %d homed at a leaf", fi)
		}
		if j := l.sep[home]; j < lo || j > hi {
			return nil, fmt.Errorf("spatial: facet %d homed at surface %d outside [%d,%d]", fi, j, lo, hi)
		}
		perNode[home] = append(perNode[home], int32(fi))
	}
	// Each surface's planar structure depends only on its own facet list
	// (writes confined to l.locs[v]), so the builds fan out over the
	// shared host executor.
	l.locs = make([]nodeLocator, t.N())
	workpool.ForEach(parallelism, t.N(), 16, func(loI, hiI int) {
		for v := loI; v < hiI; v++ {
			l.locs[v] = buildNodeLocator(c.Facets, perNode[v])
		}
	})
	return l, nil
}

// bracket tracks the monotone (L, R) state: the query's cell index lies in
// (maxEL, minER].
type bracket struct {
	maxEL, minER int32
}

// discriminate resolves the branch at surface node v: right (above) or
// left (below), updating the bracket on a facet hit.
func (l *Locator) discriminate(v tree.NodeID, x, y, z int64, br *bracket, p int) (goRight bool, rounds int, err error) {
	j := l.sep[v]
	id, rounds := l.locs[v].locate(l.c.Facets, x, y, p)
	if id >= 0 {
		f := l.c.Facets[id]
		if z > f.Z {
			hi := f.Above - 1
			if hi > int32(l.r-1) {
				hi = int32(l.r - 1)
			}
			if hi > br.maxEL {
				br.maxEL = hi
			}
			return true, rounds, nil
		}
		lo := f.Below
		if lo < 1 {
			lo = 1
		}
		if lo < br.minER {
			br.minER = lo
		}
		return false, rounds, nil
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

func (l *Locator) checkQuery(x, y, z int64) error {
	if x <= l.c.XYMin || x >= l.c.XYMax || y <= l.c.XYMin || y >= l.c.XYMax ||
		z <= l.c.ZMin || z >= l.c.ZMax {
		return fmt.Errorf("spatial: query (%d,%d,%d) outside the complex", x, y, z)
	}
	return nil
}

// LocateSeq returns the cell containing the query by sequential descent:
// O(log n) surface discriminations of O(log n) each, matching the
// canal-tree bound of Chazelle cited in Section 3.2.
func (l *Locator) LocateSeq(x, y, z int64) (int, error) {
	cell, _, err := l.locate(x, y, z, 1)
	return cell, err
}

// LocateCoop performs the cooperative spatial search of Theorem 5 with p
// processors: hops of Θ(log p) levels, each discriminating all the
// surfaces of the hop's subtree in parallel.
func (l *Locator) LocateCoop(x, y, z int64, p int) (int, Stats, error) {
	if p < 1 {
		p = 1
	}
	return l.locate(x, y, z, p)
}

func (l *Locator) locate(x, y, z int64, p int) (int, Stats, error) {
	var stats Stats
	if err := l.checkQuery(x, y, z); err != nil {
		return 0, stats, err
	}
	if l.r == 1 {
		return 1, stats, nil
	}
	h := l.hopHeight(p)
	br := bracket{maxEL: 0, minER: int32(l.r)}
	v := l.t.Root()
	for !l.t.IsLeaf(v) {
		var err error
		v, err = l.locateStep(v, x, y, z, p, h, &br, &stats)
		if err != nil {
			return 0, stats, err
		}
	}
	cell := int(l.cell[v])
	if cell > l.r {
		return 0, stats, fmt.Errorf("spatial: query landed in dummy cell %d", cell)
	}
	return cell, stats, nil
}

// hopHeight returns the hop height Θ(log p), capped so a hop's node count
// stays ≤ p and by the tree height.
func (l *Locator) hopHeight(p int) int {
	h := 1
	for (1<<(uint(h)+2))-1 <= p && h < l.height {
		h++
	}
	return h
}

// locateStep advances the search one iteration from v: a single sequential
// discrimination when h == 1 or p == 1, otherwise one h-level hop.
func (l *Locator) locateStep(v tree.NodeID, x, y, z int64, p, h int, br *bracket, stats *Stats) (tree.NodeID, error) {
	if h == 1 || p == 1 {
		goRight, rounds, err := l.discriminate(v, x, y, z, br, p)
		if err != nil {
			return v, err
		}
		stats.DiscrimRounds += rounds
		stats.Steps += rounds
		stats.SeqLevels++
		ci := 0
		if goRight {
			ci = 1
		}
		return l.t.Children(v)[ci], nil
	}
	// Hop: discriminate every internal node of the next h levels "in
	// parallel" — the hop's time is the slowest discrimination with
	// p/nodeCount processors each — then descend h levels along the
	// resulting branches.
	levels := h
	if d := l.t.Depth(v); d+levels > l.height {
		levels = l.height - d
	}
	// Collect subtree nodes BFS.
	nodes := []tree.NodeID{v}
	depth0 := l.t.Depth(v)
	for qi := 0; qi < len(nodes); qi++ {
		u := nodes[qi]
		if l.t.Depth(u)-depth0 >= levels || l.t.IsLeaf(u) {
			continue
		}
		nodes = append(nodes, l.t.Children(u)...)
	}
	pShare := p / len(nodes)
	if pShare < 1 {
		pShare = 1
	}
	goRight := make(map[tree.NodeID]bool, len(nodes))
	maxRounds := 0
	// First pass: facet hits update the bracket; second pass resolves
	// gap nodes (ancestors of any gap node within range were either
	// discriminated in this pass or earlier, so the bracket covers
	// them — same argument as planar Step 5).
	type gapNode struct{ u tree.NodeID }
	var gaps []gapNode
	for _, u := range nodes {
		if l.t.IsLeaf(u) {
			continue
		}
		id, rounds := l.locs[u].locate(l.c.Facets, x, y, pShare)
		if rounds > maxRounds {
			maxRounds = rounds
		}
		if id < 0 {
			gaps = append(gaps, gapNode{u})
			continue
		}
		f := l.c.Facets[id]
		if z > f.Z {
			goRight[u] = true
			hi := f.Above - 1
			if hi > int32(l.r-1) {
				hi = int32(l.r - 1)
			}
			if hi > br.maxEL {
				br.maxEL = hi
			}
		} else {
			lo := f.Below
			if lo < 1 {
				lo = 1
			}
			if lo < br.minER {
				br.minER = lo
			}
		}
	}
	if br.maxEL >= br.minER {
		return v, fmt.Errorf("spatial: inconsistent bracket (%d, %d)", br.maxEL, br.minER)
	}
	for _, g := range gaps {
		goRight[g.u] = l.sep[g.u] <= br.maxEL
	}
	stats.DiscrimRounds += maxRounds
	stats.Steps += maxRounds + 2
	stats.Hops++
	for lvl := 0; lvl < levels && !l.t.IsLeaf(v); lvl++ {
		ci := 0
		if goRight[v] {
			ci = 1
		}
		v = l.t.Children(v)[ci]
	}
	return v, nil
}
