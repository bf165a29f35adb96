// Package pointloc implements planar point location via the bridged
// separator tree (Lee–Preparata, Edelsbrunner–Guibas–Stolfi) with the
// cooperative search extension of Section 3.1 (Theorem 4).
//
// The separator tree T is a balanced binary tree whose leaves are the
// regions r_1..r_f of a monotone subdivision (left to right) and whose
// internal nodes are the separators σ_1..σ_{f−1} in inorder. Each edge of
// the subdivision belongs to a contiguous range of separators and is
// stored once, at the lowest common ancestor of that range (its "proper"
// separator); the proper edges of a separator form its catalog, sorted by
// the edges' top y-coordinates. Separators without a proper edge at the
// query height are "inactive" (the query falls into a gap), which makes
// the natural branch function violate the consistency assumption of
// Section 2 — the reason point location needs the dedicated hop procedure
// below rather than the basic implicit search.
//
// Both locators resolve inactive nodes with the (L, R) tracking rule the
// paper's parallel Step 5 uses: after discriminating right of edge e_L the
// query is right of every separator with index ≤ max(e_L); symmetrically
// for e_R. The cooperative locator performs the paper's six-step hop:
// find(y, ·) at all block nodes via the Lemma 3 windows, discrimination at
// active nodes, the unique active pair (σ_i, σ_j) bounding q's region of
// S(U) (tested via the min/max edge indices exactly as in the proof of
// Theorem 4), (L, R) update, inactive branch assignment, and block
// descent.
//
// The region count is padded to a power of two with empty far-right dummy
// regions; dummy separators have empty catalogs, are always inactive, and
// steer every query left, so padding never changes an answer.
package pointloc

import (
	"fmt"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/geom"
	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// Locator is a preprocessed monotone subdivision supporting sequential and
// cooperative point-location queries.
type Locator struct {
	sub    *subdivision.Subdivision
	t      *tree.Tree
	st     *core.Structure
	f      int // real region count
	fPad   int // padded to power of two
	height int // tree height == log2(fPad)

	// sep[v] is the separator index of internal node v (1..fPad−1);
	// region[v] is the region index of leaf v (1..fPad); 0 otherwise.
	sep    []int32
	region []int32
	// sepNode[j] is the internal node of separator j.
	sepNode []tree.NodeID
	lca     *tree.LCAIndex

	// Debug enables exhaustive uniqueness checks of the Step-3 active
	// pair; tests turn it on.
	Debug bool
}

// Build preprocesses the subdivision. cfg tunes the underlying cooperative
// search preprocessing (Theorem 1 machinery).
func Build(s *subdivision.Subdivision, cfg core.Config) (*Locator, error) {
	f := s.NumRegions
	fPad := 1
	for fPad < f {
		fPad *= 2
	}
	l := &Locator{sub: s, f: f, fPad: fPad}
	if f == 1 {
		return l, nil // single region: no tree needed
	}
	t, err := tree.NewBalancedBinary(fPad)
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
	l.region = make([]int32, t.N())
	l.sepNode = make([]tree.NodeID, fPad)
	for v := tree.NodeID(0); int(v) < t.N(); v++ {
		if t.IsLeaf(v) {
			l.region[v] = inorder[v]/2 + 1
		} else {
			j := (inorder[v] + 1) / 2
			l.sep[v] = j
			l.sepNode[j] = v
		}
	}
	// Proper-edge assignment: home(e) = LCA of the leaves of e's two
	// incident regions. Leaves in left-to-right order are the last fPad
	// nodes of the level-order numbering.
	leafNode := func(r int32) tree.NodeID { return tree.NodeID(fPad - 1 + int(r) - 1) }
	lca := tree.NewLCA(t)
	l.lca = lca
	perNode := make([][]int, t.N()) // edge indices per separator node
	for ei, e := range s.Edges {
		home := lca.LCA(leafNode(e.Left), leafNode(e.Right))
		if t.IsLeaf(home) {
			return nil, fmt.Errorf("pointloc: edge %d homed at a leaf", ei)
		}
		j := l.sep[home]
		if !(e.MinSep() <= j && j <= e.MaxSep()) {
			return nil, fmt.Errorf("pointloc: edge %d homed at separator %d outside [%d,%d]", ei, j, e.MinSep(), e.MaxSep())
		}
		perNode[home] = append(perNode[home], ei)
	}
	// Per-separator catalogs are independent (each iteration writes only
	// cats[v]), so the loop fans out over the host executor; errors are
	// recorded per node and reported in node order, keeping the failure
	// deterministic too.
	cats := make([]catalog.Catalog, t.N())
	catErrs := make([]error, t.N())
	par := cfg.Parallelism
	if cfg.Sequential {
		par = 1
	}
	workpool.ForEach(par, t.N(), 32, func(loI, hiI int) {
		for v := loI; v < hiI; v++ {
			idxs := perNode[v]
			if len(idxs) == 0 {
				cats[v] = catalog.Empty()
				continue
			}
			keys := make([]catalog.Key, len(idxs))
			payloads := make([]int32, len(idxs))
			for i, ei := range idxs {
				keys[i] = s.Edges[ei].Seg.B.Y // top y is the successor-search key
				payloads[i] = int32(ei)
			}
			cats[v], catErrs[v] = catalog.FromKeys(keys, payloads)
		}
	})
	for v, cerr := range catErrs {
		if cerr != nil {
			return nil, fmt.Errorf("pointloc: separator %d catalog: %w", l.sep[v], cerr)
		}
	}
	st, err := core.Build(t, cats, cfg)
	if err != nil {
		return nil, err
	}
	l.st = st
	return l, nil
}

// Structure exposes the underlying cooperative search structure.
func (l *Locator) Structure() *core.Structure { return l.st }

// homeOf returns the separator-tree node at which edge e is stored as a
// proper edge: the LCA of its two incident region leaves.
func (l *Locator) homeOf(e subdivision.Edge) tree.NodeID {
	left := tree.NodeID(l.fPad - 1 + int(e.Left) - 1)
	right := tree.NodeID(l.fPad - 1 + int(e.Right) - 1)
	return l.lca.LCA(left, right)
}

// lrState tracks the last discriminations: q is right of every separator
// with index ≤ maxEL and left of every separator with index ≥ minER.
type lrState struct {
	l, r         int32 // separator indices of σ_L and σ_R (0 and fPad sentinels)
	maxEL, minER int32
}

// initLR starts the bracketing at the paper's fictitious separators:
// L = σ_0 at −∞ and R = σ_f at +∞ (f is the real region count, so the
// far-right dummy separators introduced by padding resolve left through
// the ordinary k ≥ min(e_R) rule).
func (l *Locator) initLR() lrState {
	return lrState{l: 0, r: int32(l.f), maxEL: 0, minER: int32(l.f)}
}

// nodeFind describes find(y, v) at a separator node: the proper edge whose
// span contains y (active) or the gap (inactive).
type nodeFind struct {
	active bool
	edge   subdivision.Edge
	edgeID int32
}

// classify interprets a find result at a separator node for query height y.
func (l *Locator) classify(r coreResult, y int64) nodeFind {
	if r.Payload < 0 {
		return nodeFind{} // +∞ terminal: gap above all proper edges
	}
	e := l.sub.Edges[r.Payload]
	if e.Seg.A.Y <= y {
		return nodeFind{active: true, edge: e, edgeID: r.Payload}
	}
	return nodeFind{} // gap below the found edge
}

// coreResult is the subset of cascade.Result classify needs.
type coreResult struct {
	Key     catalog.Key
	Payload int32
}

// seqStep performs one sequential descent step from internal node v with
// successor position pos, returning the chosen child and its position.
func (l *Locator) seqStep(q geom.Point, v tree.NodeID, pos int, lr *lrState) (tree.NodeID, int, error) {
	k, payload := l.st.Cascade().Aug(v).NativeResult(pos)
	nf := l.classify(coreResult{Key: k, Payload: payload}, q.Y)
	j := l.sep[v]
	var goRight bool
	if nf.active {
		if geom.SideOf(q, nf.edge.Seg) >= 0 {
			goRight = true
			if nf.edge.MaxSep() > lr.maxEL {
				lr.l, lr.maxEL = j, nf.edge.MaxSep()
			}
		} else {
			if nf.edge.MinSep() < lr.minER {
				lr.r, lr.minER = j, nf.edge.MinSep()
			}
		}
	} else {
		switch {
		case j <= lr.maxEL:
			goRight = true
		case j >= lr.minER:
			goRight = false
		default:
			return tree.Nil, 0, fmt.Errorf("pointloc: inactive separator %d undetermined (maxEL=%d minER=%d)", j, lr.maxEL, lr.minER)
		}
	}
	ci := 0
	if goRight {
		ci = 1
	}
	childPos, _ := l.st.Cascade().Descend(q.Y, v, ci, pos)
	return l.t.Children(v)[ci], childPos, nil
}

// LocateSeq returns the region containing q via the sequential bridged
// separator tree search (O(log n) time).
func (l *Locator) LocateSeq(q geom.Point) (int, error) {
	if err := l.checkQuery(q); err != nil {
		return 0, err
	}
	if l.f == 1 {
		return 1, nil
	}
	lr := l.initLR()
	v := l.t.Root()
	pos := l.st.Cascade().Aug(v).Succ(q.Y)
	for !l.t.IsLeaf(v) {
		var err error
		v, pos, err = l.seqStep(q, v, pos, &lr)
		if err != nil {
			return 0, err
		}
	}
	r := int(l.region[v])
	if r > l.f {
		return 0, fmt.Errorf("pointloc: query landed in dummy region %d", r)
	}
	return r, nil
}

func (l *Locator) checkQuery(q geom.Point) error {
	if q.Y <= l.sub.YMin || q.Y >= l.sub.YMax {
		return fmt.Errorf("pointloc: query y=%d outside (%d, %d)", q.Y, l.sub.YMin, l.sub.YMax)
	}
	return nil
}
