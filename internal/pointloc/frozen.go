package pointloc

import (
	"fmt"

	"fraccascade/internal/core"
	"fraccascade/internal/flat"
	"fraccascade/internal/geom"
	"fraccascade/internal/parallel"
	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
)

// Frozen is the flat twin of a Locator: the flat layout of its cooperative
// search structure, the separator and region tables, and a copy of the
// subdivision's edges, one record per edge. It holds no pointer into the
// Locator or the subdivision, so both can be dropped once it is built.
// LocateCoopInto replays the fault-free LocateCoop hop for hop — identical
// regions, identical Stats, identical error text — at zero heap
// allocations per query once its scratch is warm. Each hop checks every
// block node's Lemma 3 window and counts its slots, but searches a window
// and discriminates q only along the branch path.
type Frozen struct {
	st         *flat.Structure // nil when there is a single region
	f          int32           // real region count
	yMin, yMax int64

	// sep and region are the Locator's per-node tables; edges is a copy of
	// the subdivision's, one record per edge.
	sep, region []int32
	edges       []subdivision.Edge
}

// Scratch is the reusable per-goroutine state of a frozen locate: the
// current hop's block with its checked windows. One scratch serves one
// query at a time; concurrent queries need one scratch each.
type Scratch struct {
	block flat.Block
}

// NewScratch returns an empty scratch; it grows to the largest block on
// first use.
func (fz *Frozen) NewScratch() *Scratch { return &Scratch{} }

// Freeze re-encodes the locator: its structure through flat.FreezeParallel
// over parallelism host workers (0 = all cores), its tables and the
// subdivision's edges copied into flat slices.
func (l *Locator) Freeze(parallelism int) (*Frozen, error) {
	fz := &Frozen{f: int32(l.f), yMin: l.sub.YMin, yMax: l.sub.YMax}
	if l.f == 1 {
		return fz, nil // single region: every in-range query answers 1
	}
	st, err := flat.FreezeParallel(l.st, parallelism)
	if err != nil {
		return nil, fmt.Errorf("pointloc: freeze: %w", err)
	}
	fz.st = st
	fz.sep = append([]int32(nil), l.sep...)
	fz.region = append([]int32(nil), l.region...)
	fz.edges = append([]subdivision.Edge(nil), l.sub.Edges...)
	return fz, nil
}

// LocateCoopInto is Locator.LocateCoop on the frozen layout: the region
// containing q, located by the cooperative search of Theorem 4 with p
// processors, with bit-identical Stats.
func (fz *Frozen) LocateCoopInto(q geom.Point, p int, sc *Scratch) (int, core.Stats, error) {
	if q.Y <= fz.yMin || q.Y >= fz.yMax {
		return 0, core.Stats{}, fmt.Errorf("pointloc: query y=%d outside (%d, %d)", q.Y, fz.yMin, fz.yMax)
	}
	if p < 1 {
		p = 1
	}
	if fz.f == 1 {
		return 1, core.Stats{}, nil
	}
	si := fz.st.SelectSub(p)
	stats := core.Stats{Sub: si, P: p}
	lr := lrState{l: 0, r: fz.f, maxEL: 0, minER: fz.f}
	v := fz.st.Root()
	pos := fz.st.EntryProbe(v, q.Y)
	stats.RootRounds = parallel.CoopSearchSteps(fz.st.CatalogLen(v), p)
	stats.Steps += stats.RootRounds
	for !fz.st.IsLeaf(v) {
		var err error
		if !fz.st.HopBlock(si, v) {
			if v, pos, err = fz.seqStep(q, v, pos, &lr); err != nil {
				return 0, stats, err
			}
			stats.SeqLevels++
			stats.Steps++
			continue
		}
		if v, pos, err = fz.hop(si, v, q, pos, &lr, &stats, sc); err != nil {
			return 0, stats, err
		}
		stats.Hops++
		stats.Steps += coopHopCostSteps
	}
	r := int(fz.region[v])
	if r > int(fz.f) {
		return 0, stats, fmt.Errorf("pointloc: query landed in dummy region %d", r)
	}
	return r, stats, nil
}

// activeEdge is Locator.classify on the frozen layout: the proper edge
// whose span contains y at a node whose find result carries payload, or
// −1 when the node is inactive (a gap above or below its proper edges).
func (fz *Frozen) activeEdge(payload int32, y int64) int32 {
	if payload < 0 || fz.edges[payload].Seg.A.Y > y {
		return -1
	}
	return payload
}

// rightOf reports whether q lies right of (or on) edge e, and folds the
// discrimination at separator j into the (L, R) bracket.
func (fz *Frozen) rightOf(q geom.Point, e, j int32, lr *lrState) bool {
	ed := &fz.edges[e]
	if geom.SideOf(q, ed.Seg) >= 0 {
		if maxSep := ed.MaxSep(); maxSep > lr.maxEL {
			lr.l, lr.maxEL = j, maxSep
		}
		return true
	}
	if minSep := ed.MinSep(); minSep < lr.minER {
		lr.r, lr.minER = j, minSep
	}
	return false
}

// seqStep is Locator.seqStep on the frozen layout.
func (fz *Frozen) seqStep(q geom.Point, v tree.NodeID, pos int, lr *lrState) (tree.NodeID, int, error) {
	_, payload := fz.st.NativeResult(v, pos)
	j := fz.sep[v]
	var goRight bool
	if e := fz.activeEdge(payload, q.Y); e >= 0 {
		goRight = fz.rightOf(q, e, j, lr)
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
	return fz.st.Child(v, ci), fz.st.DescendPos(q.Y, v, ci, pos), nil
}

// hop is Locator.hop on the frozen layout, walked along the branch path
// alone. Step 1 checks every block node's Lemma 3 window and counts its
// slots, as the pointer hop's p processors do, but resolves find(y, ·)
// only at the path nodes; Steps 2–5 discriminate q, or branch an inactive
// node by sep ≤ max(e_L), only at the path nodes above the block's leaves.
// That decides every branch the pointer hop's whole-block bracket does:
// an on-path inactive node's chain edge at height y is proper at an
// on-path ancestor, discriminated before it (see LocateCoop).
func (fz *Frozen) hop(si int, v tree.NodeID, q geom.Point, pos int, lr *lrState, stats *core.Stats, sc *Scratch) (tree.NodeID, int, error) {
	b := &sc.block
	slots, err := fz.st.OpenBlock(si, v, q.Y, pos, b)
	if err != nil {
		return tree.Nil, 0, err
	}
	stats.SlotsTotal += slots
	if int(slots) > stats.SlotsPeak {
		stats.SlotsPeak = int(slots)
	}

	// Steps 2–6 along the branch path: discriminate q at an active node and
	// fold the result into the monotone (L, R) bracket, or branch an
	// inactive one from max(e_L); step to the chosen child and resolve its
	// find(y, ·).
	local := int32(0)
	for range b.Height {
		node := b.Nodes[local]
		ch := b.Children(local)
		if len(ch) != 2 {
			return tree.Nil, 0, fmt.Errorf("pointloc: block node %d lacks children", node)
		}
		var goRight bool
		_, payload := fz.st.NativeResult(node, pos)
		if e := fz.activeEdge(payload, q.Y); e >= 0 {
			goRight = fz.rightOf(q, e, fz.sep[node], lr)
		} else {
			goRight = fz.sep[node] <= lr.maxEL
		}
		if goRight {
			local = ch[1]
		} else {
			local = ch[0]
		}
		pos = fz.st.FindInBlock(b, local)
	}
	if lr.maxEL >= lr.minER {
		return tree.Nil, 0, fmt.Errorf("pointloc: inconsistent bracket maxEL=%d minER=%d", lr.maxEL, lr.minER)
	}
	return b.Nodes[local], pos, nil
}
