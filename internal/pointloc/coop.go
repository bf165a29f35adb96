package pointloc

import (
	"fmt"

	"fraccascade/internal/core"
	"fraccascade/internal/geom"
	"fraccascade/internal/parallel"
	"fraccascade/internal/tree"
)

// coopHopCostSteps is the constant number of synchronous steps charged per
// point-location hop (the six O(1)-time steps of Section 3.1).
const coopHopCostSteps = 6

// LocateCoop returns the region containing q using the cooperative
// point-location search of Theorem 4 with p processors.
//
// Each hop follows Section 3.1: (1) find(y, σ) at all block nodes via the
// Lemma 3 windows; (2) discriminate q against the proper edge at every
// active node; (3–4) update the (L, R) bracketing; (5) resolve inactive
// nodes by comparing their separator index with max(e_L); (6) descend the
// block along the resulting branches.
//
// For steps 3–4 this implementation keeps the bracketing monotone over all
// discriminations — every active test "q right of e" proves q right of all
// separators ≤ max(e), so max(e_L) only ever grows and min(e_R) only ever
// shrinks. This subsumes the paper's unique-pair computation (whose result
// is exactly the tightest bracket) and makes Step 5 provably correct for
// every on-path inactive node: its chain edge at the query height is
// proper at an active ancestor that has already been discriminated, so one
// of the two bounds covers it and the other cannot contradict it. With
// Debug set, the paper's Step 3 pair condition (the min/max-index test for
// "same region of S(U)" from the proof of Theorem 4) is evaluated and
// checked for existence on every hop.
func (l *Locator) LocateCoop(q geom.Point, p int) (int, core.Stats, error) {
	r, ds, err := l.locateCoopCtl(q, p, nil)
	return r, ds.Stats, err
}

// LocateCoopDegraded is LocateCoop under processor failures: the census is
// consulted between hops and the substructure re-derived for the surviving
// processor count (see core.SearchExplicitDegraded). The located region is
// identical to the fault-free answer as long as one processor survives.
func (l *Locator) LocateCoopDegraded(q geom.Point, p int, census core.Census) (int, core.DegradedStats, error) {
	return l.locateCoopCtl(q, p, census)
}

// locateCoopCtl is the census-aware body shared by the LocateCoop
// variants; a nil census gives the fault-free behaviour exactly.
func (l *Locator) locateCoopCtl(q geom.Point, p int, census core.Census) (int, core.DegradedStats, error) {
	if err := l.checkQuery(q); err != nil {
		return 0, core.DegradedStats{}, err
	}
	if p < 1 {
		p = 1
	}
	start := p
	if census != nil {
		live := census.LiveAt(0)
		if live < 1 {
			return 0, core.DegradedStats{StartP: start}, fmt.Errorf("pointloc: no live processors at step 0")
		}
		if live < p {
			p = live
		}
	}
	ds := core.DegradedStats{StartP: start, MinLiveP: p}
	if l.f == 1 {
		return 1, ds, nil
	}
	si := l.st.SelectSub(p)
	sub := l.st.Substructure(si)
	ds.Stats = core.Stats{Sub: si, P: start}
	stats := &ds.Stats

	lr := l.initLR()
	v := l.t.Root()
	rootCat := l.st.Cascade().Aug(v)
	pos := rootCat.Succ(q.Y)
	stats.RootRounds = parallel.CoopSearchSteps(rootCat.Len(), p)
	stats.Steps += stats.RootRounds

	for !l.t.IsLeaf(v) {
		if census != nil {
			live := census.LiveAt(stats.Steps)
			if live < 1 {
				return 0, ds, fmt.Errorf("pointloc: no live processors at step %d", stats.Steps)
			}
			if live < ds.MinLiveP {
				ds.MinLiveP = live
			}
			if live != p {
				if nsi := l.st.SelectSub(live); l.st.Substructure(nsi) != sub {
					// Off a block boundary of the new T_i, BlockAt returns
					// nil and the walk descends sequentially until it
					// realigns — same recovery as the core search.
					sub = l.st.Substructure(nsi)
					stats.Sub = nsi
					ds.Redrives++
				}
				p = live
			}
		}
		block := sub.BlockAt(v)
		if block == nil || l.t.Depth(v) >= sub.TruncDepth {
			var err error
			v, pos, err = l.seqStep(q, v, pos, &lr)
			if err != nil {
				return 0, ds, err
			}
			stats.SeqLevels++
			stats.Steps++
			continue
		}
		var err error
		v, pos, err = l.hop(sub, block, q, pos, &lr, stats)
		if err != nil {
			return 0, ds, err
		}
		stats.Hops++
		stats.Steps += coopHopCostSteps
	}
	r := int(l.region[v])
	if r > l.f {
		return 0, ds, fmt.Errorf("pointloc: query landed in dummy region %d", r)
	}
	return r, ds, nil
}

// hop executes one parallel hop of Section 3.1 over block U.
func (l *Locator) hop(sub *core.Substructure, block *core.Block, q geom.Point, pos int, lr *lrState, stats *core.Stats) (tree.NodeID, int, error) {
	// Step 1: find(y, σ) for every node of U via the Lemma 3 windows.
	findPos, slots, err := l.st.FindAllInBlock(sub, block, q.Y, pos)
	if err != nil {
		return tree.Nil, 0, err
	}
	stats.SlotsTotal += slots
	if int(slots) > stats.SlotsPeak {
		stats.SlotsPeak = int(slots)
	}

	// Step 2: discriminate q at active nodes; steps 3–4: fold each
	// discrimination into the monotone (L, R) bracket.
	n := len(block.Nodes)
	branchRight := make([]bool, n)
	decided := make([]bool, n)
	var activeForDebug []pairCandidate
	for z := 0; z < n; z++ {
		node := block.Nodes[z]
		if l.t.IsLeaf(node) {
			continue // region leaves carry no separator
		}
		k, payload := l.st.Cascade().Aug(node).NativeResult(int(findPos[z]))
		nf := l.classify(coreResult{Key: k, Payload: payload}, q.Y)
		if !nf.active {
			continue
		}
		right := geom.SideOf(q, nf.edge.Seg) >= 0
		branchRight[z] = right
		decided[z] = true
		j := l.sep[node]
		if right {
			if nf.edge.MaxSep() > lr.maxEL {
				lr.l, lr.maxEL = j, nf.edge.MaxSep()
			}
		} else {
			if nf.edge.MinSep() < lr.minER {
				lr.r, lr.minER = j, nf.edge.MinSep()
			}
		}
		if l.Debug {
			activeForDebug = append(activeForDebug, pairCandidate{
				sepIdx: j, minE: nf.edge.MinSep(), maxE: nf.edge.MaxSep(), right: right, real: true,
			})
		}
	}
	if lr.maxEL >= lr.minER {
		return tree.Nil, 0, fmt.Errorf("pointloc: inconsistent bracket maxEL=%d minER=%d", lr.maxEL, lr.minER)
	}
	if l.Debug {
		if err := l.checkStep3Pair(block, activeForDebug, lr); err != nil {
			return tree.Nil, 0, err
		}
	}

	// Step 5: branch at inactive nodes from max(e_L).
	for z := 0; z < n; z++ {
		node := block.Nodes[z]
		if decided[z] || l.t.IsLeaf(node) {
			continue
		}
		branchRight[z] = l.sep[node] <= lr.maxEL
	}

	// Step 6: the branches identify the search path within U; descend.
	local := int32(0)
	for int(block.Level[local]) < block.Height {
		ch := block.Children[local]
		if len(ch) != 2 {
			return tree.Nil, 0, fmt.Errorf("pointloc: block node %d lacks children", block.Nodes[local])
		}
		if branchRight[local] {
			local = ch[1]
		} else {
			local = ch[0]
		}
	}
	return block.Nodes[local], int(findPos[local]), nil
}

// pairCandidate is an entry of the paper's Step-3 candidate set: an active
// node of U, or the virtual σ_L / σ_R carried from previous hops.
type pairCandidate struct {
	sepIdx int32
	minE   int32
	maxE   int32
	right  bool
	real   bool
}

// checkStep3Pair validates the paper's Step 3 on this hop: among the
// active nodes of U together with the carried σ_L and σ_R, a pair
// (σ_i, σ_j) with i < j, q right of e_i and left of e_j, whose edges bound
// the same region of S(U) — tested as min(e_j) − max(e_i) ≤ 2^hBelow per
// the proof of Theorem 4 — must exist, and the tightest such pair must
// agree with the monotone bracket.
func (l *Locator) checkStep3Pair(block *core.Block, actives []pairCandidate, lr *lrState) error {
	hBelow := l.height - (l.t.Depth(block.Root) + block.Height)
	groupSpan := int32(1) << uint(hBelow)
	cands := append([]pairCandidate{
		{sepIdx: lr.l, minE: 0, maxE: lr.maxEL, right: true},
		{sepIdx: lr.r, minE: lr.minER, maxE: int32(l.fPad), right: false},
	}, actives...)
	found := false
	for a := range cands {
		if !cands[a].right {
			continue
		}
		for b := range cands {
			if cands[b].right || cands[b].sepIdx <= cands[a].sepIdx {
				continue
			}
			if cands[b].minE-cands[a].maxE <= groupSpan {
				found = true
				// The pair must be consistent with the bracket.
				if cands[a].maxE > lr.maxEL || cands[b].minE < lr.minER {
					return fmt.Errorf("pointloc: Step 3 pair (%d,%d) tighter than bracket (%d,%d)",
						cands[a].sepIdx, cands[b].sepIdx, lr.maxEL, lr.minER)
				}
			}
		}
	}
	if !found {
		return fmt.Errorf("pointloc: Step 3 found no active pair at block %d", block.Root)
	}
	return nil
}
