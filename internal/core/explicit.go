package core

import (
	"fmt"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/parallel"
	"fraccascade/internal/tree"
)

// Stats reports the simulated PRAM cost of one cooperative search. Steps is
// the quantity Theorem 1 bounds by O((log n)/log p).
type Stats struct {
	// Steps is the total simulated parallel time: root-search rounds, a
	// constant per hop, and one step per sequentially searched level.
	Steps int
	// RootRounds is the cooperative binary search time of Step 1 (summed
	// over segments for long-path searches).
	RootRounds int
	// Hops is the number of O(1)-time block jumps.
	Hops int
	// SeqLevels counts levels searched sequentially (the truncated tail
	// and, for unaligned entry points, block-boundary alignment).
	SeqLevels int
	// SlotsPeak is the largest processor-slot demand of any single hop —
	// the number of catalog positions examined simultaneously. The paper
	// bounds it by O(p) (Section 2.2 for explicit, 2.3 for implicit).
	SlotsPeak int
	// SlotsTotal sums slot demand over all hops.
	SlotsTotal int64
	// Sub is the substructure index used.
	Sub int
	// P is the processor count the search was planned for.
	P int
}

// hopCostSteps is the constant number of synchronous steps charged per
// explicit hop: one round of window tests (the Step-2 sample location runs
// as an independent test in the same round) and one round collecting the
// unique winner per window.
const hopCostSteps = 2

// implicitHopCostSteps adds the branch evaluation round and the
// right→left transition identification round of Section 2.3.
const implicitHopCostSteps = 4

// SearchExplicit performs a cooperative search for y along the given
// root-anchored downward path using p processors, returning find(y, v) for
// every path node. The returned Stats hold the simulated parallel cost
// (Theorem 1: O((log n)/log p) steps).
func (st *Structure) SearchExplicit(y catalog.Key, path []tree.NodeID, p int) ([]cascade.Result, Stats, error) {
	if err := st.t.ValidatePath(path); err != nil {
		return nil, Stats{}, err
	}
	if path[0] != st.t.Root() {
		return nil, Stats{}, fmt.Errorf("core: path must start at the root")
	}
	if p < 1 {
		p = 1
	}
	si := st.SelectSub(p)
	sub := st.subs[si]
	stats := Stats{Sub: si, P: p}
	results, err := st.searchSegment(sub, y, path, p, &stats)
	if err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// searchSegment runs the explicit cooperative search over one downward
// path segment: an entry search in the segment head's catalog, hops through
// aligned blocks, and sequential bridge descents elsewhere. The segment
// head may be any tree node (long-path searches enter mid-tree).
func (st *Structure) searchSegment(sub *Substructure, y catalog.Key, seg []tree.NodeID, p int, stats *Stats) ([]cascade.Result, error) {
	return st.searchSegmentCtl(sub, y, seg, p, stats, nil)
}

// searchSegmentCtl is searchSegment with an optional control hook checked
// between hops: census-driven substructure re-derivation (see
// degraded.go). A nil ctl is the fault-free fast path.
func (st *Structure) searchSegmentCtl(sub *Substructure, y catalog.Key, seg []tree.NodeID, p int, stats *Stats, ctl *searchControl) ([]cascade.Result, error) {
	head := st.s.Aug(seg[0])
	pos := head.Succ(y)
	rounds := parallel.CoopSearchSteps(head.Len(), p)
	stats.RootRounds += rounds
	stats.Steps += rounds
	return st.descendFromCtl(sub, y, seg, p, pos, stats, ctl)
}

// descendFromCtl runs the explicit search below the Step-1 entry: pos must
// be Aug(seg[0]).Succ(y). Splitting it from the entry search lets callers
// that already know the entry position (the engine's entry-point cache)
// skip the cooperative binary search while reusing the hop machinery.
func (st *Structure) descendFromCtl(sub *Substructure, y catalog.Key, seg []tree.NodeID, p, pos int, stats *Stats, ctl *searchControl) ([]cascade.Result, error) {
	results := make([]cascade.Result, len(seg))
	results[0] = st.s.ResultAt(seg[0], pos)

	idx := 0 // index into seg of the node whose find position is `pos`
	for idx < len(seg)-1 {
		if ctl != nil {
			var err error
			if sub, p, err = ctl.check(st, sub, p, stats); err != nil {
				return nil, err
			}
		}
		v := seg[idx]
		block := sub.BlockAt(v)
		if block == nil || st.t.Depth(v) >= sub.TruncDepth {
			// Sequential descent (Step 5 tail, or block alignment).
			ci := st.t.ChildIndex(v, seg[idx+1])
			pos, _ = st.s.Descend(y, v, ci, pos)
			idx++
			stats.SeqLevels++
			stats.Steps++
			results[idx] = st.s.ResultAt(seg[idx], pos)
			continue
		}
		// Steps 2–4: one hop through the block.
		exitPos, levels, err := st.hopExplicit(sub, block, seg, idx, y, pos, results, stats)
		if err != nil {
			return nil, err
		}
		pos = exitPos
		idx += levels
		stats.Hops++
		stats.Steps += hopCostSteps
	}
	return results, nil
}

// hopExplicit processes one block: it moves from the true successor
// position pos at the block root to the sampled skeleton tree (Step 2),
// then resolves find(y, ·) at every path node in the block via the Lemma 3
// windows (Step 3). It fills results for seg[idx+1 .. idx+levels] and
// returns the successor position at the exit node and the number of levels
// advanced.
func (st *Structure) hopExplicit(sub *Substructure, block *Block, seg []tree.NodeID, idx int, y catalog.Key, pos int, results []cascade.Result, stats *Stats) (exitPos, levels int, err error) {
	// Step 2: smallest sampled catalog entry ≥ pos.
	j, offset := block.sampleFor(pos, sub.S)
	kp := block.KeyPos[j]

	hopSlots := int64(sub.S) // Step 2 assigns s_i processors to find the sample
	lo := -offset            // window left slack, non-positive
	local := int32(0)
	exitPos = pos
	maxLevel := block.Height
	if idx+maxLevel > len(seg)-1 {
		maxLevel = len(seg) - 1 - idx
	}
	for l := 1; l <= maxLevel; l++ {
		v := seg[idx+l]
		ci := st.t.ChildIndex(seg[idx+l-1], v)
		if ci < 0 || int(local) >= len(block.Children) || ci >= len(block.Children[local]) {
			return 0, 0, fmt.Errorf("core: path leaves block at level %d", l)
		}
		local = block.Children[local][ci]
		lo = st.params.WindowLo(lo)
		anchor := int(kp[local])
		winLo, winHi := anchor+lo, anchor
		cat := st.s.Aug(v)
		found := cat.SuccInWindow(y, winLo, winHi)
		if found > winHi {
			return 0, 0, fmt.Errorf("core: Lemma 3 window [%d,%d] missed find(y,%d) (y=%d)", winLo, winHi, v, y)
		}
		width := winHi - max(0, winLo) + 1
		hopSlots += int64(width)
		results[idx+l] = st.s.ResultAt(v, found)
		exitPos = found
	}
	stats.SlotsTotal += hopSlots
	if int(hopSlots) > stats.SlotsPeak {
		stats.SlotsPeak = int(hopSlots)
	}
	return exitPos, maxLevel, nil
}

// sampleFor returns the skeleton tree index j whose root key is the
// smallest sampled catalog entry at or after pos, and the offset
// (sampledPos − pos ≥ 0) that seeds the Lemma 3 window recurrence.
func (b *Block) sampleFor(pos, s int) (j, offset int) {
	k := pos / s
	if k > b.M-1 {
		k = b.M - 1
	}
	sampled := int(b.KeyPos[k][0])
	if sampled < pos {
		// pos lies beyond the last regular sample; use the +∞ tree.
		k = b.M - 1
		sampled = int(b.KeyPos[k][0])
	}
	return k, sampled - pos
}
