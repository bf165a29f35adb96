package flat

import (
	"fmt"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/parallel"
	"fraccascade/internal/tree"
)

// hopCostSteps and entryHitSteps mirror the cost constants of
// internal/core so flat Stats are bit-identical to the pointer path.
const (
	hopCostSteps  = 2
	entryHitSteps = 1
)

// validatePath is tree.ValidatePath on the flat layout, with explicit
// bounds checks on the node ids so a hostile path cannot index out of
// range (the decoder cannot vouch for caller-supplied paths).
func (f *Structure) validatePath(path []tree.NodeID) error {
	if len(path) == 0 {
		return fmt.Errorf("flat: empty path")
	}
	for i, v := range path {
		if v < 0 || v >= f.n {
			return fmt.Errorf("flat: path node %d out of range [0, %d)", v, f.n)
		}
		if i > 0 && f.parent[v] != path[i-1] {
			return fmt.Errorf("flat: path broken at position %d: %d is not a child of %d", i, v, path[i-1])
		}
	}
	return nil
}

// SearchPath is SearchPathInto with a freshly allocated result slice.
func (f *Structure) SearchPath(y catalog.Key, path []tree.NodeID) ([]cascade.Result, error) {
	out := make([]cascade.Result, len(path))
	if err := f.SearchPathInto(y, path, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SearchPathInto is the sequential fractional cascading search on the flat
// layout (cascade.SearchPath): one successor search at the root, then a
// constant-time bridge descent per level. out must have len(path) slots.
// The walk performs zero heap allocations — this is the wall-clock hot
// path the wall executor (E22) and the engine's flat backend run on.
func (f *Structure) SearchPathInto(y catalog.Key, path []tree.NodeID, out []cascade.Result) error {
	if err := f.validatePath(path); err != nil {
		return err
	}
	if path[0] != f.root {
		return fmt.Errorf("flat: path must start at the root")
	}
	if len(out) < len(path) {
		return fmt.Errorf("flat: result buffer holds %d of %d path nodes", len(out), len(path))
	}
	pos := f.succ(path[0], y)
	out[0] = f.resultAt(path[0], pos)
	for i := 1; i < len(path); i++ {
		ci := f.childIndex(path[i-1], path[i])
		pos = f.descend(y, path[i-1], ci, pos)
		out[i] = f.resultAt(path[i], pos)
	}
	return nil
}

// SearchExplicit is SearchExplicitInto with a freshly allocated result
// slice, signature-compatible with core.Structure.SearchExplicit.
func (f *Structure) SearchExplicit(y catalog.Key, path []tree.NodeID, p int) ([]cascade.Result, core.Stats, error) {
	out := make([]cascade.Result, len(path))
	stats, err := f.SearchExplicitInto(y, path, p, out)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// SearchExplicitInto replays core.SearchExplicit on the flat layout: the
// Step-1 cooperative entry search, block hops through the skeleton forest
// (Lemma 3 windows), and the sequential truncated tail. Results and Stats
// are bit-identical to the pointer structure's — asserted query by query
// by the differential harness — so the flat path can serve anywhere the
// simulated cost model is observed. Zero heap allocations.
func (f *Structure) SearchExplicitInto(y catalog.Key, path []tree.NodeID, p int, out []cascade.Result) (core.Stats, error) {
	if err := f.validatePath(path); err != nil {
		return core.Stats{}, err
	}
	if path[0] != f.root {
		return core.Stats{}, fmt.Errorf("flat: path must start at the root")
	}
	if len(out) < len(path) {
		return core.Stats{}, fmt.Errorf("flat: result buffer holds %d of %d path nodes", len(out), len(path))
	}
	if p < 1 {
		p = 1
	}
	si := f.selectSub(p)
	stats := core.Stats{Sub: si, P: p}
	pos := f.succ(path[0], y)
	rounds := parallel.CoopSearchSteps(f.catLen(path[0]), p)
	stats.RootRounds += rounds
	stats.Steps += rounds
	if err := f.descendFrom(si, y, path, pos, &stats, out); err != nil {
		return stats, err
	}
	return stats, nil
}

// SearchExplicitWithEntry mirrors core.SearchExplicitWithEntry: a valid
// cached entry position replaces the Step-1 cooperative rounds with one
// verification step (used = true); an invalid hint falls back to the full
// search (used = false). Answers always equal SearchExplicit's.
func (f *Structure) SearchExplicitWithEntry(y catalog.Key, path []tree.NodeID, p, entryPos int) ([]cascade.Result, core.Stats, bool, error) {
	if err := f.validatePath(path); err != nil {
		return nil, core.Stats{}, false, err
	}
	if path[0] != f.root {
		return nil, core.Stats{}, false, fmt.Errorf("flat: path must start at the root")
	}
	if p < 1 {
		p = 1
	}
	si := f.selectSub(p)
	stats := core.Stats{Sub: si, P: p}
	out := make([]cascade.Result, len(path))
	if !f.ValidEntry(path[0], entryPos, y) {
		pos := f.succ(path[0], y)
		rounds := parallel.CoopSearchSteps(f.catLen(path[0]), p)
		stats.RootRounds += rounds
		stats.Steps += rounds
		err := f.descendFrom(si, y, path, pos, &stats, out)
		if err != nil {
			return nil, stats, false, err
		}
		return out, stats, false, nil
	}
	stats.RootRounds += entryHitSteps
	stats.Steps += entryHitSteps
	err := f.descendFrom(si, y, path, entryPos, &stats, out)
	if err != nil {
		return nil, stats, true, err
	}
	return out, stats, true, nil
}

// selectSub is core.Structure.SelectSub on the flat layout.
func (f *Structure) selectSub(p int) int {
	i := f.params.SubstructureFor(p)
	if i >= len(f.subs) {
		i = len(f.subs) - 1
	}
	return i
}

// descendFrom runs the explicit search below the Step-1 entry position
// (core.descendFromCtl, fault-free path).
func (f *Structure) descendFrom(si int, y catalog.Key, seg []tree.NodeID, pos int, stats *core.Stats, out []cascade.Result) error {
	sub := &f.subs[si]
	out[0] = f.resultAt(seg[0], pos)
	idx := 0
	for idx < len(seg)-1 {
		v := seg[idx]
		bi := sub.blockOf[v]
		if bi < 0 || f.depth[v] >= sub.truncDepth {
			// Sequential descent (Step 5 tail, or block alignment).
			ci := f.childIndex(v, seg[idx+1])
			pos = f.descend(y, v, ci, pos)
			idx++
			stats.SeqLevels++
			stats.Steps++
			out[idx] = f.resultAt(seg[idx], pos)
			continue
		}
		// Steps 2–4: one hop through the block.
		exitPos, levels, err := f.hopExplicit(sub, bi, seg, idx, y, pos, out, stats)
		if err != nil {
			return err
		}
		pos = exitPos
		idx += levels
		stats.Hops++
		stats.Steps += hopCostSteps
	}
	return nil
}

// hopExplicit is core.hopExplicit on the flat layout: locate the sampled
// skeleton tree for the entry position (Step 2), then resolve find(y, ·)
// at every path node in the block through the Lemma 3 windows (Step 3).
func (f *Structure) hopExplicit(sub *flatSub, bi int32, seg []tree.NodeID, idx int, y catalog.Key, pos int, out []cascade.Result, stats *core.Stats) (exitPos, levels int, err error) {
	slotBase := int(sub.blockStart[bi])
	blockLen := int(sub.blockStart[bi+1]) - slotBase
	kpBase := int(sub.keyPosStart[bi])

	// Step 2: smallest sampled catalog entry ≥ pos (core.Block.sampleFor).
	s := int(sub.s)
	m := int(sub.blockM[bi])
	k := pos / s
	if k > m-1 {
		k = m - 1
	}
	sampled := int(sub.keyPos[kpBase+k*blockLen])
	if sampled < pos {
		// pos lies beyond the last regular sample; use the +∞ tree.
		k = m - 1
		sampled = int(sub.keyPos[kpBase+k*blockLen])
	}
	kpRow := kpBase + k*blockLen

	hopSlots := int64(s) // Step 2 assigns s_i processors to find the sample
	lo := pos - sampled  // window left slack, non-positive
	local := 0
	exitPos = pos
	maxLevel := int(sub.blockHeight[bi])
	if idx+maxLevel > len(seg)-1 {
		maxLevel = len(seg) - 1 - idx
	}
	for l := 1; l <= maxLevel; l++ {
		v := seg[idx+l]
		ci := f.childIndex(seg[idx+l-1], v)
		chLo := int(sub.blockChildStart[slotBase+local])
		chHi := int(sub.blockChildStart[slotBase+local+1])
		if ci < 0 || ci >= chHi-chLo {
			return 0, 0, fmt.Errorf("flat: path leaves block at level %d", l)
		}
		local = int(sub.blockChildren[chLo+ci])
		lo = f.params.WindowLo(lo)
		anchor := int(sub.keyPos[kpRow+local])
		winLo, winHi := anchor+lo, anchor
		found := f.succInWindow(v, y, winLo, winHi)
		if found > winHi || found >= f.catLen(v) {
			return 0, 0, fmt.Errorf("flat: Lemma 3 window [%d,%d] missed find(y,%d) (y=%d)", winLo, winHi, v, y)
		}
		width := winHi - max(0, winLo) + 1
		hopSlots += int64(width)
		out[idx+l] = f.resultAt(v, found)
		exitPos = found
	}
	stats.SlotsTotal += hopSlots
	if int(hopSlots) > stats.SlotsPeak {
		stats.SlotsPeak = int(hopSlots)
	}
	return exitPos, maxLevel, nil
}

// ValidEntry is core.ValidEntry on the flat layout: pos is exactly
// succ(y) at node v.
func (f *Structure) ValidEntry(v tree.NodeID, pos int, y catalog.Key) bool {
	if v < 0 || v >= f.n {
		return false
	}
	if pos < 0 || pos >= f.catLen(v) {
		return false
	}
	base := int(f.catStart[v])
	return f.keys[base+pos] >= y && (pos == 0 || f.keys[base+pos-1] < y)
}

// EntryProbe returns succ(y) at node v, the position a Step-1 entry
// search resolves (the engine's cache-fill probe).
func (f *Structure) EntryProbe(v tree.NodeID, y catalog.Key) int {
	return f.succ(v, y)
}

// EntryInterval is core.EntryInterval on the flat layout: the (lo, hi]
// key interval of queries sharing entry position pos at node v.
func (f *Structure) EntryInterval(v tree.NodeID, pos int) (lo, hi catalog.Key, err error) {
	if v < 0 || v >= f.n {
		return 0, 0, fmt.Errorf("flat: node %d out of range [0, %d)", v, f.n)
	}
	if pos < 0 || pos >= f.catLen(v) {
		return 0, 0, fmt.Errorf("flat: entry position %d outside catalog of node %d (len %d)", pos, v, f.catLen(v))
	}
	base := int(f.catStart[v])
	lo = catalog.MinusInf
	if pos > 0 {
		lo = f.keys[base+pos-1]
	}
	return lo, f.keys[base+pos], nil
}
