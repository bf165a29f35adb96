package flat

import (
	"fmt"

	"fraccascade/internal/catalog"
	"fraccascade/internal/tree"
)

// IsLeaf reports whether node v has no children.
func (f *Structure) IsLeaf(v tree.NodeID) bool { return f.childStart[v+1] == f.childStart[v] }

// Child returns node v's ci-th child in sibling order.
func (f *Structure) Child(v tree.NodeID, ci int) tree.NodeID {
	return f.children[int(f.childStart[v])+ci]
}

// NativeResult is catalog.NativeResult on node v's augmented catalog: the
// key and payload of the smallest native entry at or after position pos.
func (f *Structure) NativeResult(v tree.NodeID, pos int) (catalog.Key, int32) {
	base := int(f.catStart[v])
	ns := base + int(f.nativeSucc[base+pos])
	return f.keys[ns], f.payloads[ns]
}

// HopBlock reports whether a search in substructure si hops through a
// block at node v: v roots a block and lies above the truncation depth
// (core's BlockAt(v) != nil && Depth(v) < TruncDepth). Otherwise the
// search descends from v by one sequential level.
func (f *Structure) HopBlock(si int, v tree.NodeID) bool {
	sub := &f.subs[si]
	return sub.blockOf[v] >= 0 && f.depth[v] < sub.truncDepth
}

// Block is caller-owned scratch for OpenBlock: one block's nodes in
// block-local BFS order (local 0 is the block root), each with its checked
// Lemma 3 window for the query key. The slices grow to the largest block
// seen and are then reused, so a warm Block allocates nothing.
type Block struct {
	Nodes []tree.NodeID
	// Height is the block's height: its leaves sit at level Height.
	Height int

	// level is each local node's level, [lo, hi] its checked window (the
	// entry position alone at the root).
	level, lo, hi []int32
	y             catalog.Key
	sub           *flatSub
	slotBase      int
}

// Children returns the block-local indices of local node z's children, in
// sibling order; empty at the block's leaves.
func (b *Block) Children(z int32) []int32 {
	s := b.slotBase + int(z)
	return b.sub.blockChildren[b.sub.blockChildStart[s]:b.sub.blockChildStart[s+1]]
}

// OpenBlock runs the find(y, ·) half of a hop through the block v roots in
// substructure si, from the successor position pos of y at v, and returns
// the processor-slot demand core.FindAllInBlock reports for it. It samples
// the skeleton tree for pos (Step 2), derives the block's node ids from
// the block-local child lists (BFS order puts every parent before its
// children; the layout stores neither ids nor levels per block) and checks
// every node's Lemma 3 window in O(1): the window, clamped to the node's
// catalog, must be non-empty and end at a key ≥ y, which is exactly when a
// search of it lands on find(y, ·). It searches no window; FindInBlock
// does, for the nodes a caller visits. v must satisfy HopBlock(si, v).
func (f *Structure) OpenBlock(si int, v tree.NodeID, y catalog.Key, pos int, b *Block) (int64, error) {
	sub := &f.subs[si]
	bi := sub.blockOf[v]
	if bi < 0 {
		return 0, fmt.Errorf("flat: node %d roots no block of substructure %d", v, si)
	}
	slotBase := int(sub.blockStart[bi])
	n := int(sub.blockStart[bi+1]) - slotBase
	if cap(b.Nodes) < n {
		b.Nodes = make([]tree.NodeID, n)
		b.level, b.lo, b.hi = make([]int32, n), make([]int32, n), make([]int32, n)
	}
	b.Nodes, b.level, b.lo, b.hi = b.Nodes[:n], b.level[:n], b.lo[:n], b.hi[:n]
	b.Height, b.y, b.sub, b.slotBase = int(sub.blockHeight[bi]), y, sub, slotBase

	kpRow, offset := sub.sample(bi, pos)
	b.Nodes[0], b.level[0], b.lo[0], b.hi[0] = v, 0, int32(pos), int32(pos)
	slots := int64(sub.s)
	// Window slack per block level (identical recurrence for all nodes of
	// a level, seeded by the Step-2 sampling offset).
	lo := -offset
	curLevel := int32(0)
	for z := 0; z < n; z++ {
		u := b.Nodes[z]
		if z > 0 {
			if b.level[z] != curLevel {
				curLevel = b.level[z]
				lo = f.params.WindowLo(lo)
			}
			anchor := int(sub.keyPos[kpRow+z])
			winLo, winHi := anchor+lo, anchor
			if !f.windowHolds(u, y, winLo, winHi) {
				return 0, fmt.Errorf("flat: Lemma 3 window [%d,%d] missed find(y,%d) (y=%d)", winLo, winHi, u, y)
			}
			b.lo[z], b.hi[z] = int32(winLo), int32(winHi)
			slots += int64(winHi - max(0, winLo) + 1)
		}
		for ci, c := range b.Children(int32(z)) {
			if int(c) <= z || ci >= f.degree(u) {
				return 0, fmt.Errorf("flat: block %d of substructure %d is not in BFS order at local node %d", bi, si, z)
			}
			b.Nodes[c] = f.Child(u, ci)
			b.level[c] = b.level[z] + 1
		}
	}
	return slots, nil
}

// windowHolds reports whether node v's window [lo, hi], clamped to its
// catalog, is non-empty and ends at a key ≥ y. That is exactly when
// succInWindow(v, y, lo, hi) lands at or before both hi and the catalog's
// last position.
func (f *Structure) windowHolds(v int32, y catalog.Key, lo, hi int) bool {
	lo, hi = max(lo, 0), min(hi, f.catLen(v)-1)
	return lo <= hi && f.keys[int(f.catStart[v])+hi] >= y
}

// FindInBlock returns find(y, ·)'s successor position at local node z of
// the block b was last opened on: a search of z's checked window.
func (f *Structure) FindInBlock(b *Block, z int32) int {
	return f.succInWindow(b.Nodes[z], b.y, int(b.lo[z]), int(b.hi[z]))
}
