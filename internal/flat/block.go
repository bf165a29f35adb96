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

// Block is caller-owned scratch for FindAllInBlock: one block's nodes in
// block-local BFS order (local 0 is the block root), each with its level
// in the block and its find(y, ·) position. The slices grow to the largest
// block seen and are then reused, so a warm Block allocates nothing.
type Block struct {
	Nodes   []tree.NodeID
	Level   []int32
	FindPos []int32
	// Height is the block's height: its leaves sit at level Height.
	Height int

	sub      *flatSub
	slotBase int
}

// Children returns the block-local indices of local node z's children, in
// sibling order; empty at the block's leaves.
func (b *Block) Children(z int32) []int32 {
	s := b.slotBase + int(z)
	return b.sub.blockChildren[b.sub.blockChildStart[s]:b.sub.blockChildStart[s+1]]
}

// FindAllInBlock is core.Structure.FindAllInBlock on the flat layout. From
// the successor position pos of y at block root v, it resolves find(y, ·)
// at every node of the block v roots in substructure si through the
// Lemma 3 window recurrence, writes the block into b and returns the
// processor-slot demand. The layout stores neither node ids nor levels per
// block, so both are derived from the block-local child lists on the way
// down (BFS order puts every parent before its children). v must satisfy
// HopBlock(si, v).
func (f *Structure) FindAllInBlock(si int, v tree.NodeID, y catalog.Key, pos int, b *Block) (int64, error) {
	sub := &f.subs[si]
	bi := sub.blockOf[v]
	if bi < 0 {
		return 0, fmt.Errorf("flat: node %d roots no block of substructure %d", v, si)
	}
	slotBase := int(sub.blockStart[bi])
	n := int(sub.blockStart[bi+1]) - slotBase
	if cap(b.Nodes) < n {
		b.Nodes = make([]tree.NodeID, n)
		b.Level = make([]int32, n)
		b.FindPos = make([]int32, n)
	}
	b.Nodes, b.Level, b.FindPos = b.Nodes[:n], b.Level[:n], b.FindPos[:n]
	b.Height, b.sub, b.slotBase = int(sub.blockHeight[bi]), sub, slotBase

	kpRow, offset := sub.sample(bi, pos)
	b.Nodes[0], b.Level[0], b.FindPos[0] = v, 0, int32(pos)
	slots := int64(sub.s)
	// Window slack per block level (identical recurrence for all nodes of
	// a level, seeded by the Step-2 sampling offset).
	lo := -offset
	curLevel := int32(0)
	for z := 0; z < n; z++ {
		u := b.Nodes[z]
		if z > 0 {
			if b.Level[z] != curLevel {
				curLevel = b.Level[z]
				lo = f.params.WindowLo(lo)
			}
			anchor := int(sub.keyPos[kpRow+z])
			winLo, winHi := anchor+lo, anchor
			found := f.succInWindow(u, y, winLo, winHi)
			if found > winHi || found >= f.catLen(u) {
				return 0, fmt.Errorf("flat: Lemma 3 window [%d,%d] missed find(y,%d) (y=%d)", winLo, winHi, u, y)
			}
			b.FindPos[z] = int32(found)
			slots += int64(winHi - max(0, winLo) + 1)
		}
		for ci, c := range b.Children(int32(z)) {
			if int(c) <= z || ci >= f.degree(u) {
				return 0, fmt.Errorf("flat: block %d of substructure %d is not in BFS order at local node %d", bi, si, z)
			}
			b.Nodes[c] = f.Child(u, ci)
			b.Level[c] = b.Level[z] + 1
		}
	}
	return slots, nil
}
