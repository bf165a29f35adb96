package flat

import (
	"fmt"
	"math"
	"sync"

	"fraccascade/internal/core"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// Freeze re-encodes a built cooperative search structure into the flat
// layout. Every slice is allocated exactly once at its final size (the
// allocation-guard tests bound the total at a small constant per
// substructure), and every index is range-checked against int32 before it
// is narrowed, so a structure too large for the encoding fails loudly
// instead of wrapping.
func Freeze(st *core.Structure) (*Structure, error) {
	return freeze(st, 1)
}

// FreezeParallel is Freeze with the heavy per-node fills (catalog entries,
// bridge targets, substructure skeletons) fanned out over parallelism host
// workers (0 = all cores). Offsets are computed in a cheap sequential
// prefix pass and each worker writes only its nodes' segments, so the
// frozen structure is bit-identical to Freeze's for every parallelism
// value.
func FreezeParallel(st *core.Structure, parallelism int) (*Structure, error) {
	return freeze(st, parallelism)
}

func freeze(st *core.Structure, par int) (*Structure, error) {
	t := st.Tree()
	s := st.Cascade()
	n := t.N()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("flat: %d nodes exceed int32", n)
	}

	f := &Structure{
		params:     st.Params(),
		root:       t.Root(),
		n:          int32(n),
		parent:     make([]int32, n),
		depth:      make([]int32, n),
		childStart: make([]int32, n+1),
	}

	// Tree: children flattened in sibling order (cheap, stays sequential).
	totalChildren := 0
	for v := 0; v < n; v++ {
		totalChildren += len(t.Children(tree.NodeID(v)))
	}
	f.children = make([]int32, totalChildren)
	off := 0
	for v := 0; v < n; v++ {
		f.parent[v] = t.Parent(tree.NodeID(v))
		f.depth[v] = int32(t.Depth(tree.NodeID(v)))
		f.childStart[v] = int32(off)
		for _, c := range t.Children(tree.NodeID(v)) {
			f.children[off] = c
			off++
		}
	}
	f.childStart[n] = int32(off)

	// Catalogs: node-major SoA over every augmented entry. catStart doubles
	// as the prefix table, so the entry fill parallelizes per node.
	totalEntries := 0
	for v := 0; v < n; v++ {
		totalEntries += s.Aug(tree.NodeID(v)).Len()
	}
	if totalEntries > math.MaxInt32 {
		return nil, fmt.Errorf("flat: %d catalog entries exceed int32", totalEntries)
	}
	f.catStart = make([]int32, n+1)
	f.keys = make([]int64, totalEntries)
	f.payloads = make([]int32, totalEntries)
	f.nativeSucc = make([]int32, totalEntries)
	off = 0
	for v := 0; v < n; v++ {
		f.catStart[v] = int32(off)
		off += s.Aug(tree.NodeID(v)).Len()
	}
	f.catStart[n] = int32(off)
	workpool.ForEach(par, n, 64, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			o := int(f.catStart[v])
			for _, e := range s.Aug(tree.NodeID(v)).Entries() {
				f.keys[o] = e.Key
				f.payloads[o] = e.Payload
				f.nativeSucc[o] = e.NativeSucc
				o++
			}
		}
	})

	// Bridges: edge slot e = childStart[v]+ci carries one target per entry
	// of v's catalog. bridgeStart is the prefix table for the parallel fill.
	totalBridges := 0
	for v := 0; v < n; v++ {
		totalBridges += len(t.Children(tree.NodeID(v))) * s.Aug(tree.NodeID(v)).Len()
	}
	if totalBridges > math.MaxInt32 {
		return nil, fmt.Errorf("flat: %d bridge slots exceed int32", totalBridges)
	}
	f.bridgeStart = make([]int32, totalChildren+1)
	f.bridges = make([]int32, totalBridges)
	off = 0
	for v := 0; v < n; v++ {
		catLen := s.Aug(tree.NodeID(v)).Len()
		for ci := range t.Children(tree.NodeID(v)) {
			f.bridgeStart[int(f.childStart[v])+ci] = int32(off)
			off += catLen
		}
	}
	f.bridgeStart[totalChildren] = int32(off)
	workpool.ForEach(par, n, 16, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			catLen := s.Aug(tree.NodeID(v)).Len()
			for ci := range t.Children(tree.NodeID(v)) {
				o := int(f.bridgeStart[int(f.childStart[v])+ci])
				for pos := 0; pos < catLen; pos++ {
					f.bridges[o] = int32(s.BridgePos(tree.NodeID(v), ci, pos))
					o++
				}
			}
		}
	})

	// Substructures freeze independently; report the lowest failing index
	// so the error matches the sequential scan.
	f.subs = make([]flatSub, st.NumSubstructures())
	var (
		errMu  sync.Mutex
		errIdx = len(f.subs)
		errVal error
	)
	workpool.ForEach(par, len(f.subs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := freezeSub(&f.subs[i], st.Substructure(i), n); err != nil {
				errMu.Lock()
				if i < errIdx {
					errIdx, errVal = i, err
				}
				errMu.Unlock()
				return
			}
		}
	})
	if errVal != nil {
		return nil, errVal
	}
	return f, nil
}

// freezeSub flattens one substructure's block partition and skeleton
// forests.
func freezeSub(fs *flatSub, sub *core.Substructure, n int) error {
	blocks := sub.Blocks()
	fs.h = int32(sub.H)
	fs.s = int32(sub.S)
	fs.truncDepth = int32(sub.TruncDepth)

	fs.blockOf = make([]int32, n)
	for v := range fs.blockOf {
		fs.blockOf[v] = -1
	}
	totalSlots, totalLocalChildren, totalKeyPos := 0, 0, 0
	for bi := range blocks {
		b := &blocks[bi]
		fs.blockOf[b.Root] = int32(bi)
		totalSlots += len(b.Nodes)
		for _, ch := range b.Children {
			totalLocalChildren += len(ch)
		}
		totalKeyPos += b.M * len(b.Nodes)
	}
	if totalKeyPos > math.MaxInt32 {
		return fmt.Errorf("flat: substructure %d: %d skeleton slots exceed int32", sub.I, totalKeyPos)
	}

	nb := len(blocks)
	fs.blockStart = make([]int32, nb+1)
	fs.blockHeight = make([]int32, nb)
	fs.blockM = make([]int32, nb)
	fs.blockChildStart = make([]int32, totalSlots+1)
	fs.blockChildren = make([]int32, totalLocalChildren)
	fs.keyPosStart = make([]int32, nb+1)
	fs.keyPos = make([]int32, totalKeyPos)

	slot, chOff, kpOff := 0, 0, 0
	for bi := range blocks {
		b := &blocks[bi]
		fs.blockStart[bi] = int32(slot)
		fs.blockHeight[bi] = int32(b.Height)
		fs.blockM[bi] = int32(b.M)
		fs.keyPosStart[bi] = int32(kpOff)
		for z := range b.Nodes {
			fs.blockChildStart[slot+z] = int32(chOff)
			for _, c := range b.Children[z] {
				fs.blockChildren[chOff] = c
				chOff++
			}
		}
		slot += len(b.Nodes)
		for j := 0; j < b.M; j++ {
			copy(fs.keyPos[kpOff:kpOff+len(b.Nodes)], b.KeyPos[j])
			kpOff += len(b.Nodes)
		}
	}
	fs.blockStart[nb] = int32(slot)
	fs.blockChildStart[totalSlots] = int32(chOff)
	fs.keyPosStart[nb] = int32(kpOff)
	return nil
}
