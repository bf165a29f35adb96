// Package flat holds the zero-allocation flat-memory encoding of the
// cooperative search structure: the bridged catalog graph, the separator
// tree, and the per-substructure skeleton forests of internal/core,
// rebuilt as index-based structure-of-arrays slices (int32 indices, no
// pointers, one backing slice per field).
//
// The layout is produced from a built *core.Structure by Freeze and serves
// two query paths:
//
//   - SearchPathInto: the sequential fractional cascading walk (one binary
//     search at the root, then constant-time bridge descents), the
//     wall-clock hot path. It performs zero heap allocations per query.
//   - SearchExplicitInto: a bit-exact replica of core.SearchExplicit — same
//     hop machinery, same Stats (steps, rounds, hops, slots) — so a flat
//     structure can stand in for the pointer structure anywhere the
//     simulated PRAM cost model is observed (the engine, the benchmarks).
//
// The encoding round-trips through MarshalBinary/UnmarshalBinary with a
// bounds-validated decoder (corrupt input yields an error, never a panic),
// which is the substrate for the snapshot sidecar of internal/snapshot.
//
// The native "executor" counterpart to the simulated PRAM executors of
// internal/pram is a workpool.Pool running batches of SearchPathInto.
package flat

import (
	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/tree"
)

// Structure is the frozen flat encoding. All slices are append-free after
// Freeze/UnmarshalBinary; queries only read. Positions are catalog-local
// (position p of node v addresses keys[catStart[v]+p]), matching the
// pointer structure's convention so results compare field for field.
type Structure struct {
	params core.Params
	root   int32
	n      int32

	// Separator tree (SoA): children of v occupy
	// children[childStart[v]:childStart[v+1]] in sibling order.
	parent     []int32
	depth      []int32
	childStart []int32
	children   []int32

	// Augmented catalogs, node-major: node v's entries occupy
	// [catStart[v], catStart[v+1]) of keys/payloads/nativeSucc.
	// nativeSucc is catalog-local (like catalog.Entry.NativeSucc).
	catStart   []int32
	keys       []catalog.Key
	payloads   []int32
	nativeSucc []int32

	// Bridges, edge-major: edge slot e = childStart[v]+ci carries the
	// bridge vector bridges[bridgeStart[e]:bridgeStart[e+1]] (one target
	// position per entry of v's catalog).
	bridgeStart []int32
	bridges     []int32

	// Substructures T_i, mirroring core.Substructure/core.Block.
	subs []flatSub
}

// flatSub is one flattened search substructure: the block partition and
// every block's skeleton forest, SoA across blocks. A block's local nodes
// occupy the slot range [blockStart[b], blockStart[b+1]); slot s's local
// children are blockChildren[blockChildStart[s]:blockChildStart[s+1]]
// (values are block-local node indices). KeyPos is row-major per block:
// tree j's position at local node z is keyPos[keyPosStart[b] + j*L + z]
// where L is the block's node count.
type flatSub struct {
	h, s, truncDepth int32

	blockOf []int32 // per tree node: block index or −1

	blockStart      []int32
	blockHeight     []int32
	blockM          []int32
	blockChildStart []int32
	blockChildren   []int32
	keyPosStart     []int32
	keyPos          []int32
}

// Params returns the construction constants carried over from the source
// structure.
func (f *Structure) Params() core.Params { return f.params }

// Root returns the tree root.
func (f *Structure) Root() tree.NodeID { return f.root }

// NumNodes returns the separator tree's node count.
func (f *Structure) NumNodes() int { return int(f.n) }

// NumSubstructures returns how many T_i were frozen.
func (f *Structure) NumSubstructures() int { return len(f.subs) }

// catLen returns node v's augmented catalog length.
func (f *Structure) catLen(v int32) int {
	return int(f.catStart[v+1] - f.catStart[v])
}

// degree returns node v's child count.
func (f *Structure) degree(v int32) int {
	return int(f.childStart[v+1] - f.childStart[v])
}

// childIndex returns the rank of child c among v's children, or −1
// (tree.ChildIndex on the flat layout).
func (f *Structure) childIndex(v, c int32) int {
	lo, hi := f.childStart[v], f.childStart[v+1]
	for i := lo; i < hi; i++ {
		if f.children[i] == c {
			return int(i - lo)
		}
	}
	return -1
}

// succ returns the catalog-local position of the smallest entry of v with
// key ≥ y (catalog.Succ, hand-rolled so the hot path allocates nothing).
func (f *Structure) succ(v int32, y catalog.Key) int {
	base := int(f.catStart[v])
	lo, hi := base, int(f.catStart[v+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.keys[mid] >= y {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - base
}

// succInWindow is catalog.SuccInWindow on the flat layout: the smallest
// entry ≥ y within catalog-local positions [lo, hi] (clamped), or hi+1 if
// the clamped window misses.
func (f *Structure) succInWindow(v int32, y catalog.Key, lo, hi int) int {
	n := f.catLen(v)
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	if lo > hi {
		return hi + 1
	}
	base := int(f.catStart[v])
	a, b := base+lo, base+hi+1
	for a < b {
		mid := int(uint(a+b) >> 1)
		if f.keys[mid] >= y {
			b = mid
		} else {
			a = mid + 1
		}
	}
	return a - base
}

// descend converts the successor position pos of y at v into the successor
// position at v's ci-th child: bridge, then at most B left steps
// (cascade.Descend on the flat layout).
func (f *Structure) descend(y catalog.Key, v int32, ci, pos int) int {
	e := int(f.childStart[v]) + ci
	w := f.children[e]
	j := int(f.bridges[int(f.bridgeStart[e])+pos])
	base := int(f.catStart[w])
	for j > 0 && f.keys[base+j-1] >= y {
		j--
	}
	return j
}

// resultAt materialises find(y, v) from the successor position
// (cascade.ResultAt on the flat layout).
func (f *Structure) resultAt(v int32, pos int) cascade.Result {
	base := int(f.catStart[v])
	ns := base + int(f.nativeSucc[base+pos])
	return cascade.Result{Node: v, AugPos: pos, Key: f.keys[ns], Payload: f.payloads[ns]}
}

// CatalogLen returns node v's augmented catalog length — the exported
// counterpart of catLen for the frozen backends layered on top of the
// catalog structure (rangetree, segtree).
func (f *Structure) CatalogLen(v tree.NodeID) int { return f.catLen(v) }

// IsNative reports whether entry pos of node v's augmented catalog is a
// native entry. Native entries are exactly the self-referencing ones:
// catalog.FromEntries pins NativeSucc == own index for natives and a
// strictly later index for dummies.
func (f *Structure) IsNative(v tree.NodeID, pos int) bool {
	return f.nativeSucc[int(f.catStart[v])+pos] == int32(pos)
}

// PayloadAt returns the raw payload stored at entry pos of node v's
// augmented catalog (catalog.At(pos).Payload, not the native-successor
// resolution of resultAt).
func (f *Structure) PayloadAt(v tree.NodeID, pos int) int32 {
	return f.payloads[int(f.catStart[v])+pos]
}

// DescendPos is cascade.Descend on the flat layout with the walk count
// dropped: the successor position of y at v's ci-th child, reached via the
// bridge and at most B left steps. Zero allocations.
func (f *Structure) DescendPos(y catalog.Key, v tree.NodeID, ci, pos int) int {
	return f.descend(y, v, ci, pos)
}

// ChildIndexOf returns the rank of child c among v's children, or −1.
func (f *Structure) ChildIndexOf(v, c tree.NodeID) int { return f.childIndex(v, c) }

// ParentOf returns v's parent, or tree.Nil at the root.
func (f *Structure) ParentOf(v tree.NodeID) tree.NodeID { return f.parent[v] }

// AppendRootPath appends the root-to-v path to buf and returns it
// (tree.RootPath into a caller-owned buffer, so steady-state callers
// allocate nothing).
func (f *Structure) AppendRootPath(v tree.NodeID, buf []tree.NodeID) []tree.NodeID {
	start := len(buf)
	for u := v; u != -1; u = f.parent[u] {
		buf = append(buf, u)
	}
	// Reverse the appended suffix in place: parent walk yields leaf-first.
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}
