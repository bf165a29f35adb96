package core

import (
	"fmt"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// Config controls preprocessing.
type Config struct {
	// NoTruncation builds every substructure over the full tree depth, as
	// required for the long-path searches of Theorem 2 (which visit nodes
	// far below level log n). It costs up to a log log n space factor,
	// which Theorem 2's O(n) claim absorbs by building only the needed
	// substructures; see MaxSubs.
	NoTruncation bool
	// MaxSubs limits the number of substructures T_i built (0 = all
	// ⌈log log n⌉ of them). Useful with NoTruncation to keep space linear
	// when the query processor range is known in advance.
	MaxSubs int
	// HOverride, when non-nil, replaces the derived hop height h_i for
	// substructure i by HOverride(i) (values < 1 fall back to the derived
	// value). Used by the ablation benchmarks to sweep the hop height.
	HOverride func(i int) int
	// Sequential disables host-level parallelism during construction.
	Sequential bool
	// Parallelism bounds the host workers used for construction: 0 selects
	// all cores, 1 is sequential, higher values are taken literally.
	// Sequential forces 1. The built structure is identical for every value
	// (only wall time changes), so the knob is not persisted in snapshots —
	// restored structures adopt whatever the restoring host asks for.
	Parallelism int
	// CascadeOptions tunes the underlying fractional cascading build.
	// Bidirectional is forced on: Lemma 1 requires the bidirectional
	// structure.
	CascadeStride int
}

// Structure is the preprocessed cooperative search structure T′ of
// Theorem 1: the fractional cascaded tree S plus the search substructures
// T_0, …, T_{⌈log log n⌉−1}.
type Structure struct {
	s      *cascade.Structure
	t      *tree.Tree
	params Params
	subs   []*Substructure
	cfg    Config
}

// Substructure is one T_i: a partition of the truncated tree into height-h
// blocks, each carrying a forest of sampled skeleton trees.
type Substructure struct {
	// I is the substructure index.
	I int
	// H is the hop (block) height h_i.
	H int
	// S is the sampling stride s_i.
	S int
	// TruncDepth is the deepest covered level.
	TruncDepth int
	// blockOf[v] indexes blocks for block-root nodes, −1 otherwise.
	blockOf []int32
	blocks  []Block
	// SkeletonSlots counts stored skeleton key positions (Lemma 2 space).
	SkeletonSlots int64
}

// Block is one height-h subtree U of the partition, with its skeleton
// forest U_1, …, U_m.
type Block struct {
	// Root is the block's root node in the global tree.
	Root tree.NodeID
	// Nodes lists the block's nodes in BFS order (Nodes[0] == Root);
	// within each level nodes appear left to right.
	Nodes []tree.NodeID
	// Children holds, per local node index, the local indices of its
	// children inside the block (empty at block leaves).
	Children [][]int32
	// Parent holds the local parent index (−1 for the root).
	Parent []int32
	// Level holds each local node's depth within the block.
	Level []int8
	// Height is the block's height (levels 0..Height present).
	Height int
	// M is the number of skeleton trees; M == 1 with a sparse root when
	// the root catalog is too small to sample (key +∞).
	M int
	// Sparse reports the M == 1 too-small-to-sample case.
	Sparse bool
	// KeyPos[j][z] is the position in Aug(Nodes[z]) of skeleton tree U_j's
	// key at local node z (Fig. 3). KeyPos[j][0] is the sampled root
	// position; descendants follow bridges.
	KeyPos [][]int32
}

// Build preprocesses tree t with the given native catalogs into T′.
func Build(t *tree.Tree, native []catalog.Catalog, cfg Config) (*Structure, error) {
	s, err := cascade.Build(t, native, cascade.Options{
		Stride:        cfg.CascadeStride,
		Sequential:    cfg.Sequential,
		Parallelism:   cfg.Parallelism,
		Bidirectional: true,
	})
	if err != nil {
		return nil, err
	}
	return BuildFromCascade(s, cfg)
}

// BuildFromCascade builds T′ on top of an existing bidirectional cascade
// structure.
func BuildFromCascade(s *cascade.Structure, cfg Config) (*Structure, error) {
	if !s.Bidirectional() {
		return nil, fmt.Errorf("core: cascade structure must be bidirectional (Lemma 1)")
	}
	t := s.Tree()
	n := int(s.Stats().NativeEntries)
	params := deriveParams(s.B(), n)
	numSubs := params.NumSubs
	if cfg.MaxSubs > 0 && cfg.MaxSubs < numSubs {
		numSubs = cfg.MaxSubs
	}
	st := &Structure{s: s, t: t, params: params, cfg: cfg}
	for i := 0; i < numSubs; i++ {
		h := params.HopHeight(i)
		if cfg.HOverride != nil {
			if o := cfg.HOverride(i); o >= 1 {
				h = o
			}
		}
		trunc := params.TruncDepth(i, t.Height())
		if cfg.NoTruncation {
			trunc = t.Height()
		}
		sub := &Substructure{
			I:          i,
			H:          h,
			S:          params.SampleStride(h),
			TruncDepth: trunc,
			blockOf:    make([]int32, t.N()),
		}
		for v := range sub.blockOf {
			sub.blockOf[v] = -1
		}
		st.buildSubstructure(sub)
		st.subs = append(st.subs, sub)
	}
	return st, nil
}

// buildSubstructure partitions the truncated tree into height-h blocks
// rooted at depths 0, h, 2h, … and builds each block's skeleton forest.
func (st *Structure) buildSubstructure(sub *Substructure) {
	roots := st.blockRoots(sub)
	sub.blocks = make([]Block, len(roots))
	par := st.cfg.Parallelism
	if st.cfg.Sequential {
		par = 1
	}
	workpool.ForEach(par, len(roots), 4, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			sub.blocks[bi] = st.buildBlock(roots[bi], sub.H, sub.TruncDepth, sub.S)
		}
	})
	for bi := range sub.blocks {
		sub.blockOf[roots[bi]] = int32(bi)
		sub.SkeletonSlots += int64(sub.blocks[bi].M) * int64(len(sub.blocks[bi].Nodes))
	}
}

// blockRoots collects the block roots of a substructure: nodes at depth
// ≡ 0 (mod h), strictly above the truncation boundary, in level order.
func (st *Structure) blockRoots(sub *Substructure) []tree.NodeID {
	t := st.t
	var roots []tree.NodeID
	for _, v := range t.LevelOrder() {
		d := t.Depth(v)
		if d >= sub.TruncDepth {
			continue
		}
		if d%sub.H == 0 && !t.IsLeaf(v) {
			roots = append(roots, v)
		}
	}
	return roots
}

// blockTopology collects by BFS the block rooted at u with height
// min(h, trunc − depth(u)): its nodes, local parent/child links, and
// levels. The skeleton forest (M, Sparse, KeyPos) is filled in separately
// by buildBlock or, on snapshot import, validated against stored state.
func (st *Structure) blockTopology(u tree.NodeID, h, trunc int) Block {
	t := st.t
	baseDepth := t.Depth(u)
	maxLevel := h
	if baseDepth+maxLevel > trunc {
		maxLevel = trunc - baseDepth
	}
	b := Block{Root: u}
	b.Nodes = append(b.Nodes, u)
	b.Parent = append(b.Parent, -1)
	b.Level = append(b.Level, 0)
	for qi := 0; qi < len(b.Nodes); qi++ {
		v := b.Nodes[qi]
		lvl := b.Level[qi]
		b.Children = append(b.Children, nil)
		if int(lvl) >= maxLevel {
			continue
		}
		for _, c := range t.Children(v) {
			b.Children[qi] = append(b.Children[qi], int32(len(b.Nodes)))
			b.Nodes = append(b.Nodes, c)
			b.Parent = append(b.Parent, int32(qi))
			b.Level = append(b.Level, lvl+1)
		}
	}
	b.Height = maxLevel
	return b
}

// buildBlock builds one block rooted at u with height min(h, trunc −
// depth(u)) and its skeleton forest with stride s.
func (st *Structure) buildBlock(u tree.NodeID, h, trunc, s int) Block {
	b := st.blockTopology(u, h, trunc)
	// Skeleton forest: sample the root catalog with stride s.
	tLen := st.s.Aug(u).Len()
	m := tLen / s
	if m < 1 {
		m = 1
		b.Sparse = true
	}
	b.M = m
	b.KeyPos = make([][]int32, m)
	for j := 0; j < m; j++ {
		kp := make([]int32, len(b.Nodes))
		if j < m-1 {
			kp[0] = int32((j+1)*s - 1)
		} else {
			kp[0] = int32(tLen - 1) // +∞ terminal (sparse root when m == 1)
		}
		// Induce descendant keys via bridges (key[w,U_j] = bridge of
		// key[parent, U_j]); BFS order guarantees parents precede children.
		for z := 0; z < len(b.Nodes); z++ {
			v := b.Nodes[z]
			for ci, cz := range b.Children[z] {
				kp[cz] = int32(st.s.BridgePos(v, ci, int(kp[z])))
			}
		}
		b.KeyPos[j] = kp
	}
	return b
}

// Params returns the derived construction constants.
func (st *Structure) Params() Params { return st.params }

// Cascade returns the underlying fractional cascaded structure S.
func (st *Structure) Cascade() *cascade.Structure { return st.s }

// Tree returns the underlying tree.
func (st *Structure) Tree() *tree.Tree { return st.t }

// NumSubstructures returns how many T_i were built.
func (st *Structure) NumSubstructures() int { return len(st.subs) }

// Substructure returns T_i.
func (st *Structure) Substructure(i int) *Substructure { return st.subs[i] }

// SelectSub returns the substructure index used for p processors, clamped
// to the built range.
func (st *Structure) SelectSub(p int) int {
	i := st.params.SubstructureFor(p)
	if i >= len(st.subs) {
		i = len(st.subs) - 1
	}
	return i
}

// BlockAt returns the block rooted at node v in substructure i, or nil.
func (sub *Substructure) BlockAt(v tree.NodeID) *Block {
	bi := sub.blockOf[v]
	if bi < 0 {
		return nil
	}
	return &sub.blocks[bi]
}

// Blocks exposes all blocks of the substructure (read-only).
func (sub *Substructure) Blocks() []Block { return sub.blocks }

// SpaceReport summarises memory for the Lemma 2 experiment.
type SpaceReport struct {
	// NativeEntries is the paper's n.
	NativeEntries int64
	// AugEntries is the size of the cascaded structure S.
	AugEntries int64
	// PerSub[i] is the number of skeleton slots stored by T_i.
	PerSub []int64
	// SkeletonSlots is the total over all substructures.
	SkeletonSlots int64
}

// SpaceReport measures the structure's space in entry/slot units.
func (st *Structure) SpaceReport() SpaceReport {
	r := SpaceReport{
		NativeEntries: st.s.Stats().NativeEntries,
		AugEntries:    st.s.Stats().AugEntries,
	}
	for _, sub := range st.subs {
		r.PerSub = append(r.PerSub, sub.SkeletonSlots)
		r.SkeletonSlots += sub.SkeletonSlots
	}
	return r
}
