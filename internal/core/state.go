package core

import (
	"fmt"
	"sync"

	"fraccascade/internal/cascade"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// ConfigState is the serializable subset of Config. HOverride is a
// function value and cannot be persisted; ExportState refuses structures
// built with one.
type ConfigState struct {
	NoTruncation  bool
	MaxSubs       int
	Sequential    bool
	CascadeStride int
}

// Config reconstitutes the build configuration the state describes.
func (c ConfigState) Config() Config {
	return Config{
		NoTruncation:  c.NoTruncation,
		MaxSubs:       c.MaxSubs,
		Sequential:    c.Sequential,
		CascadeStride: c.CascadeStride,
	}
}

// BlockState is the persisted skeleton of one block. The topology (nodes,
// local links, levels) is reconstructed from the tree at import; only the
// root — kept as a corruption tripwire — and the skeleton key positions
// are stored.
type BlockState struct {
	Root   tree.NodeID
	KeyPos [][]int32
}

// SubState is the persisted shape of one substructure T_i. Hop height,
// stride, and truncation depth are derived from the params at import.
type SubState struct {
	Blocks []BlockState
}

// State is the persisted shape of a Structure minus the underlying cascade,
// which is serialized separately (see cascade.ExportParts).
type State struct {
	Cfg  ConfigState
	Subs []SubState
}

// Config returns the configuration the structure was built with.
func (st *Structure) Config() Config { return st.cfg }

// ExportState returns the structure's built state for serialization.
// KeyPos slices alias the live blocks; callers must treat them as
// read-only.
func (st *Structure) ExportState() (State, error) {
	if st.cfg.HOverride != nil {
		return State{}, fmt.Errorf("core: structures built with Config.HOverride cannot be exported")
	}
	out := State{Cfg: ConfigState{
		NoTruncation:  st.cfg.NoTruncation,
		MaxSubs:       st.cfg.MaxSubs,
		Sequential:    st.cfg.Sequential,
		CascadeStride: st.cfg.CascadeStride,
	}}
	for _, sub := range st.subs {
		ss := SubState{Blocks: make([]BlockState, len(sub.blocks))}
		for bi := range sub.blocks {
			b := &sub.blocks[bi]
			ss.Blocks[bi] = BlockState{Root: b.Root, KeyPos: b.KeyPos}
		}
		out.Subs = append(out.Subs, ss)
	}
	return out, nil
}

// FromParts reassembles a Structure over an already-restored cascade
// structure. Everything derivable — params, hop heights, strides,
// truncation depths, block roots, and block topology — is recomputed from
// the cascade and the config and cross-checked against the stored state:
// a mismatched block count or root, a wrong skeleton shape, or an
// out-of-range key position is reported as an error, never as a later
// panic or a silently wrong answer.
func FromParts(s *cascade.Structure, state State) (*Structure, error) {
	return FromPartsParallel(s, state, 1)
}

// FromPartsParallel is FromParts with the per-block topology rebuild and
// skeleton validation fanned out over parallelism host workers (0 = all
// cores). Blocks import independently, so the outcome is identical for
// every parallelism value; when several blocks are invalid, the error for
// the lowest block index is reported, matching the sequential scan.
func FromPartsParallel(s *cascade.Structure, state State, parallelism int) (*Structure, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil cascade structure")
	}
	if !s.Bidirectional() {
		return nil, fmt.Errorf("core: cascade structure must be bidirectional (Lemma 1)")
	}
	cfg := state.Cfg.Config()
	t := s.Tree()
	n := int(s.Stats().NativeEntries)
	params := deriveParams(s.B(), n)
	numSubs := params.NumSubs
	if cfg.MaxSubs > 0 && cfg.MaxSubs < numSubs {
		numSubs = cfg.MaxSubs
	}
	if len(state.Subs) != numSubs {
		return nil, fmt.Errorf("core: state has %d substructures, config derives %d", len(state.Subs), numSubs)
	}
	st := &Structure{s: s, t: t, params: params, cfg: cfg}
	for i := 0; i < numSubs; i++ {
		h := params.HopHeight(i)
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
		roots := st.blockRoots(sub)
		if len(state.Subs[i].Blocks) != len(roots) {
			return nil, fmt.Errorf("core: sub %d: state has %d blocks, tree derives %d", i, len(state.Subs[i].Blocks), len(roots))
		}
		sub.blocks = make([]Block, len(roots))
		var (
			errMu    sync.Mutex
			errBlock = len(roots)
			errVal   error
		)
		stored := state.Subs[i].Blocks
		workpool.ForEach(parallelism, len(roots), 4, func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				blk, err := st.importBlock(roots[bi], sub.H, sub.TruncDepth, sub.S, stored[bi])
				if err != nil {
					errMu.Lock()
					if bi < errBlock {
						errBlock, errVal = bi, fmt.Errorf("core: sub %d block %d: %w", i, bi, err)
					}
					errMu.Unlock()
					return
				}
				sub.blocks[bi] = blk
			}
		})
		if errVal != nil {
			return nil, errVal
		}
		for bi := range sub.blocks {
			blk := &sub.blocks[bi]
			sub.blockOf[blk.Root] = int32(bi)
			sub.SkeletonSlots += int64(blk.M) * int64(len(blk.Nodes))
		}
		st.subs = append(st.subs, sub)
	}
	return st, nil
}

// importBlock rebuilds one block's topology and validates the stored
// skeleton forest against it.
func (st *Structure) importBlock(u tree.NodeID, h, trunc, s int, stored BlockState) (Block, error) {
	if stored.Root != u {
		return Block{}, fmt.Errorf("stored root %d, derived %d", stored.Root, u)
	}
	b := st.blockTopology(u, h, trunc)
	tLen := st.s.Aug(u).Len()
	m := tLen / s
	if m < 1 {
		m = 1
		b.Sparse = true
	}
	b.M = m
	if len(stored.KeyPos) != m {
		return Block{}, fmt.Errorf("%d skeleton trees stored, %d derived", len(stored.KeyPos), m)
	}
	for j, kp := range stored.KeyPos {
		if len(kp) != len(b.Nodes) {
			return Block{}, fmt.Errorf("skeleton %d: %d positions for %d nodes", j, len(kp), len(b.Nodes))
		}
		want := int32((j+1)*s - 1)
		if j == m-1 {
			want = int32(tLen - 1)
		}
		if kp[0] != want {
			return Block{}, fmt.Errorf("skeleton %d: root position %d, want %d", j, kp[0], want)
		}
		for z, v := range b.Nodes {
			if kp[z] < 0 || int(kp[z]) >= st.s.Aug(v).Len() {
				return Block{}, fmt.Errorf("skeleton %d node %d: position %d outside catalog of len %d", j, z, kp[z], st.s.Aug(v).Len())
			}
		}
	}
	b.KeyPos = stored.KeyPos
	return b, nil
}
