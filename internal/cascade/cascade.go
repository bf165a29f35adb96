// Package cascade implements fractional cascading over a rooted tree
// (Chazelle–Guibas), the substrate of the cooperative search structure.
//
// Every tree node carries a native catalog. The builder augments each
// node's catalog with sampled dummy entries from its children's augmented
// catalogs and installs bridge pointers from every augmented entry to its
// successor position in each child. The resulting structure satisfies the
// three properties the paper relies on (Section 2):
//
//  1. Fan-out: for consecutive search-path nodes v, w, the true successor
//     find(y, w) lies within B entries of bridge[v, w, find(y, v)].
//  2. Adjacent entries of v bridge to entries at most B+1 apart in w.
//  3. Bridges do not cross (they are monotone in the entry position).
//
// With sampling stride k (every k-th child entry is lifted), B = k−1; the
// default stride 4 for binary trees gives B = 3 and total augmented size
// at most 2·(native size) + 2·(node count).
//
// Construction proceeds bottom-up in height-many parallel rounds; within a
// round all nodes of a level are independent, mirroring the EREW schedule
// of Atallah–Cole–Goodrich cascading divide-and-conquer (the paper's
// Step 1 preprocessing).
package cascade

import (
	"fmt"

	"fraccascade/internal/catalog"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// Structure is a fractional cascaded tree of catalogs.
type Structure struct {
	t      *tree.Tree
	native []catalog.Catalog
	aug    []catalog.Catalog
	// bridges[v][ci][j] is the position in child ci's augmented catalog of
	// the smallest entry with key >= aug[v].Key(j).
	bridges [][][]int32
	b       int
	stride  int
	bidir   bool
	stats   BuildStats
}

// BuildStats records construction cost in PRAM terms.
type BuildStats struct {
	// Rounds is the number of bottom-up parallel rounds (tree height + 1).
	Rounds int
	// Work is the total number of entry writes across all rounds; with
	// n/log n processors the schedule length is O(Work/(n/log n) + Rounds).
	Work int64
	// AugEntries is the total augmented catalog size (the O(n) of Lemma 2's
	// input structure).
	AugEntries int64
	// NativeEntries is the total native catalog size (the paper's n).
	NativeEntries int64
}

// Result is the outcome of find(y, v) for one node on a search path.
type Result struct {
	// Node is the catalog's tree node.
	Node tree.NodeID
	// AugPos is the successor position within the node's augmented catalog.
	AugPos int
	// Key is the smallest native key >= y (possibly +∞).
	Key catalog.Key
	// Payload is the native entry's payload, or catalog.NoPayload.
	Payload int32
}

// Options configures Build.
type Options struct {
	// Stride overrides the sampling stride; 0 selects the default
	// max(4, 2·maxDegree).
	Stride int
	// Sequential disables host-level parallelism during construction.
	Sequential bool
	// Parallelism bounds the host workers used for construction: 0 selects
	// all cores (GOMAXPROCS), 1 is sequential, higher values are taken
	// literally. Sequential forces 1 regardless. The built structure is
	// bit-identical for every value — parallelism only changes wall time.
	Parallelism int
	// Bidirectional applies the paper's construction on the bidirectional
	// version of the tree: after the bottom-up pass, a top-down pass merges
	// a sample of each node's (already augmented) parent catalog into the
	// node. This gives the reverse density property — between consecutive
	// entries of a child's catalog at most Stride−1 parent entries lie
	// strictly inside — which Lemma 1 (skeleton-tree disjointness) needs.
	Bidirectional bool
}

// Build constructs the fractional cascaded structure for tree t whose node
// v stores native[v]. len(native) must equal t.N().
func Build(t *tree.Tree, native []catalog.Catalog, opts Options) (*Structure, error) {
	if len(native) != t.N() {
		return nil, fmt.Errorf("cascade: %d catalogs for %d nodes", len(native), t.N())
	}
	stride := opts.Stride
	if stride == 0 {
		stride = 2 * t.MaxDegree()
		if stride < 4 {
			stride = 4
		}
	}
	if stride < 2 {
		return nil, fmt.Errorf("cascade: stride %d < 2", stride)
	}
	s := &Structure{
		t:       t,
		native:  native,
		aug:     make([]catalog.Catalog, t.N()),
		bridges: make([][][]int32, t.N()),
		b:       stride - 1,
		stride:  stride,
		bidir:   opts.Bidirectional,
	}
	for _, c := range native {
		s.stats.NativeEntries += int64(c.Len())
	}
	levels := t.LevelNodes()
	par := opts.Parallelism
	if opts.Sequential {
		par = 1
	}
	const grain = 8
	// Bottom-up rounds: children's augmented catalogs exist before parents'.
	for d := len(levels) - 1; d >= 0; d-- {
		nodes := levels[d]
		workpool.ForEach(par, len(nodes), grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s.buildBottomUp(nodes[i])
			}
		})
		s.stats.Rounds++
	}
	if opts.Bidirectional {
		// Top-down rounds: each node absorbs a sample of its parent's
		// final catalog. Level d only depends on level d−1, so within a
		// round all merges are independent.
		for d := 1; d < len(levels); d++ {
			nodes := levels[d]
			workpool.ForEach(par, len(nodes), grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					v := nodes[i]
					// Stride is validated ≥ 2 in Build, so the error path
					// is unreachable here.
					sample, _ := s.aug[s.t.Parent(v)].SampleEvery(s.stride)
					s.aug[v] = catalog.MergeForCascade(s.aug[v], dummied(sample))
				}
			})
			s.stats.Rounds++
		}
	}
	// Bridge installation: one merge-walk per edge over the final catalogs.
	all := t.LevelOrder()
	workpool.ForEach(par, len(all), grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.buildBridges(all[i])
		}
	})
	s.stats.Rounds++
	for v := range s.aug {
		s.stats.Work += int64(s.aug[v].Len())
		s.stats.AugEntries += int64(s.aug[v].Len())
	}
	return s, nil
}

// dummied strips native flags and payloads from sampled entries so they
// merge as dummies one level away.
func dummied(sample []catalog.Entry) []catalog.Entry {
	out := make([]catalog.Entry, len(sample))
	for i, e := range sample {
		out[i] = catalog.Entry{Key: e.Key, Payload: catalog.NoPayload, Native: false}
	}
	return out
}

func (s *Structure) buildBottomUp(v tree.NodeID) {
	ch := s.t.Children(v)
	if len(ch) == 0 {
		s.aug[v] = s.native[v]
		return
	}
	samples := make([][]catalog.Entry, len(ch))
	for i, c := range ch {
		// Stride is validated ≥ 2 in Build, so the error path is
		// unreachable here.
		sample, _ := s.aug[c].SampleEvery(s.stride)
		samples[i] = dummied(sample)
	}
	s.aug[v] = catalog.MergeForCascade(s.native[v], samples...)
}

func (s *Structure) buildBridges(v tree.NodeID) {
	ch := s.t.Children(v)
	if len(ch) == 0 {
		return
	}
	s.bridges[v] = make([][]int32, len(ch))
	av := s.aug[v]
	for ci, c := range ch {
		ac := s.aug[c]
		br := make([]int32, av.Len())
		j := 0
		for i := 0; i < av.Len(); i++ {
			k := av.Key(i)
			for j < ac.Len() && ac.Key(j) < k {
				j++
			}
			br[i] = int32(j)
		}
		s.bridges[v][ci] = br
	}
}

// Tree returns the underlying tree.
func (s *Structure) Tree() *tree.Tree { return s.t }

// B returns the fan-out constant of property 1.
func (s *Structure) B() int { return s.b }

// Stride returns the sampling stride used during construction.
func (s *Structure) Stride() int { return s.stride }

// Bidirectional reports whether the structure was built on the
// bidirectional version of the tree.
func (s *Structure) Bidirectional() bool { return s.bidir }

// Stats returns construction statistics.
func (s *Structure) Stats() BuildStats { return s.stats }

// Native returns node v's native catalog.
func (s *Structure) Native(v tree.NodeID) catalog.Catalog { return s.native[v] }

// Aug returns node v's augmented catalog.
func (s *Structure) Aug(v tree.NodeID) catalog.Catalog { return s.aug[v] }

// BridgePos returns the bridge target of entry position pos of node v into
// its ci-th child's augmented catalog.
func (s *Structure) BridgePos(v tree.NodeID, ci, pos int) int {
	return int(s.bridges[v][ci][pos])
}

// SearchRoot performs the initial successor search in the root's augmented
// catalog, returning the position of the smallest entry >= y.
func (s *Structure) SearchRoot(y catalog.Key) int {
	return s.aug[s.t.Root()].Succ(y)
}

// Descend converts the successor position pos of y in v's augmented catalog
// into the successor position of y in the ci-th child's augmented catalog,
// using the bridge and at most B left steps (the constant-time walk of
// fractional cascading). It also reports the number of left steps taken.
func (s *Structure) Descend(y catalog.Key, v tree.NodeID, ci, pos int) (childPos, walked int) {
	w := s.t.Children(v)[ci]
	j := int(s.bridges[v][ci][pos])
	ac := s.aug[w]
	for j > 0 && ac.Key(j-1) >= y {
		j--
		walked++
	}
	return j, walked
}

// ResultAt materialises the Result for node v given the successor position
// in its augmented catalog.
func (s *Structure) ResultAt(v tree.NodeID, pos int) Result {
	k, pl := s.aug[v].NativeResult(pos)
	return Result{Node: v, AugPos: pos, Key: k, Payload: pl}
}

// SearchPath performs the sequential fractional cascading search: one
// successor search at the root followed by constant-time bridge walks along
// the given downward path (O(log n + len(path)) total). It returns
// find(y, v) for every node on the path.
func (s *Structure) SearchPath(y catalog.Key, path []tree.NodeID) ([]Result, error) {
	if err := s.t.ValidatePath(path); err != nil {
		return nil, err
	}
	if path[0] != s.t.Root() {
		return nil, fmt.Errorf("cascade: path must start at the root")
	}
	out := make([]Result, len(path))
	pos := s.SearchRoot(y)
	out[0] = s.ResultAt(path[0], pos)
	for i := 1; i < len(path); i++ {
		ci := s.t.ChildIndex(path[i-1], path[i])
		pos, _ = s.Descend(y, path[i-1], ci, pos)
		out[i] = s.ResultAt(path[i], pos)
	}
	return out, nil
}

// SearchPathCounted is SearchPath plus an exact count of key comparisons,
// for the work comparisons in the benchmark harness.
func (s *Structure) SearchPathCounted(y catalog.Key, path []tree.NodeID) ([]Result, int, error) {
	if err := s.t.ValidatePath(path); err != nil {
		return nil, 0, err
	}
	comparisons := 0
	rootCat := s.aug[path[0]]
	lo, hi := 0, rootCat.Len()
	for lo < hi {
		mid := (lo + hi) / 2
		comparisons++
		if rootCat.Key(mid) >= y {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	pos := lo
	out := make([]Result, len(path))
	out[0] = s.ResultAt(path[0], pos)
	for i := 1; i < len(path); i++ {
		ci := s.t.ChildIndex(path[i-1], path[i])
		var walked int
		pos, walked = s.Descend(y, path[i-1], ci, pos)
		comparisons += walked + 1
		out[i] = s.ResultAt(path[i], pos)
	}
	return out, comparisons, nil
}

// NaiveSearchPath is the no-cascading baseline: an independent binary
// search in every native catalog along the path (O(len(path)·log n)). It
// returns results identical to SearchPath and the comparison count.
func NaiveSearchPath(t *tree.Tree, native []catalog.Catalog, y catalog.Key, path []tree.NodeID) ([]Result, int, error) {
	if err := t.ValidatePath(path); err != nil {
		return nil, 0, err
	}
	out := make([]Result, len(path))
	comparisons := 0
	for i, v := range path {
		c := native[v]
		lo, hi := 0, c.Len()
		for lo < hi {
			mid := (lo + hi) / 2
			comparisons++
			if c.Key(mid) >= y {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		e := c.At(lo)
		out[i] = Result{Node: v, AugPos: lo, Key: e.Key, Payload: e.Payload}
	}
	return out, comparisons, nil
}

// CheckProperties validates properties 1–3 on the built structure for the
// given probe keys, returning an error describing the first violation.
// Tests use it as the executable statement of the paper's Section 2
// invariants.
func (s *Structure) CheckProperties(probes []catalog.Key) error {
	// Property 3: bridge monotonicity (non-crossing).
	for v := 0; v < s.t.N(); v++ {
		for ci := range s.bridges[v] {
			br := s.bridges[v][ci]
			for j := 1; j < len(br); j++ {
				if br[j] < br[j-1] {
					return fmt.Errorf("cascade: bridges cross at node %d child %d pos %d", v, ci, j)
				}
			}
			// Property 2: adjacent entries bridge at most B+1 apart.
			for j := 1; j < len(br); j++ {
				if int(br[j]-br[j-1]) > s.b+1 {
					return fmt.Errorf("cascade: adjacent bridges %d apart (> %d) at node %d child %d pos %d",
						br[j]-br[j-1], s.b+1, v, ci, j)
				}
			}
		}
	}
	// Property 1: fan-out within B for probe keys on all edges.
	for _, y := range probes {
		for v := 0; v < s.t.N(); v++ {
			pos := s.aug[v].Succ(y)
			for ci, w := range s.t.Children(tree.NodeID(v)) {
				bridge := int(s.bridges[v][ci][pos])
				truth := s.aug[w].Succ(y)
				if truth > bridge || bridge-truth > s.b {
					return fmt.Errorf("cascade: fan-out violated at edge %d->%d for y=%d: bridge %d, true %d, b %d",
						v, w, y, bridge, truth, s.b)
				}
			}
		}
	}
	if s.bidir {
		return s.checkReverseDensity()
	}
	return nil
}

// checkReverseDensity verifies the bidirectional property that between two
// consecutive entries of a child's catalog at most Stride−1 entries of the
// parent's catalog lie strictly inside the key gap. This is the property
// Lemma 1 (disjointness of sampled skeleton trees) relies on.
func (s *Structure) checkReverseDensity() error {
	for v := 0; v < s.t.N(); v++ {
		p := s.t.Parent(tree.NodeID(v))
		if p == tree.Nil {
			continue
		}
		child, parent := s.aug[v], s.aug[p]
		j := 0
		for i := 1; i < child.Len(); i++ {
			lo, hi := child.Key(i-1), child.Key(i)
			for j < parent.Len() && parent.Key(j) <= lo {
				j++
			}
			count := 0
			for k := j; k < parent.Len() && parent.Key(k) < hi; k++ {
				count++
			}
			if count > s.stride-1 {
				return fmt.Errorf("cascade: reverse density violated at node %d gap %d: %d parent entries (max %d)",
					v, i, count, s.stride-1)
			}
		}
	}
	return nil
}
