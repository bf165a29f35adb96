// Package tree provides the rooted ordered trees underlying fractional
// cascaded data structures: balanced binary trees for the Theorem 1
// machinery, bounded-degree and degree-d trees for Theorems 2–3, level and
// inorder numbering, the heap LCA, and partitions into height-h blocks.
package tree

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// NodeID identifies a node; IDs are dense in [0, N).
type NodeID = int32

// Nil is the absent-node sentinel.
const Nil NodeID = -1

// Tree is a rooted ordered tree. The zero value is not usable; construct
// with one of the builders or Build.
type Tree struct {
	root     NodeID
	parent   []NodeID
	children [][]NodeID
	depth    []int32
	height   int
	maxDeg   int
}

// Build constructs a tree from a parent vector (parent[root] == Nil).
// Children are ordered by the order slice if non-nil (order[v] is v's rank
// among its siblings) and by NodeID otherwise.
func Build(parent []NodeID, order []int32) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return nil, fmt.Errorf("tree: empty parent vector")
	}
	t := &Tree{
		root:     Nil,
		parent:   append([]NodeID(nil), parent...),
		children: make([][]NodeID, n),
		depth:    make([]int32, n),
	}
	for v := 0; v < n; v++ {
		p := parent[v]
		if p == Nil {
			if t.root != Nil {
				return nil, fmt.Errorf("tree: multiple roots %d and %d", t.root, v)
			}
			t.root = NodeID(v)
			continue
		}
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("tree: node %d has out-of-range parent %d", v, p)
		}
		t.children[p] = append(t.children[p], NodeID(v))
	}
	if t.root == Nil {
		return nil, fmt.Errorf("tree: no root")
	}
	if order != nil {
		// Stable, so equal ranks keep NodeID order; O(d log d) per node, so
		// a file listing a node's d children in reverse rank order loads
		// as fast as a sorted one.
		for _, ch := range t.children {
			slices.SortStableFunc(ch, func(a, b NodeID) int { return cmp.Compare(order[a], order[b]) })
		}
	}
	// Depth/height via BFS; also detects cycles/disconnection.
	seen := 1
	queue := []NodeID{t.root}
	t.depth[t.root] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if d := int(t.depth[v]); d > t.height {
			t.height = d
		}
		if len(t.children[v]) > t.maxDeg {
			t.maxDeg = len(t.children[v])
		}
		for _, c := range t.children[v] {
			t.depth[c] = t.depth[v] + 1
			seen++
			queue = append(queue, c)
		}
	}
	if seen != n {
		return nil, fmt.Errorf("tree: %d of %d nodes reachable from root (cycle or forest)", seen, n)
	}
	return t, nil
}

// NewBalancedBinary returns a complete binary tree with the given number of
// leaves, which must be a power of two. Nodes are numbered in level order:
// the root is 0, and node v has children 2v+1 and 2v+2.
func NewBalancedBinary(leaves int) (*Tree, error) {
	if leaves < 1 || leaves&(leaves-1) != 0 {
		return nil, fmt.Errorf("tree: leaf count %d is not a positive power of two", leaves)
	}
	n := 2*leaves - 1
	parent := make([]NodeID, n)
	parent[0] = Nil
	for v := 1; v < n; v++ {
		parent[v] = NodeID((v - 1) / 2)
	}
	return Build(parent, nil)
}

// NewPath returns a path of n nodes rooted at node 0 (the degenerate
// bounded-degree tree used by the Theorem 2 experiments).
func NewPath(n int) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("tree: path length %d", n)
	}
	parent := make([]NodeID, n)
	parent[0] = Nil
	for v := 1; v < n; v++ {
		parent[v] = NodeID(v - 1)
	}
	return Build(parent, nil)
}

// NewRandom returns a random rooted tree with n nodes and maximum degree
// maxDeg, built by attaching each new node to a uniformly random node that
// still has capacity.
func NewRandom(n, maxDeg int, rng *rand.Rand) (*Tree, error) {
	if n < 1 || maxDeg < 1 {
		return nil, fmt.Errorf("tree: invalid random tree parameters n=%d maxDeg=%d", n, maxDeg)
	}
	parent := make([]NodeID, n)
	parent[0] = Nil
	degree := make([]int, n)
	open := []NodeID{0}
	for v := 1; v < n; v++ {
		i := rng.Intn(len(open))
		p := open[i]
		parent[v] = p
		degree[p]++
		if degree[p] >= maxDeg {
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
		}
		open = append(open, NodeID(v))
	}
	return Build(parent, nil)
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.parent) }

// Root returns the root node.
func (t *Tree) Root() NodeID { return t.root }

// Parent returns v's parent, or Nil for the root.
func (t *Tree) Parent(v NodeID) NodeID { return t.parent[v] }

// Children returns v's ordered children; callers must not modify the slice.
func (t *Tree) Children(v NodeID) []NodeID { return t.children[v] }

// ChildIndex returns the rank of child c among parent's children, or -1.
func (t *Tree) ChildIndex(parent, c NodeID) int {
	for i, x := range t.children[parent] {
		if x == c {
			return i
		}
	}
	return -1
}

// IsLeaf reports whether v has no children.
func (t *Tree) IsLeaf(v NodeID) bool { return len(t.children[v]) == 0 }

// Depth returns v's distance from the root.
func (t *Tree) Depth(v NodeID) int { return int(t.depth[v]) }

// Height returns the maximum depth of any node.
func (t *Tree) Height() int { return t.height }

// MaxDegree returns the maximum number of children of any node.
func (t *Tree) MaxDegree() int { return t.maxDeg }

// LevelOrder returns all nodes in BFS order from the root.
func (t *Tree) LevelOrder() []NodeID {
	out := make([]NodeID, 0, t.N())
	out = append(out, t.root)
	for i := 0; i < len(out); i++ {
		out = append(out, t.children[out[i]]...)
	}
	return out
}

// PostOrder returns all nodes in post-order (children before parents),
// which is the processing order of the bottom-up cascade construction.
func (t *Tree) PostOrder() []NodeID {
	level := t.LevelOrder()
	out := make([]NodeID, len(level))
	for i, v := range level {
		out[len(level)-1-i] = v
	}
	return out
}

// LevelNodes returns, for each depth d, the nodes at depth d in BFS order.
func (t *Tree) LevelNodes() [][]NodeID {
	out := make([][]NodeID, t.height+1)
	for _, v := range t.LevelOrder() {
		d := t.depth[v]
		out[d] = append(out[d], v)
	}
	return out
}

// RootPath returns the node sequence from the root to v, inclusive.
func (t *Tree) RootPath(v NodeID) []NodeID {
	path := make([]NodeID, t.depth[v]+1)
	for x, i := v, len(path)-1; x != Nil; x, i = t.parent[x], i-1 {
		path[i] = x
	}
	return path
}

// ValidatePath checks that path is a downward parent→child chain.
func (t *Tree) ValidatePath(path []NodeID) error {
	if len(path) == 0 {
		return fmt.Errorf("tree: empty path")
	}
	for i := 1; i < len(path); i++ {
		if t.parent[path[i]] != path[i-1] {
			return fmt.Errorf("tree: path broken at position %d: %d is not a child of %d", i, path[i], path[i-1])
		}
	}
	return nil
}

// InorderIndex returns the inorder number of every node of a binary tree
// (each node has 0 or 2 children, ordered). It errors on non-binary trees.
func (t *Tree) InorderIndex() ([]int32, error) {
	idx := make([]int32, t.N())
	counter := int32(0)
	// Iterative inorder traversal.
	type frame struct {
		v     NodeID
		state int
	}
	stack := []frame{{t.root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ch := t.children[f.v]
		if len(ch) != 0 && len(ch) != 2 {
			return nil, fmt.Errorf("tree: node %d has %d children; inorder requires a binary tree", f.v, len(ch))
		}
		switch f.state {
		case 0:
			f.state = 1
			if len(ch) == 2 {
				stack = append(stack, frame{ch[0], 0})
			}
		case 1:
			idx[f.v] = counter
			counter++
			f.state = 2
			if len(ch) == 2 {
				stack = append(stack, frame{ch[1], 0})
			}
		default:
			stack = stack[:len(stack)-1]
		}
	}
	return idx, nil
}

// SubtreeSpan returns, for every node, the half-open interval [lo, hi) of
// inorder leaf ranks covered by the node's subtree, where leaves are ranked
// left to right. Binary trees only.
func (t *Tree) SubtreeSpan() (lo, hi []int32, err error) {
	lo = make([]int32, t.N())
	hi = make([]int32, t.N())
	rank := int32(0)
	// Left-to-right DFS so leaf ranks follow the tree's ordered structure.
	type frame struct {
		v     NodeID
		state int
	}
	stack := []frame{{t.root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ch := t.children[f.v]
		if len(ch) != 0 && len(ch) != 2 {
			return nil, nil, fmt.Errorf("tree: node %d has %d children; SubtreeSpan requires a binary tree", f.v, len(ch))
		}
		switch {
		case len(ch) == 0:
			lo[f.v] = rank
			rank++
			hi[f.v] = rank
			stack = stack[:len(stack)-1]
		case f.state < 2:
			c := ch[f.state]
			f.state++
			stack = append(stack, frame{c, 0})
		default:
			lo[f.v] = lo[ch[0]]
			hi[f.v] = hi[ch[1]]
			stack = stack[:len(stack)-1]
		}
	}
	return lo, hi, nil
}

// HeapLCA returns the lowest common ancestor of u and v in a tree
// numbered as NewBalancedBinary numbers it: the root is 0 and node v has
// children 2v+1 and 2v+2. In 1-based numbers (v+1) a node's children are
// its number followed by one more bit, so an ancestor's number is a binary
// prefix of its descendant's, and the LCA is the longest common prefix of
// the two numbers once the deeper one is cut to the other's length.
func HeapLCA(u, v NodeID) NodeID {
	a, b := uint32(u)+1, uint32(v)+1
	if d := bits.Len32(a) - bits.Len32(b); d > 0 {
		a >>= d
	} else {
		b >>= -d
	}
	return NodeID(a>>bits.Len32(a^b)) - 1
}

// ExpandDegree converts a degree-d tree into a binary tree by replacing
// each node of degree > 2 with a balanced binary caterpillar of auxiliary
// nodes (Theorem 3). It returns the expanded tree, a mapping from original
// node IDs to expanded IDs, and a reverse mapping (Nil for auxiliary
// nodes). Children order is preserved.
func ExpandDegree(t *Tree) (expanded *Tree, fwd []NodeID, rev []NodeID, err error) {
	type protoNode struct {
		parent NodeID
		orig   NodeID // original node or Nil
	}
	var nodes []protoNode
	fwd = make([]NodeID, t.N())
	newNode := func(parent, orig NodeID) NodeID {
		nodes = append(nodes, protoNode{parent: parent, orig: orig})
		return NodeID(len(nodes) - 1)
	}
	// BFS over the original tree; for each node, build a binary splitter
	// over its children.
	rootID := newNode(Nil, t.Root())
	fwd[t.Root()] = rootID
	queue := []NodeID{t.Root()}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		vid := fwd[v]
		ch := t.Children(v)
		// attach recursively splits ch[lo:hi] under parent p.
		var attach func(p NodeID, lo, hi int)
		attach = func(p NodeID, lo, hi int) {
			k := hi - lo
			switch {
			case k == 0:
				return
			case k <= 2:
				for i := lo; i < hi; i++ {
					c := ch[i]
					cid := newNode(p, c)
					fwd[c] = cid
				}
			default:
				mid := lo + (k+1)/2
				left := newNode(p, Nil)
				right := newNode(p, Nil)
				attach(left, lo, mid)
				attach(right, mid, hi)
			}
		}
		attach(vid, 0, len(ch))
		queue = append(queue, ch...)
	}
	parent := make([]NodeID, len(nodes))
	rev = make([]NodeID, len(nodes))
	for i, pn := range nodes {
		parent[i] = pn.parent
		rev[i] = pn.orig
	}
	expanded, err = Build(parent, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return expanded, fwd, rev, nil
}

// ExpandPath maps a path in the original tree to the corresponding path in
// the expanded tree returned by ExpandDegree (including auxiliary nodes).
func ExpandPath(expanded *Tree, fwd []NodeID, path []NodeID) []NodeID {
	if len(path) == 0 {
		return nil
	}
	out := []NodeID{fwd[path[0]]}
	for i := 1; i < len(path); i++ {
		target := fwd[path[i]]
		// Walk up from target to the previous mapped node, collecting
		// auxiliary nodes.
		var seg []NodeID
		for x := target; x != out[len(out)-1]; x = expanded.Parent(x) {
			seg = append(seg, x)
		}
		for j := len(seg) - 1; j >= 0; j-- {
			out = append(out, seg[j])
		}
	}
	return out
}
