package tree

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil, nil); err == nil {
		t.Error("empty parent vector should fail")
	}
	if _, err := Build([]NodeID{Nil, Nil}, nil); err == nil {
		t.Error("two roots should fail")
	}
	if _, err := Build([]NodeID{0}, nil); err == nil {
		t.Error("self-parent cycle should fail")
	}
	if _, err := Build([]NodeID{Nil, 5}, nil); err == nil {
		t.Error("out-of-range parent should fail")
	}
	if _, err := Build([]NodeID{1, 2, 1}, nil); err == nil {
		t.Error("rootless cycle should fail")
	}
}

func TestBalancedBinaryShape(t *testing.T) {
	for _, leaves := range []int{1, 2, 4, 8, 64} {
		bt, err := NewBalancedBinary(leaves)
		if err != nil {
			t.Fatalf("leaves=%d: %v", leaves, err)
		}
		if bt.N() != 2*leaves-1 {
			t.Errorf("leaves=%d: N = %d, want %d", leaves, bt.N(), 2*leaves-1)
		}
		nLeaves := 0
		for v := NodeID(0); int(v) < bt.N(); v++ {
			switch len(bt.Children(v)) {
			case 0:
				nLeaves++
				if d := bt.Depth(v); d != bt.Height() {
					t.Errorf("leaves=%d: leaf %d at depth %d, height %d", leaves, v, d, bt.Height())
				}
			case 2:
			default:
				t.Errorf("leaves=%d: node %d has %d children", leaves, v, len(bt.Children(v)))
			}
		}
		if nLeaves != leaves {
			t.Errorf("leaves=%d: counted %d leaves", leaves, nLeaves)
		}
	}
	if _, err := NewBalancedBinary(3); err == nil {
		t.Error("non-power-of-two leaf count should fail")
	}
	if _, err := NewBalancedBinary(0); err == nil {
		t.Error("zero leaves should fail")
	}
}

func TestPathTree(t *testing.T) {
	p, err := NewPath(5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Height() != 4 || p.MaxDegree() != 1 {
		t.Errorf("path: height %d maxdeg %d", p.Height(), p.MaxDegree())
	}
	rp := p.RootPath(4)
	if len(rp) != 5 || rp[0] != 0 || rp[4] != 4 {
		t.Errorf("RootPath = %v", rp)
	}
	if err := p.ValidatePath(rp); err != nil {
		t.Errorf("ValidatePath: %v", err)
	}
	if err := p.ValidatePath([]NodeID{0, 2}); err == nil {
		t.Error("broken path should fail validation")
	}
	if err := p.ValidatePath(nil); err == nil {
		t.Error("empty path should fail validation")
	}
}

func TestRandomTreeRespectsDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		d := 1 + rng.Intn(5)
		rt, err := NewRandom(n, d, rng)
		if err != nil {
			t.Fatal(err)
		}
		if rt.N() != n {
			t.Fatalf("N = %d, want %d", rt.N(), n)
		}
		if rt.MaxDegree() > d {
			t.Fatalf("max degree %d exceeds %d", rt.MaxDegree(), d)
		}
	}
}

func TestLevelOrderAndPostOrder(t *testing.T) {
	bt, _ := NewBalancedBinary(4)
	lo := bt.LevelOrder()
	if len(lo) != 7 || lo[0] != 0 {
		t.Fatalf("LevelOrder = %v", lo)
	}
	for i := 1; i < len(lo); i++ {
		if bt.Depth(lo[i]) < bt.Depth(lo[i-1]) {
			t.Errorf("LevelOrder not by depth at %d", i)
		}
	}
	po := bt.PostOrder()
	seen := make([]bool, bt.N())
	for _, v := range po {
		for _, c := range bt.Children(v) {
			if !seen[c] {
				t.Errorf("PostOrder: child %d after parent %d", c, v)
			}
		}
		seen[v] = true
	}
}

func TestLevelNodes(t *testing.T) {
	bt, _ := NewBalancedBinary(8)
	ln := bt.LevelNodes()
	if len(ln) != 4 {
		t.Fatalf("levels = %d, want 4", len(ln))
	}
	for d, nodes := range ln {
		if len(nodes) != 1<<d {
			t.Errorf("level %d has %d nodes, want %d", d, len(nodes), 1<<d)
		}
		for _, v := range nodes {
			if bt.Depth(v) != d {
				t.Errorf("node %d at wrong level", v)
			}
		}
	}
}

func TestInorderIndex(t *testing.T) {
	bt, _ := NewBalancedBinary(4) // 7 nodes
	idx, err := bt.InorderIndex()
	if err != nil {
		t.Fatal(err)
	}
	// Level-order numbering: root 0, children 1,2; leaves 3,4,5,6.
	// Inorder: 3,1,4,0,5,2,6.
	want := map[NodeID]int32{3: 0, 1: 1, 4: 2, 0: 3, 5: 4, 2: 5, 6: 6}
	for v, w := range want {
		if idx[v] != w {
			t.Errorf("inorder[%d] = %d, want %d", v, idx[v], w)
		}
	}
	p, _ := NewPath(3)
	if _, err := p.InorderIndex(); err == nil {
		t.Error("unary tree should fail InorderIndex")
	}
}

func TestSubtreeSpan(t *testing.T) {
	bt, _ := NewBalancedBinary(4)
	lo, hi, err := bt.SubtreeSpan()
	if err != nil {
		t.Fatal(err)
	}
	if lo[0] != 0 || hi[0] != 4 {
		t.Errorf("root span = [%d,%d), want [0,4)", lo[0], hi[0])
	}
	if lo[1] != 0 || hi[1] != 2 || lo[2] != 2 || hi[2] != 4 {
		t.Errorf("internal spans wrong: [%d,%d) [%d,%d)", lo[1], hi[1], lo[2], hi[2])
	}
	for leaf := NodeID(3); leaf <= 6; leaf++ {
		if hi[leaf]-lo[leaf] != 1 {
			t.Errorf("leaf %d span = [%d,%d)", leaf, lo[leaf], hi[leaf])
		}
	}
}

// lcaByParentWalk is the reference LCA: lift the deeper node to the
// other's depth, then lift both until they meet.
func lcaByParentWalk(t *Tree, u, v NodeID) NodeID {
	for t.Depth(u) > t.Depth(v) {
		u = t.Parent(u)
	}
	for t.Depth(v) > t.Depth(u) {
		v = t.Parent(v)
	}
	for u != v {
		u, v = t.Parent(u), t.Parent(v)
	}
	return u
}

// TestHeapLCA holds HeapLCA to the parent walk: every node pair of the
// balanced trees up to 2^8 leaves, and sampled pairs up to 2^15.
func TestHeapLCA(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for leaves := 1; leaves <= 1<<15; leaves *= 2 {
		bt, err := NewBalancedBinary(leaves)
		if err != nil {
			t.Fatal(err)
		}
		check := func(u, v NodeID) {
			if got, want := HeapLCA(u, v), lcaByParentWalk(bt, u, v); got != want {
				t.Fatalf("%d leaves: HeapLCA(%d, %d) = %d, want %d", leaves, u, v, got, want)
			}
		}
		if leaves <= 1<<8 {
			for u := NodeID(0); int(u) < bt.N(); u++ {
				for v := NodeID(0); int(v) < bt.N(); v++ {
					check(u, v)
				}
			}
			continue
		}
		for q := 0; q < 20000; q++ {
			u, v := NodeID(rng.Intn(bt.N())), NodeID(rng.Intn(bt.N()))
			check(u, v)
			// Two leaves, the pairs the locators ask about.
			check(NodeID(leaves-1+rng.Intn(leaves)), NodeID(leaves-1+rng.Intn(leaves)))
		}
	}
}

func TestExpandDegreeBinaryResult(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		orig, err := NewRandom(2+rng.Intn(200), 2+rng.Intn(8), rng)
		if err != nil {
			t.Fatal(err)
		}
		exp, fwd, rev, err := ExpandDegree(orig)
		if err != nil {
			t.Fatal(err)
		}
		if exp.MaxDegree() > 2 {
			t.Fatalf("expanded tree has degree %d", exp.MaxDegree())
		}
		// Round trip: every original node maps to an expanded node that
		// maps back.
		for v := NodeID(0); int(v) < orig.N(); v++ {
			if rev[fwd[v]] != v {
				t.Fatalf("fwd/rev mismatch at %d", v)
			}
		}
		// Ancestry preserved: parent(v) maps to an ancestor of fwd[v].
		for v := NodeID(0); int(v) < orig.N(); v++ {
			p := orig.Parent(v)
			if p == Nil {
				continue
			}
			found := false
			for x := exp.Parent(fwd[v]); x != Nil; x = exp.Parent(x) {
				if x == fwd[p] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("expanded ancestry broken for %d", v)
			}
		}
	}
}

func TestExpandDegreeDepthBlowup(t *testing.T) {
	// Depth must grow by at most a log(d) factor per level.
	rng := rand.New(rand.NewSource(4))
	orig, _ := NewRandom(500, 16, rng)
	exp, fwd, _, err := ExpandDegree(orig)
	if err != nil {
		t.Fatal(err)
	}
	for v := NodeID(0); int(v) < orig.N(); v++ {
		od, ed := orig.Depth(v), exp.Depth(fwd[v])
		if ed > od*5+5 { // log2(16) = 4 aux levels max, plus slack
			t.Fatalf("node %d: depth %d -> %d exceeds log-d blowup", v, od, ed)
		}
	}
}

func TestExpandPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orig, _ := NewRandom(300, 8, rng)
	exp, fwd, rev, err := ExpandDegree(orig)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		v := NodeID(rng.Intn(orig.N()))
		path := orig.RootPath(v)
		epath := ExpandPath(exp, fwd, path)
		if err := exp.ValidatePath(epath); err != nil {
			t.Fatalf("expanded path invalid: %v", err)
		}
		// The original nodes appear in order within the expanded path.
		j := 0
		for _, x := range epath {
			if o := rev[x]; o != Nil {
				if o != path[j] {
					t.Fatalf("expanded path visits %d, want %d", o, path[j])
				}
				j++
			}
		}
		if j != len(path) {
			t.Fatalf("expanded path visited %d of %d original nodes", j, len(path))
		}
	}
}

func TestChildIndex(t *testing.T) {
	bt, _ := NewBalancedBinary(2)
	if bt.ChildIndex(0, 1) != 0 || bt.ChildIndex(0, 2) != 1 {
		t.Error("ChildIndex wrong for root's children")
	}
	if bt.ChildIndex(1, 2) != -1 {
		t.Error("ChildIndex should be -1 for non-child")
	}
}

func TestBuildWithOrder(t *testing.T) {
	// Three children of root, ordered 2,0,1 by the order slice.
	parent := []NodeID{Nil, 0, 0, 0}
	order := []int32{0, 2, 0, 1}
	tr, err := Build(parent, order)
	if err != nil {
		t.Fatal(err)
	}
	ch := tr.Children(0)
	if ch[0] != 2 || ch[1] != 3 || ch[2] != 1 {
		t.Errorf("ordered children = %v, want [2 3 1]", ch)
	}
}

// TestBuildOrdersWideNodeFast: a root with 100,000 leaf children listed in
// reverse rank order builds within 2 s, with its children in rank order.
// An insertion sort of them takes about 6.6 s on a 2-vCPU host.
func TestBuildOrdersWideNodeFast(t *testing.T) {
	const d = 100_000
	parent := make([]NodeID, d+1)
	order := make([]int32, d+1)
	parent[0] = Nil
	for v := 1; v <= d; v++ {
		order[v] = int32(d - v)
	}
	start := time.Now()
	tr, err := Build(parent, order)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Build of a %d-child root took %v, want under 2 s", d, elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	for rank, c := range tr.Children(0) {
		if int(order[c]) != rank {
			t.Fatalf("child %d at position %d has rank %d", c, rank, order[c])
		}
	}
}

// insertionOrder is Build's former child ordering, kept as the reference:
// an insertion sort of each child list by rank, NodeID order among ties.
func insertionOrder(children [][]NodeID, order []int32) {
	for _, ch := range children {
		for i := 1; i < len(ch); i++ {
			for j := i; j > 0 && order[ch[j]] < order[ch[j-1]]; j-- {
				ch[j], ch[j-1] = ch[j-1], ch[j]
			}
		}
	}
}

// TestBuildOrderMatchesInsertionSort: over random trees with random rank
// vectors, ties included, Build lists every node's children as the
// insertion sort does. Most children hang below the first few nodes, so
// child lists run past the dozen entries an unstable sort still orders
// stably.
func TestBuildOrderMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for c := 0; c < 200; c++ {
		n := 1 + rng.Intn(300)
		parent := make([]NodeID, n)
		parent[0] = Nil
		for v := 1; v < n; v++ {
			parent[v] = NodeID(rng.Intn(min(v, 1+rng.Intn(8))))
		}
		order := make([]int32, n)
		ranks := 1 + rng.Intn(8) // few distinct ranks, so many ties
		for v := range order {
			order[v] = int32(rng.Intn(ranks))
		}
		want := make([][]NodeID, n)
		for v := 1; v < n; v++ {
			want[parent[v]] = append(want[parent[v]], NodeID(v))
		}
		insertionOrder(want, order)
		tr, err := Build(parent, order)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got := tr.Children(NodeID(v)); !slices.Equal(got, want[v]) {
				t.Fatalf("case %d: node %d children %v, want %v", c, v, got, want[v])
			}
		}
	}
}
