package flat_test

import (
	"math/rand"
	"testing"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/flat"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// differentialBaseSeed anchors the harness: case c runs with seed
// differentialBaseSeed + c, so any reported failure replays standalone.
const differentialBaseSeed = int64(0x0F1A7_0000)

// TestDifferentialFlatVsPointer is the oracle harness pinning the tentpole:
// 1000 seeded random catalog/tree shapes (balanced binary and random
// bounded-degree), and for every query the flat sequential walk, the flat
// explicit search, the entry-hinted variants, and a wall batch on the host
// executor are cross-checked against cascade.SearchPath and core.SearchExplicit —
// results field for field, Stats bit for bit. Failures print the case seed.
func TestDifferentialFlatVsPointer(t *testing.T) {
	cases := 1000
	if testing.Short() {
		cases = 100
	}
	for c := 0; c < cases; c++ {
		caseSeed := differentialBaseSeed + int64(c)
		runDifferentialCase(t, c, caseSeed)
	}
}

func runDifferentialCase(t *testing.T, c int, caseSeed int64) {
	t.Helper()
	bt, st, f, total, rng := differentialStructure(t, c, caseSeed)

	keyBound := int64(total*4 + 2)
	queries := 12
	ys := make([]catalog.Key, 0, queries)
	paths := make([][]tree.NodeID, 0, queries)
	for q := 0; q < queries; q++ {
		v := tree.NodeID(rng.Intn(bt.N()))
		path := bt.RootPath(v)
		y := catalog.Key(rng.Int63n(keyBound))
		if q == 0 {
			y = 0
		} else if q == 1 {
			y = catalog.PlusInf
		}
		p := 1 << uint(rng.Intn(20))
		ys = append(ys, y)
		paths = append(paths, path)

		// Sequential walk vs the pointer cascade.
		want, err := st.Cascade().SearchPath(y, path)
		if err != nil {
			t.Fatalf("case seed %d: pointer SearchPath: %v", caseSeed, err)
		}
		got, err := f.SearchPath(y, path)
		if err != nil {
			t.Fatalf("case seed %d: flat SearchPath: %v", caseSeed, err)
		}
		diffResults(t, caseSeed, "SearchPath", got, want)

		// Explicit search vs the pointer cooperative search, Stats included.
		wantRes, wantStats, err := st.SearchExplicit(y, path, p)
		if err != nil {
			t.Fatalf("case seed %d: pointer SearchExplicit(p=%d): %v", caseSeed, p, err)
		}
		gotRes, gotStats, err := f.SearchExplicit(y, path, p)
		if err != nil {
			t.Fatalf("case seed %d: flat SearchExplicit(p=%d): %v", caseSeed, p, err)
		}
		diffResults(t, caseSeed, "SearchExplicit", gotRes, wantRes)
		if gotStats != wantStats {
			t.Fatalf("case seed %d: SearchExplicit(y=%d, p=%d) stats %+v, want %+v",
				caseSeed, y, p, gotStats, wantStats)
		}

		// Entry-hinted search: a correct hint and an arbitrary one, checked
		// against the pointer variant for results, stats, and the used flag.
		for _, entryPos := range []int{f.EntryProbe(path[0], y), rng.Intn(2 * total)} {
			wr, ws, wu, werr := st.SearchExplicitWithEntry(y, path, p, entryPos)
			gr := make([]cascade.Result, len(path))
			gs, gu, gerr := f.SearchExplicitWithEntry(y, path, p, entryPos, gr)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("case seed %d: WithEntry(pos=%d) err %v, want %v", caseSeed, entryPos, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if gu != wu || gs != ws {
				t.Fatalf("case seed %d: WithEntry(y=%d, p=%d, pos=%d) used=%v stats=%+v, want used=%v stats=%+v",
					caseSeed, y, p, entryPos, gu, gs, wu, ws)
			}
			diffResults(t, caseSeed, "SearchExplicitWithEntry", gr, wr)
		}
	}

	// Wall batch: every answer bit-identical to the pointer oracle.
	procs := 1 + rng.Intn(8)
	out := make([][]cascade.Result, len(ys))
	errs := make([]error, len(ys))
	for i := range out {
		out[i] = make([]cascade.Result, len(paths[i]))
	}
	workpool.New(procs).Run(len(ys), func(i int) { errs[i] = f.SearchPathInto(ys[i], paths[i], out[i]) })
	for i := range ys {
		if errs[i] != nil {
			t.Fatalf("case seed %d: wall query %d: %v", caseSeed, i, errs[i])
		}
		want, err := st.Cascade().SearchPath(ys[i], paths[i])
		if err != nil {
			t.Fatalf("case seed %d: pointer SearchPath: %v", caseSeed, err)
		}
		diffResults(t, caseSeed, "wall batch", out[i], want)
	}
}

// differentialStructure builds case c's tree, pointer structure and flat
// twin from the case seed, and returns the stream positioned after the
// build with the case's catalog size.
func differentialStructure(t *testing.T, c int, caseSeed int64) (*tree.Tree, *core.Structure, *flat.Structure, int, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(caseSeed))

	var bt *tree.Tree
	var err error
	switch c % 3 {
	case 0:
		bt, err = tree.NewRandom(8+rng.Intn(180), 2+rng.Intn(4), rng)
	case 1:
		bt, err = tree.NewBalancedBinary(1 << uint(2+rng.Intn(4)))
	default:
		bt, err = tree.NewRandom(2+rng.Intn(40), 1+rng.Intn(6), rng)
	}
	if err != nil {
		t.Fatalf("case seed %d: tree: %v", caseSeed, err)
	}
	total := 50 + rng.Intn(3000)
	cats := randCatalogs(bt, total, rng)
	st, err := core.Build(bt, cats, core.Config{})
	if err != nil {
		t.Fatalf("case seed %d: build: %v", caseSeed, err)
	}
	f, err := flat.Freeze(st)
	if err != nil {
		t.Fatalf("case seed %d: freeze: %v", caseSeed, err)
	}
	return bt, st, f, total, rng
}

// TestOpenBlockMatchesCore pins OpenBlock and FindInBlock to
// core.FindAllInBlock on the differential harness's structures: for every
// block of every substructure and a spread of keys (both ends included),
// the same node ids in the same order, the same height, the same slot
// demand, and at every block node the same find(y, ·) position.
func TestOpenBlockMatchesCore(t *testing.T) {
	cases := 1000
	if testing.Short() {
		cases = 100
	}
	var b flat.Block // shared across cases: a reused block must not leak state
	for c := 0; c < cases; c++ {
		caseSeed := differentialBaseSeed + int64(c)
		bt, st, f, total, rng := differentialStructure(t, c, caseSeed)
		ys := []catalog.Key{0, catalog.PlusInf}
		for i := 0; i < 4; i++ {
			ys = append(ys, catalog.Key(rng.Int63n(int64(total*4+2))))
		}
		for si := 0; si < st.NumSubstructures(); si++ {
			sub := st.Substructure(si)
			for v := tree.NodeID(0); int(v) < bt.N(); v++ {
				block := sub.BlockAt(v)
				if block == nil {
					continue
				}
				for _, y := range ys {
					pos := f.EntryProbe(v, y)
					wantPos, wantSlots, err := st.FindAllInBlock(sub, block, y, pos)
					if err != nil {
						t.Fatalf("case seed %d: core FindAllInBlock(sub %d, block %d, y=%d): %v", caseSeed, si, v, y, err)
					}
					slots, err := f.OpenBlock(si, v, y, pos, &b)
					if err != nil {
						t.Fatalf("case seed %d: OpenBlock(sub %d, block %d, y=%d): %v", caseSeed, si, v, y, err)
					}
					if slots != wantSlots || b.Height != block.Height || len(b.Nodes) != len(block.Nodes) {
						t.Fatalf("case seed %d: OpenBlock(sub %d, block %d, y=%d) = %d slots, height %d, %d nodes; core %d, %d, %d",
							caseSeed, si, v, y, slots, b.Height, len(b.Nodes), wantSlots, block.Height, len(block.Nodes))
					}
					for z, u := range block.Nodes {
						if b.Nodes[z] != u {
							t.Fatalf("case seed %d: block %d local %d is node %d, core %d", caseSeed, v, z, b.Nodes[z], u)
						}
						if got := f.FindInBlock(&b, int32(z)); got != int(wantPos[z]) {
							t.Fatalf("case seed %d: FindInBlock(block %d, local %d, y=%d) = %d, core %d", caseSeed, v, z, y, got, wantPos[z])
						}
					}
				}
			}
		}
	}
}

// diffResults compares flat answers to pointer answers field for field.
func diffResults(t *testing.T, caseSeed int64, what string, got, want []cascade.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("case seed %d: %s returned %d results, want %d", caseSeed, what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("case seed %d: %s result[%d] = %+v, want %+v", caseSeed, what, i, got[i], want[i])
		}
	}
}
