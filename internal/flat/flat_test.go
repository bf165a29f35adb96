package flat_test

import (
	"math/rand"
	"strings"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/flat"
	"fraccascade/internal/tree"
)

// randCatalogs builds one random native catalog per node with highly
// variable sizes (including empty), the same shape distribution the
// pointer-structure tests use.
func randCatalogs(t *tree.Tree, totalTarget int, rng *rand.Rand) []catalog.Catalog {
	n := t.N()
	cats := make([]catalog.Catalog, n)
	for v := 0; v < n; v++ {
		var size int
		switch rng.Intn(4) {
		case 0:
			size = 0
		case 1:
			size = rng.Intn(4)
		case 2:
			size = rng.Intn(2*totalTarget/(n+1) + 1)
		default:
			size = rng.Intn(totalTarget/4 + 1)
		}
		seen := map[catalog.Key]bool{}
		keys := make([]catalog.Key, 0, size)
		for len(keys) < size {
			k := catalog.Key(rng.Intn(totalTarget * 4))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		payloads := make([]int32, len(keys))
		for i := range payloads {
			payloads[i] = int32(v)*1000 + int32(i)
		}
		cats[v] = catalog.MustFromKeys(keys, payloads)
	}
	return cats
}

// buildFrozen builds a seeded pointer structure and its frozen twin.
func buildFrozen(tb testing.TB, leaves, total int, seed int64) (*core.Structure, *flat.Structure, *rand.Rand) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	bt, err := tree.NewBalancedBinary(leaves)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := core.Build(bt, randCatalogs(bt, total, rng), core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	f, err := flat.Freeze(st)
	if err != nil {
		tb.Fatal(err)
	}
	return st, f, rng
}

func TestFreezeShape(t *testing.T) {
	st, f, _ := buildFrozen(t, 1<<5, 3000, 1)
	if f.NumNodes() != st.Tree().N() {
		t.Errorf("NumNodes = %d, want %d", f.NumNodes(), st.Tree().N())
	}
	if f.Root() != st.Tree().Root() {
		t.Errorf("Root = %d, want %d", f.Root(), st.Tree().Root())
	}
	if f.NumSubstructures() != st.NumSubstructures() {
		t.Errorf("NumSubstructures = %d, want %d", f.NumSubstructures(), st.NumSubstructures())
	}
	if f.Params() != st.Params() {
		t.Errorf("Params = %+v, want %+v", f.Params(), st.Params())
	}
}

func TestSearchPathErrors(t *testing.T) {
	st, f, _ := buildFrozen(t, 1<<4, 1000, 2)
	bt := st.Tree()
	leaf := tree.NodeID(bt.N() - 1)
	path := bt.RootPath(leaf)

	if _, err := f.SearchPath(5, nil); err == nil || !strings.Contains(err.Error(), "empty path") {
		t.Errorf("empty path: got %v", err)
	}
	if _, err := f.SearchPath(5, []tree.NodeID{leaf}); err == nil {
		t.Error("non-root start should fail")
	}
	if _, err := f.SearchPath(5, []tree.NodeID{tree.NodeID(bt.N())}); err == nil {
		t.Error("out-of-range node should fail")
	}
	broken := append([]tree.NodeID{}, path...)
	if len(broken) > 2 {
		broken[1], broken[2] = broken[2], broken[1]
		if _, err := f.SearchPath(5, broken); err == nil {
			t.Error("broken parent chain should fail")
		}
	}
	if err := f.SearchPathInto(5, path, nil); err == nil {
		t.Error("short result buffer should fail")
	}
	if _, _, err := f.SearchExplicit(5, nil, 4); err == nil {
		t.Error("explicit empty path should fail")
	}
}

func TestEntrySurfaceMatchesCore(t *testing.T) {
	st, f, rng := buildFrozen(t, 1<<5, 4000, 3)
	bt := st.Tree()
	for i := 0; i < 500; i++ {
		v := tree.NodeID(rng.Intn(bt.N()))
		y := catalog.Key(rng.Intn(20000))
		gotPos := f.EntryProbe(v, y)
		wantPos := st.Cascade().Aug(v).Succ(y)
		if gotPos != wantPos {
			t.Fatalf("EntryProbe(%d, %d) = %d, want %d", v, y, gotPos, wantPos)
		}
		pos := rng.Intn(st.Cascade().Aug(v).Len())
		if got, want := f.ValidEntry(v, pos, y), st.ValidEntry(v, pos, y); got != want {
			t.Fatalf("ValidEntry(%d, %d, %d) = %v, want %v", v, pos, y, got, want)
		}
		gl, gh, gerr := f.EntryInterval(v, pos)
		wl, wh, werr := st.EntryInterval(v, pos)
		if (gerr == nil) != (werr == nil) || gl != wl || gh != wh {
			t.Fatalf("EntryInterval(%d, %d) = (%d, %d, %v), want (%d, %d, %v)", v, pos, gl, gh, gerr, wl, wh, werr)
		}
	}
	if _, _, err := f.EntryInterval(-1, 0); err == nil {
		t.Error("negative node should fail")
	}
	if _, _, err := f.EntryInterval(0, 1<<30); err == nil {
		t.Error("out-of-range position should fail")
	}
	if f.ValidEntry(-1, 0, 0) || f.ValidEntry(0, -1, 0) {
		t.Error("out-of-range ValidEntry should be false")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	st, f, rng := buildFrozen(t, 1<<5, 5000, 4)
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g flat.Structure
	if err := g.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	bt := st.Tree()
	for i := 0; i < 200; i++ {
		v := tree.NodeID(rng.Intn(bt.N()))
		path := bt.RootPath(v)
		y := catalog.Key(rng.Intn(24000))
		p := 1 << uint(rng.Intn(18))
		wantRes, wantStats, err := f.SearchExplicit(y, path, p)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, gotStats, err := g.SearchExplicit(y, path, p)
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats {
			t.Fatalf("decoded stats %+v, want %+v", gotStats, wantStats)
		}
		for j := range wantRes {
			if gotRes[j] != wantRes[j] {
				t.Fatalf("decoded result[%d] = %+v, want %+v", j, gotRes[j], wantRes[j])
			}
		}
	}
	blob2, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Error("re-encoding the decoded structure changed the bytes")
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	_, f, rng := buildFrozen(t, 1<<4, 1500, 5)
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g flat.Structure

	if err := g.UnmarshalBinary(nil); err == nil {
		t.Error("nil blob should fail")
	}
	if err := g.UnmarshalBinary(blob[:4]); err == nil {
		t.Error("truncated magic should fail")
	}
	if err := g.UnmarshalBinary(blob[:len(blob)-3]); err == nil {
		t.Error("truncated blob should fail")
	}
	if err := g.UnmarshalBinary(append(append([]byte{}, blob...), 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
	bad := append([]byte{}, blob...)
	bad[0] ^= 0xFF
	if err := g.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic should fail")
	}
	// 64 random single-bit flips anywhere in the body must be caught by the
	// CRC (or, if they land in the CRC itself, by the mismatch).
	for i := 0; i < 64; i++ {
		bad := append([]byte{}, blob...)
		bit := rng.Intn(len(bad) * 8)
		bad[bit/8] ^= 1 << uint(bit%8)
		if err := g.UnmarshalBinary(bad); err == nil {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
	}
}
