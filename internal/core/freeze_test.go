package core_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/flat"
	"fraccascade/internal/tree"
)

// TestParallelBuildStateIdentical pins the build pool's contract at the
// core layer: Config.Parallelism fans catalog merges, block construction
// and bridge installation over host workers, but the cascade must equal
// the sequential build's and T′ must freeze to the same bytes, for every
// value, on seeded random workloads.
func TestParallelBuildStateIdentical(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seq, _, _ := core.BuildStructure(t, 32, 1200, seed, core.Config{Parallelism: 1})
		seqBytes := frozenBytes(t, seq)
		for _, par := range []int{2, 8, 0, runtime.NumCPU()} {
			st, _, _ := core.BuildStructure(t, 32, 1200, seed, core.Config{Parallelism: par})
			if !reflect.DeepEqual(st.Cascade(), seq.Cascade()) {
				t.Fatalf("seed %d: cascade built with parallelism %d differs from sequential", seed, par)
			}
			if !bytes.Equal(frozenBytes(t, st), seqBytes) {
				t.Fatalf("seed %d: T' built with parallelism %d freezes to other bytes than sequential", seed, par)
			}
		}
	}
}

// frozenBytes is the flat encoding of st: every array of T′ the served
// layout holds, so two structures with equal bytes answer alike.
func frozenBytes(tb testing.TB, st *core.Structure) []byte {
	tb.Helper()
	f, err := flat.Freeze(st)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := f.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestExportStateRoundTrip pins the round trip a snapshot load makes at
// this layer: a Structure's state is its Config plus its cascade's inputs
// (the tree and each node's native catalog), and Build on them gives an
// equal cascade, a T′ that freezes to the same bytes, and the same
// answers and Stats, for default and non-default settings.
func TestExportStateRoundTrip(t *testing.T) {
	for _, cfg := range []core.Config{{}, {NoTruncation: true, MaxSubs: 2}, {CascadeStride: 6}} {
		st, _, _ := core.BuildStructure(t, 16, 400, 17, cfg)
		tr := st.Tree()
		native := make([]catalog.Catalog, tr.N())
		for v := range native {
			native[v] = st.Cascade().Native(tree.NodeID(v))
		}
		got, err := core.Build(tr, native, st.Config())
		if err != nil {
			t.Fatalf("%+v: rebuild: %v", cfg, err)
		}
		if !reflect.DeepEqual(got.Cascade(), st.Cascade()) {
			t.Fatalf("%+v: rebuilt cascade differs", cfg)
		}
		if !bytes.Equal(frozenBytes(t, got), frozenBytes(t, st)) {
			t.Fatalf("%+v: rebuilt T' freezes to other bytes", cfg)
		}
		var leaf tree.NodeID
		for v := 0; v < tr.N(); v++ {
			if tr.IsLeaf(tree.NodeID(v)) {
				leaf = tree.NodeID(v)
			}
		}
		path := tr.RootPath(leaf)
		for _, p := range []int{1, 4, 128} {
			for y := catalog.Key(0); y < 1600; y += 97 {
				wr, ws, err1 := st.SearchExplicit(y, path, p)
				gr, gs, err2 := got.SearchExplicit(y, path, p)
				if err1 != nil || err2 != nil {
					t.Fatalf("search: %v / %v", err1, err2)
				}
				if !reflect.DeepEqual(wr, gr) || ws != gs {
					t.Fatalf("%+v p=%d y=%d: answers diverge", cfg, p, y)
				}
			}
		}
	}
}
