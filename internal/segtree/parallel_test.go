package segtree

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fraccascade/internal/core"
	"fraccascade/internal/flat"
)

// TestNewIntersectorParallelDeterministic pins the build-pool contract
// for the segment-tree preprocessing: the per-node catalog builds fan out
// over host workers, but the built intersector — leaf layout and the
// structure's cascade and frozen T′ — must be bit-identical to
// the sequential build for every parallelism value.
func TestNewIntersectorParallelDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segs := randSegments(400, 600, rng)
		seq, err := NewIntersector(segs, core.Config{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		seqBytes := frozenBytes(t, seq.st)
		for _, par := range []int{2, 8, 0, runtime.NumCPU()} {
			it, err := NewIntersector(segs, core.Config{Parallelism: par})
			if err != nil {
				t.Fatalf("par %d: %v", par, err)
			}
			if !reflect.DeepEqual(it.leafLo, seq.leafLo) {
				t.Fatalf("seed %d par %d: leaf layout differs from sequential", seed, par)
			}
			if !reflect.DeepEqual(it.st.Cascade(), seq.st.Cascade()) {
				t.Fatalf("seed %d par %d: cascade differs from sequential", seed, par)
			}
			if !bytes.Equal(frozenBytes(t, it.st), seqBytes) {
				t.Fatalf("seed %d par %d: T' freezes to other bytes than sequential", seed, par)
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
