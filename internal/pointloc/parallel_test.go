package pointloc

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"fraccascade/internal/core"
	"fraccascade/internal/flat"
)

// TestBuildParallelDeterministic pins the build-pool contract for the
// separator-tree preprocessing: the per-separator catalog construction
// fans out over host workers, but the built locator — separator layout
// and the underlying cooperative structure's cascade and frozen T′ — must
// be bit-identical to the sequential build for every parallelism value.
func TestBuildParallelDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seq, _, _ := buildLocator(t, 40, 6, seed, core.Config{Parallelism: 1})
		seqBytes := frozenBytes(t, seq.st)
		for _, par := range []int{2, 8, 0, runtime.NumCPU()} {
			l, _, _ := buildLocator(t, 40, 6, seed, core.Config{Parallelism: par})
			if !reflect.DeepEqual(l.sep, seq.sep) || !reflect.DeepEqual(l.region, seq.region) || !reflect.DeepEqual(l.sepNode, seq.sepNode) {
				t.Fatalf("seed %d par %d: separator layout differs from sequential", seed, par)
			}
			if !reflect.DeepEqual(l.st.Cascade(), seq.st.Cascade()) {
				t.Fatalf("seed %d par %d: cascade differs from sequential", seed, par)
			}
			if !bytes.Equal(frozenBytes(t, l.st), seqBytes) {
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
