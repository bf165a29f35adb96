package rangetree

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fraccascade/internal/core"
	"fraccascade/internal/flat"
)

// TestNew2DParallelDeterministic pins the build-pool contract for the
// range-tree preprocessing: the level-by-level merges, per-node catalog
// builds, and rank tables fan out over host workers, but the built tree —
// rank tables and the structure's cascade and frozen T′ —
// must be bit-identical to the sequential build for every parallelism
// value.
func TestNew2DParallelDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := randPoints(900, 1200, rng)
		seq, err := New2D(pts, core.Config{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		seqBytes := frozenBytes(t, seq.st)
		for _, par := range []int{2, 8, 0, runtime.NumCPU()} {
			rt, err := New2D(pts, core.Config{Parallelism: par})
			if err != nil {
				t.Fatalf("par %d: %v", par, err)
			}
			if !reflect.DeepEqual(rt.rank, seq.rank) {
				t.Fatalf("seed %d par %d: rank tables differ from sequential", seed, par)
			}
			if !reflect.DeepEqual(rt.st.Cascade(), seq.st.Cascade()) {
				t.Fatalf("seed %d par %d: cascade differs from sequential", seed, par)
			}
			if !bytes.Equal(frozenBytes(t, rt.st), seqBytes) {
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
