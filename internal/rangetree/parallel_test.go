package rangetree

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fraccascade/internal/core"
)

// TestNew2DParallelDeterministic pins the build-pool contract for the
// range-tree preprocessing: the level-by-level merges, per-node catalog
// builds, and rank tables fan out over host workers, but the built tree —
// rank tables and the structure's exported state and cascade parts —
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
		seqState, err := seq.st.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		seqParts := seq.st.Cascade().ExportParts()
		for _, par := range []int{2, 8, 0, runtime.NumCPU()} {
			rt, err := New2D(pts, core.Config{Parallelism: par})
			if err != nil {
				t.Fatalf("par %d: %v", par, err)
			}
			if !reflect.DeepEqual(rt.rank, seq.rank) {
				t.Fatalf("seed %d par %d: rank tables differ from sequential", seed, par)
			}
			state, err := rt.st.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(state, seqState) {
				t.Fatalf("seed %d par %d: structure state differs from sequential", seed, par)
			}
			if !reflect.DeepEqual(rt.st.Cascade().ExportParts(), seqParts) {
				t.Fatalf("seed %d par %d: cascade parts differ from sequential", seed, par)
			}
		}
	}
}
