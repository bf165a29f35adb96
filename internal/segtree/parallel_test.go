package segtree

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fraccascade/internal/core"
)

// TestNewIntersectorParallelDeterministic pins the build-pool contract
// for the segment-tree preprocessing: the per-node catalog builds fan out
// over host workers, but the built intersector — leaf layout and the
// structure's exported state and cascade parts — must be bit-identical to
// the sequential build for every parallelism value.
func TestNewIntersectorParallelDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		segs := randSegments(400, 600, rng)
		seq, err := NewIntersector(segs, core.Config{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		seqState, err := seq.st.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		seqParts := seq.st.Cascade().ExportParts()
		for _, par := range []int{2, 8, 0, runtime.NumCPU()} {
			it, err := NewIntersector(segs, core.Config{Parallelism: par})
			if err != nil {
				t.Fatalf("par %d: %v", par, err)
			}
			if !reflect.DeepEqual(it.leafLo, seq.leafLo) {
				t.Fatalf("seed %d par %d: leaf layout differs from sequential", seed, par)
			}
			state, err := it.st.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(state, seqState) {
				t.Fatalf("seed %d par %d: structure state differs from sequential", seed, par)
			}
			if !reflect.DeepEqual(it.st.Cascade().ExportParts(), seqParts) {
				t.Fatalf("seed %d par %d: cascade parts differ from sequential", seed, par)
			}
		}
	}
}
