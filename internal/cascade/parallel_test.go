package cascade

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fraccascade/internal/tree"
)

// TestParallelBuildDeterministic pins the build pool's output contract:
// Build fans the per-level merges out over host workers, but the resulting
// structure — catalogs, bridges, and recomputed statistics — must be
// bit-identical to the sequential build for every parallelism value, on
// seeded random trees in both construction modes. Failures print the seed
// so a shrinking reproduction is one -run invocation away.
func TestParallelBuildDeterministic(t *testing.T) {
	pars := []int{2, 3, 8, 0, runtime.NumCPU()}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		leaves := 8 << (seed % 3) // 8, 16, 32 leaves
		bt, err := tree.NewBalancedBinary(leaves)
		if err != nil {
			t.Fatal(err)
		}
		cats := randCatalogs(bt, 600, rng)
		for _, bidir := range []bool{false, true} {
			seq, err := Build(bt, cats, Options{Parallelism: 1, Bidirectional: bidir})
			if err != nil {
				t.Fatalf("seed %d bidir %v: sequential build: %v", seed, bidir, err)
			}
			for _, par := range pars {
				got, err := Build(bt, cats, Options{Parallelism: par, Bidirectional: bidir})
				if err != nil {
					t.Fatalf("seed %d bidir %v par %d: %v", seed, bidir, par, err)
				}
				if !reflect.DeepEqual(got, seq) {
					t.Fatalf("seed %d bidir %v: build with parallelism %d differs from sequential", seed, bidir, par)
				}
			}
			// Sequential forces parallelism 1 regardless of the knob.
			forced, err := Build(bt, cats, Options{Parallelism: 8, Sequential: true, Bidirectional: bidir})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(forced, seq) {
				t.Fatalf("seed %d bidir %v: Sequential build differs", seed, bidir)
			}
		}
	}
}
