package core

import (
	"reflect"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/faults"
)

// TestParallelBuildDegradedEquivalence closes the loop with the fault
// injector: a structure built in parallel must behave identically to the
// sequential build even under degraded execution — the same seeded fault
// plan yields the same answers and the same degraded statistics on both.
func TestParallelBuildDegradedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seq, _, rng := buildStructure(t, 16, 400, seed, Config{Parallelism: 1})
		par, _, _ := buildStructure(t, 16, 400, seed, Config{Parallelism: 0})
		p := 4 + rng.Intn(28)
		plan, err := faults.Random(seed, p, faults.Options{
			CrashRate:     0.3,
			StragglerRate: 0.3,
			MaxStall:      3,
			Horizon:       32,
		})
		if err != nil {
			t.Fatal(err)
		}
		if plan.MinLive(64) < 1 {
			continue
		}
		path := randomLeafPath(seq.Tree(), rng)
		for q := 0; q < 5; q++ {
			y := catalog.Key(rng.Intn(1800))
			gotSeq, dsSeq, errSeq := seq.SearchExplicitDegraded(y, path, p, plan)
			gotPar, dsPar, errPar := par.SearchExplicitDegraded(y, path, p, plan)
			if (errSeq == nil) != (errPar == nil) {
				t.Fatalf("seed %d y %d: error mismatch: seq %v, par %v", seed, y, errSeq, errPar)
			}
			if errSeq != nil {
				continue
			}
			if !reflect.DeepEqual(gotSeq, gotPar) {
				t.Fatalf("seed %d y %d: degraded results differ between sequential and parallel builds", seed, y)
			}
			if !reflect.DeepEqual(dsSeq, dsPar) {
				t.Fatalf("seed %d y %d: degraded stats differ: seq %+v, par %+v", seed, y, dsSeq, dsPar)
			}
		}
	}
}
