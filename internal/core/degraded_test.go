package core

import (
	"math"
	"math/rand"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/faults"
	"fraccascade/internal/tree"
)

// degradedStepBound is the asserted constant factor on the Theorem 1 shape
// under degradation: steps ≤ bound·(log n / log(p′+1)) + slack, where p′ is
// the smallest surviving processor count. The additive slack absorbs the
// O(1) hop constants and the substructure-switch realignment descents.
func degradedStepBound(logN, minLive int) int {
	shape := float64(logN) / math.Log2(float64(minLive)+1)
	return int(6*shape) + 16
}

func randomLeafPath(tr *tree.Tree, rng *rand.Rand) []tree.NodeID {
	var leaves []tree.NodeID
	for v := tree.NodeID(0); int(v) < tr.N(); v++ {
		if tr.IsLeaf(v) {
			leaves = append(leaves, v)
		}
	}
	return tr.RootPath(leaves[rng.Intn(len(leaves))])
}

// TestDegradedMatchesOracleManyTrees is the acceptance property test: on
// ≥1000 randomized trees, under a seeded fault plan leaving at least one
// live processor, the degraded search returns exactly the sequential
// fractional-cascading walk's answers and stays within a constant factor
// of the (log n)/log p′ step shape.
func TestDegradedMatchesOracleManyTrees(t *testing.T) {
	trees := 1000
	if testing.Short() {
		trees = 100
	}
	for trial := 0; trial < trees; trial++ {
		seed := int64(trial) + 1
		leaves := 1 << (2 + trial%4) // 4..32 leaves
		st, _, rng := buildStructure(t, leaves, 200, seed, Config{})
		tr := st.Tree()

		p := 2 + rng.Intn(63)
		plan, err := faults.Random(seed, p, faults.Options{
			CrashRate:     0.4,
			StragglerRate: 0.3,
			MaxStall:      3,
			Horizon:       32,
		})
		if err != nil {
			t.Fatal(err)
		}
		if plan.MinLive(64) < 1 {
			continue // plans killing everyone are covered by TestDegradedAllDead
		}

		path := randomLeafPath(tr, rng)
		for q := 0; q < 3; q++ {
			y := catalog.Key(rng.Intn(900))
			got, ds, err := st.SearchExplicitDegraded(y, path, p, plan)
			if err != nil {
				t.Fatalf("trial %d seed %d p %d: %v\nplan: %v", trial, seed, p, err, plan.Events())
			}
			want, err := st.Cascade().SearchPath(y, path)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i].Key != want[i].Key || got[i].Payload != want[i].Payload {
					t.Fatalf("trial %d seed %d p %d y %d node %d: degraded (%d,%d) != oracle (%d,%d)\nplan: %v",
						trial, seed, p, y, path[i], got[i].Key, got[i].Payload, want[i].Key, want[i].Payload, plan.Events())
				}
			}
			if ds.MinLiveP < 1 || ds.MinLiveP > p {
				t.Fatalf("trial %d: MinLiveP = %d outside [1, %d]", trial, ds.MinLiveP, p)
			}
			if bound := degradedStepBound(st.Params().LogN, ds.MinLiveP); ds.Steps > bound {
				t.Fatalf("trial %d seed %d: %d steps exceeds degraded bound %d (logN=%d, minLive=%d)\nplan: %v",
					trial, seed, ds.Steps, bound, st.Params().LogN, ds.MinLiveP, plan.Events())
			}
		}
	}
}

// TestDegradedNoFaultsMatchesPlain: with a fault-free plan (or nil census)
// the degraded search is exactly SearchExplicit.
func TestDegradedNoFaultsMatchesPlain(t *testing.T) {
	st, _, rng := buildStructure(t, 1<<5, 1500, 7, Config{})
	plan, err := faults.NewPlan(16)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		path := randomLeafPath(st.Tree(), rng)
		y := catalog.Key(rng.Intn(6000))
		plain, ps, err := st.SearchExplicit(y, path, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, census := range []Census{nil, plan} {
			got, ds, err := st.SearchExplicitDegraded(y, path, 16, census)
			if err != nil {
				t.Fatal(err)
			}
			if ds.Steps != ps.Steps || ds.Redrives != 0 || ds.MinLiveP != 16 {
				t.Fatalf("fault-free degraded stats %+v diverge from plain %+v", ds, ps)
			}
			for i := range plain {
				if got[i] != plain[i] {
					t.Fatalf("fault-free degraded result %d differs", i)
				}
			}
		}
	}
}

// TestDegradedCrashToSingleSurvivor: a plan that kills all but one
// processor mid-search must still answer correctly, re-deriving down to
// the p′ = 1 substructure.
func TestDegradedCrashToSingleSurvivor(t *testing.T) {
	st, _, rng := buildStructure(t, 1<<6, 4000, 11, Config{})
	p := 1 << 10
	plan, err := faults.NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	for proc := 1; proc < p; proc++ {
		if err := plan.Crash(proc, 2); err != nil {
			t.Fatal(err)
		}
	}
	sawRedrive := false
	for q := 0; q < 30; q++ {
		path := randomLeafPath(st.Tree(), rng)
		y := catalog.Key(rng.Intn(16000))
		got, ds, err := st.SearchExplicitDegraded(y, path, p, plan)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.Cascade().SearchPath(y, path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Key != want[i].Key {
				t.Fatalf("y %d node %d: degraded %d != oracle %d", y, path[i], got[i].Key, want[i].Key)
			}
		}
		if ds.MinLiveP != 1 {
			t.Fatalf("MinLiveP = %d, want 1", ds.MinLiveP)
		}
		if ds.Redrives > 0 {
			sawRedrive = true
		}
	}
	if !sawRedrive {
		t.Error("mass crash from p=1024 to p=1 never re-derived the substructure")
	}
}

// TestDegradedAllDead: a plan with zero survivors is an error, not a wrong
// answer.
func TestDegradedAllDead(t *testing.T) {
	st, _, rng := buildStructure(t, 1<<4, 500, 13, Config{})
	p := 8
	plan, err := faults.NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < p; proc++ {
		if err := plan.Crash(proc, 0); err != nil {
			t.Fatal(err)
		}
	}
	path := randomLeafPath(st.Tree(), rng)
	if _, _, err := st.SearchExplicitDegraded(100, path, p, plan); err == nil {
		t.Error("search with zero live processors should fail")
	}

	// Death mid-search (after step 3) must also surface as an error.
	late, err := faults.NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < p; proc++ {
		if err := late.Crash(proc, 3); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.SearchExplicitDegraded(100, path, p, late); err == nil {
		t.Error("search outliving every processor should fail")
	}
}
