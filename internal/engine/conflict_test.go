package engine

import (
	"fmt"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/pram"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// TestSharedPoolIntroducesNoConflicts executes whole cooperative searches
// as conflict-checked PRAM programs (core.SearchExplicitPRAM) as indices of
// one shared-executor Run, with per-query CREW machines running their
// processors on goroutines. The machines' conflict detectors mechanically
// verify the claim of the batching design: sharing the host pool across
// queries introduces no concurrent memory access the single-query path did
// not already have — each query's program stays conflict-free, and its
// memory state and step count are identical to a solo (unpooled) run.
func TestSharedPoolIntroducesNoConflicts(t *testing.T) {
	rng := seededRNG(t, 61)
	bt, err := tree.NewBalancedBinary(32)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Build(bt, randomCatalogs(bt, 1200, 9600, rng), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const b = 24
	const p = 64
	type job struct {
		y    catalog.Key
		path []tree.NodeID
	}
	jobs := make([]job, b)
	for i := range jobs {
		jobs[i] = job{y: catalog.Key(rng.Int63n(9600)), path: randomPath(bt, rng)}
	}
	run := func(pool *workpool.Pool) ([][]int64, []core.PRAMSearchReport, []error) {
		mems := make([][]int64, b)
		reps := make([]core.PRAMSearchReport, b)
		errs := make([]error, b)
		pool.Run(b, func(i int) {
			m := pram.MustNew(pram.CREW, 1<<16)
			m.SetConcurrent(true)
			results, rep, err := st.SearchExplicitPRAM(m, jobs[i].y, jobs[i].path, p)
			if err == nil {
				want, oerr := st.Cascade().SearchPath(jobs[i].y, jobs[i].path)
				if oerr != nil {
					err = oerr
				} else {
					for k := range want {
						if results[k].Key != want[k].Key {
							err = fmt.Errorf("node %d: machine answer %d != oracle %d", jobs[i].path[k], results[k].Key, want[k].Key)
						}
					}
				}
			}
			mems[i] = m.LoadSlice(0, m.MemWords())
			reps[i] = rep
			errs[i] = err
		})
		return mems, reps, errs
	}
	pooledMems, pooledReps, pooledErrs := run(workpool.New(8))
	soloMems, soloReps, soloErrs := run(workpool.New(1))
	for i := range jobs {
		if pooledErrs[i] != nil {
			t.Fatalf("query %d under the shared pool: %v", i, pooledErrs[i])
		}
		if soloErrs[i] != nil {
			t.Fatalf("query %d solo: %v", i, soloErrs[i])
		}
		if pooledReps[i] != soloReps[i] {
			t.Errorf("query %d: pooled report %+v differs from solo %+v", i, pooledReps[i], soloReps[i])
		}
		if len(pooledMems[i]) != len(soloMems[i]) {
			t.Fatalf("query %d: machine memory sizes differ (%d vs %d)", i, len(pooledMems[i]), len(soloMems[i]))
		}
		for a := range pooledMems[i] {
			if pooledMems[i][a] != soloMems[i][a] {
				t.Fatalf("query %d: memory word %d differs under the pool (%d vs %d)",
					i, a, pooledMems[i][a], soloMems[i][a])
			}
		}
	}
}

// TestPoolPreservesModelRejection pins the EREW side of the conflict
// discipline: the cooperative search declares itself CREW, and running it
// through the shared pool must preserve exactly the single-query model
// check — every pooled attempt on an EREW machine is rejected with the
// model error before any step executes, never converted into a concurrent
// access on a weaker machine.
func TestPoolPreservesModelRejection(t *testing.T) {
	rng := seededRNG(t, 62)
	bt, err := tree.NewBalancedBinary(16)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Build(bt, randomCatalogs(bt, 400, 3200, rng), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const b = 12
	errs := make([]error, b)
	steps := make([]int, b)
	ys := make([]catalog.Key, b)
	paths := make([][]tree.NodeID, b)
	for i := 0; i < b; i++ {
		ys[i] = catalog.Key(rng.Int63n(3200))
		paths[i] = randomPath(bt, rng)
	}
	workpool.New(4).Run(b, func(i int) {
		m := pram.MustNew(pram.EREW, 1<<12)
		_, _, errs[i] = st.SearchExplicitPRAM(m, ys[i], paths[i], 16)
		steps[i] = m.Time()
	})
	for i := 0; i < b; i++ {
		if errs[i] == nil {
			t.Fatalf("query %d: EREW machine accepted a CREW program", i)
		}
		if steps[i] != 0 {
			t.Errorf("query %d: EREW machine executed %d steps before rejection", i, steps[i])
		}
	}
}
