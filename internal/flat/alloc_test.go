package flat_test

import (
	"math/rand"
	"os"
	"testing"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/flat"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// skipIfGuardDisabled honours the repo-wide performance-guard escape hatch
// (FRACCASCADE_GUARD=skip), mirroring the batch throughput guard: alloc
// counts are runtime behaviour, not correctness, so constrained CI
// environments can opt out without weakening the functional suites.
func skipIfGuardDisabled(t *testing.T) {
	t.Helper()
	if os.Getenv("FRACCASCADE_GUARD") == "skip" {
		t.Skip("allocation guard skipped via FRACCASCADE_GUARD=skip")
	}
}

// TestSearchPathIntoZeroAllocs pins the tentpole's core claim: the flat
// sequential hot path allocates nothing per query.
func TestSearchPathIntoZeroAllocs(t *testing.T) {
	skipIfGuardDisabled(t)
	st, f, rng := buildFrozen(t, 1<<6, 6000, 40)
	bt := st.Tree()
	leaf := tree.NodeID(bt.N() - 1 - rng.Intn(1<<6))
	path := bt.RootPath(leaf)
	out := make([]cascade.Result, len(path))
	y := catalog.Key(rng.Intn(24000))
	allocs := testing.AllocsPerRun(200, func() {
		if err := f.SearchPathInto(y, path, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SearchPathInto allocates %.1f per query, want 0", allocs)
	}
}

// TestSearchExplicitIntoZeroAllocs extends the zero-alloc guarantee to the
// cooperative search replica (the path the engine's flat backend serves).
func TestSearchExplicitIntoZeroAllocs(t *testing.T) {
	skipIfGuardDisabled(t)
	st, f, rng := buildFrozen(t, 1<<6, 6000, 41)
	bt := st.Tree()
	leaf := tree.NodeID(bt.N() - 1 - rng.Intn(1<<6))
	path := bt.RootPath(leaf)
	out := make([]cascade.Result, len(path))
	y := catalog.Key(rng.Intn(24000))
	for _, p := range []int{1, 16, 1 << 12, 1 << 18} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := f.SearchExplicitInto(y, path, p, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("SearchExplicitInto(p=%d) allocates %.1f per query, want 0", p, allocs)
		}
	}
}

// TestWallBatchZeroAllocs asserts the wall executor's steady state: after
// the executor has warmed up, one workpool Run over a batch of flat
// searches allocates nothing (the search closure and all batch state are
// built once up front; helpers park between batches).
func TestWallBatchZeroAllocs(t *testing.T) {
	skipIfGuardDisabled(t)
	st, f, rng := buildFrozen(t, 1<<6, 6000, 42)
	bt := st.Tree()
	const batch = 32
	ys := make([]catalog.Key, batch)
	paths := make([][]tree.NodeID, batch)
	out := make([][]cascade.Result, batch)
	errs := make([]error, batch)
	for i := range ys {
		ys[i] = catalog.Key(rng.Intn(24000))
		paths[i] = bt.RootPath(tree.NodeID(bt.N() - 1 - rng.Intn(1<<6)))
		out[i] = make([]cascade.Result, len(paths[i]))
	}
	pool := workpool.New(4)
	search := func(i int) { errs[i] = f.SearchPathInto(ys[i], paths[i], out[i]) }
	// Warm up the scheduler (helper spawn, sudog pools, stack growth)
	// before measuring.
	for i := 0; i < 8; i++ {
		pool.Run(batch, search)
	}
	allocs := testing.AllocsPerRun(100, func() { pool.Run(batch, search) })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if allocs != 0 {
		t.Errorf("a wall batch allocates %.1f per batch, want 0", allocs)
	}
}

// TestFreezeAllocsBounded pins Freeze's exact-size allocation discipline: a
// fixed handful of slice headers plus a fixed handful per substructure,
// independent of node and entry counts.
func TestFreezeAllocsBounded(t *testing.T) {
	skipIfGuardDisabled(t)
	rng := rand.New(rand.NewSource(43))
	bt, err := tree.NewBalancedBinary(1 << 6)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Build(bt, randCatalogs(bt, 8000, rng), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := flat.Freeze(st); err != nil {
			t.Fatal(err)
		}
	})
	bound := float64(16 + 10*st.NumSubstructures())
	if allocs > bound {
		t.Errorf("Freeze allocates %.1f, want <= %.0f (16 + 10 per substructure)", allocs, bound)
	}
}
