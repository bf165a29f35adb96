// Regression guard for the batched query engine (experiment E20): batched
// execution at b=64 must beat the one-query-at-a-time baseline in
// queries/step under the same total processor budget. `make bench-check`
// runs exactly this test; if an engine change sinks batched throughput to
// or below sequential, the target fails.
package fraccascade

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/engine"
	"fraccascade/internal/pointloc"
	"fraccascade/internal/spatial"
	"fraccascade/internal/subdivision"
	"fraccascade/internal/tree"
)

// engineFixture bundles the structures behind a mixed-workload engine.
type engineFixture struct {
	eng   *engine.Engine
	bt    *tree.Tree
	sub   *subdivision.Subdivision
	cx    *spatial.Complex
	bound int64
	procs int
}

// buildEngineFixture assembles an engine over one static catalog shard, a
// planar subdivision, and a spatial complex — the E20 workload at root-test
// scale.
func buildEngineFixture(tb testing.TB, procs int, rng *rand.Rand) *engineFixture {
	tb.Helper()
	const total = 8000
	bt, err := tree.NewBalancedBinary(1 << 7)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := core.Build(bt, benchCatalogs(bt, total, rng), core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := subdivision.Generate(64, 16, rng)
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := pointloc.Build(s, core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	cx, err := spatial.Generate(60, 4, rng)
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := spatial.NewLocator(cx)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Procs: procs}, []*core.Structure{st}, pl, sp)
	if err != nil {
		tb.Fatal(err)
	}
	return &engineFixture{eng: eng, bt: bt, sub: s, cx: cx, bound: int64(total) * 8, procs: procs}
}

// randomQuery draws a mixed query; half the catalog keys come from narrow
// bands so the entry cache sees locality, as in E20.
func (fx *engineFixture) randomQuery(rng *rand.Rand) engine.Query {
	switch rng.Intn(4) {
	case 0, 1:
		y := catalog.Key(rng.Int63n(fx.bound))
		if rng.Intn(2) == 0 {
			y = catalog.Key((fx.bound/8)*int64(1+rng.Intn(7)) + rng.Int63n(128) - 64)
		}
		return engine.CatalogQuery(0, y, fx.bt.RootPath(tree.NodeID(rng.Intn(fx.bt.N()))))
	case 2:
		pt, _ := fx.sub.RandomInteriorPoint(rng)
		return engine.PointQuery(pt)
	default:
		x, y, z, _ := fx.cx.RandomInteriorPoint(rng)
		return engine.SpatialQuery(x, y, z)
	}
}

// measure runs rounds batches of size b and returns (batched q/step,
// sequential q/step) over the whole stream.
func (fx *engineFixture) measure(tb testing.TB, rng *rand.Rand, b, rounds int) (float64, float64) {
	tb.Helper()
	var batchSteps, seqSteps int64
	for r := 0; r < rounds; r++ {
		qs := make([]engine.Query, b)
		for i := range qs {
			qs[i] = fx.randomQuery(rng)
		}
		answers, rep, err := fx.eng.ExecuteBatch(qs)
		if err != nil {
			tb.Fatal(err)
		}
		for i := range answers {
			if answers[i].Err != nil {
				tb.Fatalf("round %d query %d: %v", r, i, answers[i].Err)
			}
		}
		batchSteps += int64(rep.Steps)
		_, sTotal, err := fx.eng.ExecuteSequential(qs)
		if err != nil {
			tb.Fatal(err)
		}
		seqSteps += int64(sTotal)
	}
	n := float64(b * rounds)
	return n / float64(batchSteps), n / float64(seqSteps)
}

// TestBatchThroughputGuard fails when batched execution at b=64 stops
// beating the sequential baseline at equal processor budget — the E20
// acceptance bar, kept as a cheap deterministic test.
//
// The bar is environment-tunable so constrained or shared runners can
// relax (or tighten) it without editing the test:
//
//	FRACCASCADE_GUARD=skip          skip the guard entirely
//	FRACCASCADE_GUARD_MARGIN=1.5    require batched ≥ 1.5× sequential
//	                                (default 1.0: strictly above baseline)
func TestBatchThroughputGuard(t *testing.T) {
	if os.Getenv("FRACCASCADE_GUARD") == "skip" {
		t.Skip("throughput guard skipped via FRACCASCADE_GUARD=skip")
	}
	margin := 1.0
	if s := os.Getenv("FRACCASCADE_GUARD_MARGIN"); s != "" {
		m, err := strconv.ParseFloat(s, 64)
		if err != nil || m <= 0 {
			t.Fatalf("bad FRACCASCADE_GUARD_MARGIN %q: want a positive float", s)
		}
		margin = m
	}
	rng := rand.New(rand.NewSource(20))
	fx := buildEngineFixture(t, 4096, rng)
	batched, sequential := fx.measure(t, rng, 64, 6)
	t.Logf("b=64: batched %.3f q/step, sequential %.3f q/step (%.1fx, margin %.2f)",
		batched, sequential, batched/sequential, margin)
	if batched <= sequential*margin {
		t.Fatalf("batched throughput regressed: %.3f q/step is not above the sequential baseline %.3f q/step × margin %.2f",
			batched, sequential, margin)
	}
}
