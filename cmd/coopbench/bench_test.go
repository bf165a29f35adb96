package main

import (
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fraccascade/internal/benchfmt"
	"fraccascade/internal/pram"
)

// reportedOnly returns a copy of f with every bound removed, so Compare
// checks only its shape: seed, declarations, row count, keys, and that
// every declared column is present.
func reportedOnly(f *benchfmt.File) *benchfmt.File {
	c := *f
	c.Metrics = slices.Clone(f.Metrics)
	for i := range c.Metrics {
		c.Metrics[i].Bound = nil
	}
	return &c
}

func findExperiment(t *testing.T, name string) experiment {
	t.Helper()
	for _, e := range experiments {
		if e.name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q", name)
	return experiment{}
}

// TestGatedExperimentsMatchBaselines runs every experiment that has a
// committed baseline, with that baseline's seed and executor, through the
// -json path into a temp dir and loads the file back through the shared
// loader. The keys and declarations it writes must equal the baseline's
// (bounds live only in the experiments' declarations; the baselines hold
// generated copies), its rows must align with the baseline's, and it must
// self-compare clean. Writing or loading fails on any numeric column that
// is neither a key nor declared.
func TestGatedExperimentsMatchBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("gated experiments skipped in -short mode")
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "bench", "baselines", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no baselines: %v", err)
	}
	t.Cleanup(func() { wallMode = false })
	dir := t.TempDir()
	for _, p := range paths {
		base, err := benchfmt.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(base.Experiment, func(t *testing.T) {
			// Simulated passes stay on the default virtual executor, as
			// under -executor=wall.
			wallMode = base.Executor == pram.KindWall.String()
			if err := runExperiment(findExperiment(t, base.Experiment), base.Seed, base.Executor, dir); err != nil {
				t.Fatal(err)
			}
			got, err := benchfmt.Load(filepath.Join(dir, filepath.Base(p)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Columns, base.Columns) {
				t.Fatalf("declarations differ from the committed baseline; regenerate it:\ngot  %+v\nwant %+v", got.Columns, base.Columns)
			}
			if got.Host == nil || *got.Host != *benchfmt.ThisHost() {
				t.Fatalf("host = %v, want %v", got.Host, benchfmt.ThisHost())
			}
			if regs := benchfmt.Compare(got, got); len(regs) != 0 {
				t.Fatalf("self-compare regressed: %v", regs)
			}
			if regs := benchfmt.Compare(reportedOnly(base), reportedOnly(got)); len(regs) != 0 {
				t.Fatalf("rows do not align with the baseline: %v", regs)
			}
		})
	}
}

// TestRecordedColumnsAreDeclared: the experiments that record rows without
// a baseline must still declare every numeric column, or -json fails.
func TestRecordedColumnsAreDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short mode")
	}
	dir := t.TempDir()
	for _, name := range []string{"e1", "e14"} {
		if err := runExperiment(findExperiment(t, name), 1, "virtual", dir); err != nil {
			t.Fatal(err)
		}
		f, err := benchfmt.Load(filepath.Join(dir, "BENCH_"+strings.ToUpper(name)+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Rows) == 0 || len(f.Metrics) == 0 {
			t.Fatalf("%s wrote %d rows, %d metrics", name, len(f.Rows), len(f.Metrics))
		}
	}
}

var e22AllocSink []byte

// TestE22MeasureReportsAllocations: taking the fewest mallocs over passes
// drops the runtime's one-off allocations but not the measured code's: an
// allocation in every op reads at least 1/op, and a single allocation per
// pass still reads above zero.
func TestE22MeasureReportsAllocations(t *testing.T) {
	const ops = 512
	_, perOp := e22Measure(ops, func() {
		for i := 0; i < ops; i++ {
			e22AllocSink = make([]byte, 64)
		}
	})
	_, perPass := e22Measure(ops, func() { e22AllocSink = make([]byte, 64) })
	if perOp < 1 || perPass <= 0 {
		t.Fatalf("allocs/op = %v with one allocation per op, %v with one per pass; want >= 1 and > 0", perOp, perPass)
	}
}
