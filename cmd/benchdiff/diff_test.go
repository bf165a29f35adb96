package main

import (
	"bytes"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fraccascade/internal/benchfmt"
)

func loadBaseline(t *testing.T, exp string) *benchfmt.File {
	t.Helper()
	b, err := benchfmt.Load(filepath.Join("..", "..", "bench", "baselines", "BENCH_"+exp+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) == 0 {
		t.Fatalf("baseline %s has no rows", exp)
	}
	return b
}

// cloneRows deep-copies the row maps and declarations so tests can perturb
// a candidate without mutating the loaded baseline.
func cloneRows(b *benchfmt.File) *benchfmt.File {
	c := *b
	c.Keys = slices.Clone(b.Keys)
	c.Metrics = slices.Clone(b.Metrics)
	c.Rows = make([]map[string]any, len(b.Rows))
	for i, r := range b.Rows {
		m := make(map[string]any, len(r))
		for k, v := range r {
			m[k] = v
		}
		c.Rows[i] = m
	}
	return &c
}

// withBound returns a copy of b whose named metrics declare bound, so a
// test can gate a baseline and its candidates under another tolerance.
func withBound(b *benchfmt.File, bound float64, names ...string) *benchfmt.File {
	c := cloneRows(b)
	for i := range c.Metrics {
		if slices.Contains(names, c.Metrics[i].Name) {
			v := bound
			c.Metrics[i].Bound = &v
		}
	}
	return c
}

func num(v any) (float64, bool) {
	f, ok := v.(float64)
	return f, ok
}

// TestCompareIdenticalPasses: the committed baselines must diff clean
// against themselves — the `make bench-gate` pass-on-unchanged-tree
// guarantee, minus the regeneration step.
func TestCompareIdenticalPasses(t *testing.T) {
	for _, exp := range []string{"E17", "E18", "E20", "E22"} {
		b := loadBaseline(t, exp)
		if regs := benchfmt.Compare(b, cloneRows(b)); len(regs) != 0 {
			t.Fatalf("%s: self-compare regressed: %v", exp, regs)
		}
	}
}

// TestCompareFlagsSlowedPhase injects an artificial phase slowdown into
// E17's per-phase step counts and requires the diff to fail — the
// failure-injection check for the regression gate.
func TestCompareFlagsSlowedPhase(t *testing.T) {
	base := loadBaseline(t, "E17")
	for _, phase := range []string{"root_steps", "hop_steps", "machine_steps"} {
		cand := cloneRows(base)
		slowed := false
		for _, row := range cand.Rows {
			if v, ok := num(row[phase]); ok && v > 0 {
				row[phase] = v * 2
				slowed = true
			}
		}
		if !slowed {
			t.Fatalf("no row has positive %s to slow down", phase)
		}
		regs := benchfmt.Compare(base, cand)
		if len(regs) == 0 {
			t.Fatalf("doubling %s was not flagged", phase)
		}
		if !strings.Contains(regs[0], phase) {
			t.Fatalf("regression message does not name %s: %q", phase, regs[0])
		}
		// A step improvement (fewer steps) must NOT fail the gate.
		better := cloneRows(base)
		for _, row := range better.Rows {
			if v, ok := num(row[phase]); ok && v > 1 {
				row[phase] = v - 1
			}
		}
		if regs := benchfmt.Compare(base, better); len(regs) != 0 {
			t.Fatalf("step improvement in %s flagged as regression: %v", phase, regs)
		}
	}
}

// TestCompareStepToleranceAbsorbsSmallDrift: with a 10% step bound a 5%
// inflation passes and a 2x inflation still fails.
func TestCompareStepToleranceAbsorbsSmallDrift(t *testing.T) {
	base := withBound(loadBaseline(t, "E17"), 0.10, "machine_steps")
	small := cloneRows(base)
	for _, row := range small.Rows {
		if v, ok := num(row["machine_steps"]); ok {
			row["machine_steps"] = v * 1.05
		}
	}
	if regs := benchfmt.Compare(base, small); len(regs) != 0 {
		t.Fatalf("5%% drift flagged under 10%% tolerance: %v", regs)
	}
	big := cloneRows(base)
	for _, row := range big.Rows {
		if v, ok := num(row["machine_steps"]); ok {
			row["machine_steps"] = v * 2
		}
	}
	if regs := benchfmt.Compare(base, big); len(regs) == 0 {
		t.Fatal("2x drift passed under 10% tolerance")
	}
}

// TestCompareThroughputDirection: throughput regresses downward — a dip
// beyond tolerance fails, a dip within it passes, and a gain never fails.
func TestCompareThroughputDirection(t *testing.T) {
	base := loadBaseline(t, "E20")
	scale := func(f float64) *benchfmt.File {
		c := cloneRows(base)
		for _, row := range c.Rows {
			if v, ok := num(row["queries_per_step"]); ok {
				row["queries_per_step"] = v * f
			}
		}
		return c
	}
	if regs := benchfmt.Compare(base, scale(0.8)); len(regs) != 0 {
		t.Fatalf("20%% throughput dip flagged under 35%% tolerance: %v", regs)
	}
	if regs := benchfmt.Compare(base, scale(0.5)); len(regs) == 0 {
		t.Fatal("50% throughput dip passed under 35% tolerance")
	}
	if regs := benchfmt.Compare(base, scale(3)); len(regs) != 0 {
		t.Fatalf("throughput gain flagged: %v", regs)
	}
}

// TestCompareExactAndIdentityFields: the Snir lower bound may not drift in
// either direction, and identity-field changes invalidate the comparison.
func TestCompareExactAndIdentityFields(t *testing.T) {
	base := loadBaseline(t, "E18")
	loose := withBound(base, 10, "uniform", "binary")
	drift := cloneRows(loose)
	v, ok := num(drift.Rows[0]["lower_bound"])
	if !ok {
		t.Fatal("E18 rows lack lower_bound")
	}
	drift.Rows[0]["lower_bound"] = v - 1 // an "improvement" — still a drift
	if regs := benchfmt.Compare(loose, drift); len(regs) == 0 {
		t.Fatal("lower_bound drift passed")
	}

	ident := cloneRows(base)
	ident.Rows[0]["n"] = 12345.0
	regs := benchfmt.Compare(base, ident)
	if len(regs) == 0 || !strings.Contains(regs[0], "identity") {
		t.Fatalf("identity change not flagged: %v", regs)
	}

	reseeded := cloneRows(base)
	reseeded.Seed = 999
	if regs := benchfmt.Compare(base, reseeded); len(regs) == 0 {
		t.Fatal("seed mismatch passed")
	}
}

// TestCompareRowShapeChanges: row-count changes and missing metric fields
// are regressions, not silent skips.
func TestCompareRowShapeChanges(t *testing.T) {
	base := loadBaseline(t, "E17")
	short := cloneRows(base)
	short.Rows = short.Rows[:len(short.Rows)-1]
	if regs := benchfmt.Compare(base, short); len(regs) == 0 {
		t.Fatal("dropped row passed")
	}
	gone := cloneRows(base)
	delete(gone.Rows[0], "machine_steps")
	regs := benchfmt.Compare(base, gone)
	if len(regs) == 0 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("missing field not flagged: %v", regs)
	}
}

// TestCompareLatencyDirection: E22's host-clock ns/op columns regress
// upward under their wide 4x bound — machine noise inside it passes, an
// order-of-magnitude slowdown fails, and getting faster never fails.
// Injected on each latency column separately so a mis-declared column
// cannot hide.
func TestCompareLatencyDirection(t *testing.T) {
	base := loadBaseline(t, "E22")
	for _, field := range []string{"pointer_ns_per_op", "flat_ns_per_op", "wall_ns_per_op"} {
		scale := func(f float64) *benchfmt.File {
			c := cloneRows(base)
			for _, row := range c.Rows {
				if v, ok := num(row[field]); ok {
					row[field] = v * f
				}
			}
			return c
		}
		if regs := benchfmt.Compare(base, scale(2)); len(regs) != 0 {
			t.Fatalf("2x %s flagged under 4x tolerance: %v", field, regs)
		}
		regs := benchfmt.Compare(base, scale(10))
		if len(regs) == 0 {
			t.Fatalf("10x %s passed under 4x tolerance", field)
		}
		if !strings.Contains(regs[0], field) {
			t.Fatalf("regression message does not name %s: %q", field, regs[0])
		}
		if regs := benchfmt.Compare(base, scale(0.1)); len(regs) != 0 {
			t.Fatalf("%s speedup flagged: %v", field, regs)
		}
	}
}

// TestCompareAllocsExact: the committed E22 baseline claims 0 allocs/op on
// the flat and wall hot paths, and the gate holds that claim exactly —
// even a fraction of a malloc per op (one allocation somewhere in a timed
// loop) fails regardless of the latency bound.
func TestCompareAllocsExact(t *testing.T) {
	base := loadBaseline(t, "E22")
	loose := withBound(base, 100, "pointer_ns_per_op", "flat_ns_per_op", "wall_ns_per_op")
	for _, field := range []string{"flat_allocs_per_op", "wall_allocs_per_op"} {
		v, ok := num(base.Rows[0][field])
		if !ok || v != 0 {
			t.Fatalf("baseline row 0 %s = %v, want the committed zero-alloc claim", field, base.Rows[0][field])
		}
		leak := cloneRows(loose)
		leak.Rows[0][field] = 0.5
		regs := benchfmt.Compare(loose, leak)
		if len(regs) == 0 {
			t.Fatalf("half a malloc per op in %s passed", field)
		}
		if !strings.Contains(regs[0], field) {
			t.Fatalf("regression message does not name %s: %q", field, regs[0])
		}
	}
	// The workload tag is a string, not a metric: renaming it is invisible
	// to the numeric diff (the shape is pinned by n/p identity fields).
	tagged := cloneRows(base)
	tagged.Rows[0]["workload"] = "renamed"
	if regs := benchfmt.Compare(base, tagged); len(regs) != 0 {
		t.Fatalf("string field change flagged as numeric regression: %v", regs)
	}
}

// TestCompareTelemetryOverheadGate: E25's overhead ratio regresses upward
// under its own bound — a regression past it fails naming the field,
// growth inside it passes, and cheaper telemetry never fails. The raw
// ns-per-query columns carry the 4x latency bound, so a machine-speed
// shift that moves both arms equally leaves the gated ratio untouched.
func TestCompareTelemetryOverheadGate(t *testing.T) {
	base := loadBaseline(t, "E25")
	if regs := benchfmt.Compare(base, cloneRows(base)); len(regs) != 0 {
		t.Fatalf("E25 self-compare regressed: %v", regs)
	}
	scale := func(field string, f float64) *benchfmt.File {
		c := cloneRows(base)
		for _, row := range c.Rows {
			if v, ok := num(row[field]); ok {
				row[field] = v * f
			}
		}
		return c
	}
	if regs := benchfmt.Compare(base, scale("telemetry_overhead_ratio", 1.2)); len(regs) != 0 {
		t.Fatalf("20%% ratio growth flagged under 50%% tolerance: %v", regs)
	}
	regs := benchfmt.Compare(base, scale("telemetry_overhead_ratio", 2))
	if len(regs) == 0 {
		t.Fatal("2x overhead ratio passed under 50% tolerance")
	}
	if !strings.Contains(regs[0], "telemetry_overhead_ratio") {
		t.Fatalf("regression message does not name the ratio: %q", regs[0])
	}
	if regs := benchfmt.Compare(base, scale("telemetry_overhead_ratio", 0.5)); len(regs) != 0 {
		t.Fatalf("cheaper telemetry flagged: %v", regs)
	}
	// Both ns columns are latency-class: 10x fails, 2x passes under the
	// wide machine bound.
	for _, field := range []string{"disabled_ns_per_query", "enabled_ns_per_query"} {
		if regs := benchfmt.Compare(base, scale(field, 2)); len(regs) != 0 {
			t.Fatalf("2x %s flagged under 4x tolerance: %v", field, regs)
		}
		if regs := benchfmt.Compare(base, scale(field, 10)); len(regs) == 0 {
			t.Fatalf("10x %s passed under 4x tolerance", field)
		}
	}
}

// TestRuleOverEveryBaseline holds the one rule on every committed baseline
// and every declared column: just past the bound in the worse direction
// fails, at or just inside it passes, any move in the better direction
// passes, reported-only columns never fail, and a changed key, unit,
// direction or bound, or a dropped column, fails asking for a regenerated
// baseline.
func TestRuleOverEveryBaseline(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "bench", "baselines", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no baselines: %v", err)
	}
	nudge := func(v float64) float64 { return 1e-6 * math.Max(1, math.Abs(v)) }
	for _, p := range paths {
		base, err := benchfmt.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range base.Metrics {
			for i, row := range base.Rows {
				bv, ok := num(row[m.Name])
				if !ok {
					continue
				}
				verdict := func(v float64) []string {
					c := cloneRows(base)
					c.Rows[i][m.Name] = v
					return benchfmt.Compare(base, c)
				}
				var pass, fail []float64
				switch {
				case m.Bound == nil:
					pass = []float64{bv*100 + 100, -bv*100 - 100}
				case m.Better == benchfmt.Lower:
					edge := bv*(1+*m.Bound) + m.Slack
					pass = []float64{edge, edge - nudge(edge), bv - nudge(bv), bv/2 - 1}
					fail = []float64{edge + nudge(edge)}
				case m.Better == benchfmt.Higher:
					edge := bv*(1-*m.Bound) - m.Slack
					pass = []float64{edge, edge + nudge(edge), bv + nudge(bv), bv*2 + 1}
					fail = []float64{edge - nudge(edge)}
				default:
					pass = []float64{bv}
					fail = []float64{bv + nudge(bv), bv - nudge(bv)}
				}
				for _, v := range pass {
					if regs := verdict(v); len(regs) != 0 {
						t.Errorf("%s row %d: %s %v -> %v failed: %v", base.Experiment, i, m.Name, bv, v, regs)
					}
				}
				for _, v := range fail {
					if regs := verdict(v); len(regs) == 0 || !strings.Contains(regs[0], m.Name) {
						t.Errorf("%s row %d: %s %v -> %v passed: %v", base.Experiment, i, m.Name, bv, v, regs)
					}
				}
			}
		}

		changes := map[string]func(c *benchfmt.File){}
		for _, k := range base.Keys {
			changes["value of key "+k] = func(c *benchfmt.File) {
				if v, ok := num(c.Rows[0][k]); ok {
					c.Rows[0][k] = v + 1
				} else {
					c.Rows[0][k] = "renamed"
				}
			}
			changes["declared key "+k] = func(c *benchfmt.File) { c.Keys = slices.DeleteFunc(c.Keys, func(s string) bool { return s == k }) }
		}
		for j, m := range base.Metrics {
			changes["unit of "+m.Name] = func(c *benchfmt.File) { c.Metrics[j].Unit += "2" }
			changes["better of "+m.Name] = func(c *benchfmt.File) {
				c.Metrics[j].Better = benchfmt.Higher
				if m.Better == benchfmt.Higher {
					c.Metrics[j].Better = benchfmt.Lower
				}
			}
			changes["bound of "+m.Name] = func(c *benchfmt.File) {
				b := 0.5
				if m.Bound != nil {
					b += *m.Bound
				}
				c.Metrics[j].Bound = &b
			}
			changes["dropped "+m.Name] = func(c *benchfmt.File) {
				c.Metrics = slices.Delete(c.Metrics, j, j+1)
				for _, row := range c.Rows {
					delete(row, m.Name)
				}
			}
		}
		for name, change := range changes {
			c := cloneRows(base)
			change(c)
			if regs := benchfmt.Compare(base, c); len(regs) == 0 || !strings.Contains(regs[0], "regenerate the baseline") {
				t.Errorf("%s: %s: got %v, want a regenerate-the-baseline failure", base.Experiment, name, regs)
			}
		}
	}
}

// TestRegressionMessageShowsUnitAndBound: a regression prints both values
// with their unit and enough digits to differ, plus the bound applied.
func TestRegressionMessageShowsUnitAndBound(t *testing.T) {
	base := loadBaseline(t, "E22")
	cand := cloneRows(base)
	cand.Rows[0]["wall_allocs_per_op"] = 1.0 / 2048
	regs := benchfmt.Compare(base, cand)
	want := "wall_allocs_per_op regressed 0 -> 0.00048828125 allocs/op (lower is better, bound +0%)"
	if len(regs) != 1 || !strings.Contains(regs[0], want) {
		t.Fatalf("got %q, want it to contain %q", regs, want)
	}
}

// TestNewMetricNeedsNoBenchdiffEdit: a file declaring an experiment and a
// metric that exist nowhere in the code is gated by the unchanged command,
// so adding an experiment touches no benchdiff code. It also pins the
// command's output: the bounds applied on success, both hosts when they
// differ, and the exit codes.
func TestNewMetricNeedsNoBenchdiffEdit(t *testing.T) {
	baseDir, candDir := t.TempDir(), t.TempDir()
	write := func(dir string, ns float64, host *benchfmt.Host) {
		f := &benchfmt.File{
			Experiment: "e99", Seed: 1, Executor: "virtual", Host: host,
			Columns: benchfmt.Columns{Keys: []string{"rung"}, Metrics: []benchfmt.Metric{
				benchfmt.Gated("ladder_ns_per_query", "ns/query", benchfmt.Lower, 0.25),
				{Name: "ladder_bytes_per_query", Unit: "bytes/query", Better: benchfmt.Lower},
			}},
			Rows: []map[string]any{{"rung": "engine", "ladder_ns_per_query": ns, "ladder_bytes_per_query": ns * 7}},
		}
		if _, err := f.Write(dir); err != nil {
			t.Fatal(err)
		}
	}
	write(baseDir, 100, nil)
	for _, c := range []struct {
		ns   float64
		code int
		want string
	}{
		{125, 0, "e99 ok (1 rows; bounds: ladder_ns_per_query +25%)"},
		{60, 0, "e99 ok"},
		{126, 1, "e99: row 0 (rung=engine): ladder_ns_per_query regressed 100 -> 126 ns/query (lower is better, bound +25%)"},
	} {
		write(candDir, c.ns, benchfmt.ThisHost())
		var out, errs bytes.Buffer
		if code := run([]string{"-baseline", baseDir, "-candidate", candDir}, &out, &errs); code != c.code {
			t.Fatalf("ns=%v: exit %d, want %d\nstdout: %s\nstderr: %s", c.ns, code, c.code, &out, &errs)
		}
		all := out.String() + errs.String()
		if !strings.Contains(all, c.want) || !strings.Contains(all, "hosts differ: baseline unrecorded; candidate "+benchfmt.ThisHost().String()) {
			t.Fatalf("ns=%v: output lacks %q or the host line:\n%s", c.ns, c.want, all)
		}
	}
	var out, errs bytes.Buffer
	if code := run([]string{"-baseline", baseDir, "-candidate", candDir, "e99"}, &out, &errs); code != 2 {
		t.Fatalf("positional experiment filter accepted: exit %d", code)
	}
}
