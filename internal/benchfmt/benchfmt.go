// Package benchfmt is the BENCH_<EXP>.json format that coopbench writes and
// benchdiff gates. A file declares how its rows compare: the identity keys
// that align a candidate's rows with a baseline's, and one Metric per
// numeric column in BENCHMARK.json's vocabulary. Compare applies one rule
// to whatever the baseline declares, so a new column needs no gate code.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Directions a metric can improve in. Exact marks a statement, not a
// measurement (E18's Snir bound): a gated exact column may not change.
const (
	Lower  = "lower"
	Higher = "higher"
	Exact  = "exact"
)

// Metric declares one numeric column. A column with a Bound is gated: the
// candidate may be worse than the baseline by the relative Bound plus the
// absolute Slack (in Unit). A column without one is only reported.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
	Slack  float64  `json:"slack,omitempty"`
}

// Gated declares a column gated under bound.
func Gated(name, unit, better string, bound float64) Metric {
	return Metric{Name: name, Unit: unit, Better: better, Bound: &bound}
}

// WithSlack returns m with an absolute slack on top of its bound.
func (m Metric) WithSlack(slack float64) Metric {
	m.Slack = slack
	return m
}

// regressed reports whether cand is worse than base beyond m's bound; the
// 1e-9 floor on the slack absorbs rounding in base*(1±bound).
func (m Metric) regressed(base, cand float64) bool {
	slack := math.Max(m.Slack, 1e-9)
	switch {
	case m.Bound == nil:
		return false
	case m.Better == Lower:
		return cand > base*(1+*m.Bound)+slack
	case m.Better == Higher:
		return cand < base*(1-*m.Bound)-slack
	}
	return cand != base
}

// rule renders the bound m is compared under, e.g. "+300% +1 ms".
func (m Metric) rule() string {
	switch {
	case m.Bound == nil:
		return "reported"
	case m.Better == Exact:
		return "exact"
	}
	sign := "+"
	if m.Better == Higher {
		sign = "-"
	}
	s := sign + fmtNum(100**m.Bound) + "%"
	if m.Slack != 0 {
		s += " " + sign + fmtNum(m.Slack) + " " + m.Unit
	}
	return s
}

func (m Metric) String() string {
	return fmt.Sprintf("%s (%s, %s is better, %s)", m.Name, m.Unit, m.Better, m.rule())
}

// Columns declares a file's row layout.
type Columns struct {
	Keys    []string `json:"keys,omitempty"`
	Metrics []Metric `json:"metrics,omitempty"`
}

// Bounds lists every gated metric with the bound it is compared under.
func (c Columns) Bounds() string {
	var parts []string
	for _, m := range c.Metrics {
		if m.Bound != nil {
			parts = append(parts, m.Name+" "+m.rule())
		}
	}
	return strings.Join(parts, ", ")
}

// Host records the machine a file was measured on.
type Host struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// ThisHost describes the running process's machine.
func ThisHost() *Host {
	return &Host{runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0)}
}

func (h *Host) String() string {
	if h == nil {
		return "unrecorded"
	}
	return fmt.Sprintf("%s %s/%s, %d CPUs, GOMAXPROCS=%d", h.Go, h.OS, h.Arch, h.NumCPU, h.GOMAXPROCS)
}

// File is one BENCH_<EXP>.json.
type File struct {
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Executor   string  `json:"executor"`
	WallMS     float64 `json:"wall_ms"`
	Host       *Host   `json:"host,omitempty"`
	Columns
	Rows []map[string]any `json:"rows"`
}

// check rejects an unknown direction and any numeric column that is
// neither a key nor a declared metric: it would pass the gate unchecked.
func (f *File) check() error {
	declared := map[string]bool{}
	for _, k := range f.Keys {
		declared[k] = true
	}
	for _, m := range f.Metrics {
		if m.Better != Lower && m.Better != Higher && m.Better != Exact {
			return fmt.Errorf("%s: metric %s: better %q is not lower, higher or exact", f.Experiment, m.Name, m.Better)
		}
		declared[m.Name] = true
	}
	for i, row := range f.Rows {
		for _, name := range sortedKeys(row) {
			if _, ok := num(row[name]); ok && !declared[name] {
				return fmt.Errorf("%s: row %d: column %s is neither a key nor a declared metric", f.Experiment, i, name)
			}
		}
	}
	return nil
}

// Write checks f and writes it to dir as BENCH_<EXP>.json.
func (f *File) Write(dir string) (string, error) {
	if err := f.check(); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+strings.ToUpper(f.Experiment)+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads and checks a BENCH file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := new(File)
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := f.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Compare returns one message per regression of cand against base under
// the columns base declares; none means cand passes. Improvements never
// fail: a baseline is refreshed by copying a newer file over it.
func Compare(base, cand *File) []string {
	var regs []string
	fail := func(format string, args ...any) {
		regs = append(regs, base.Experiment+": "+fmt.Sprintf(format, args...))
	}
	if base.Seed != cand.Seed {
		fail("seed mismatch: baseline %d, candidate %d (not comparable)", base.Seed, cand.Seed)
		return regs
	}
	if !slices.Equal(base.Keys, cand.Keys) || !reflect.DeepEqual(base.Metrics, cand.Metrics) {
		fail("declarations changed (%v -> %v); regenerate the baseline", base.Columns, cand.Columns)
		return regs
	}
	if len(base.Rows) != len(cand.Rows) {
		fail("row count changed: baseline %d, candidate %d", len(base.Rows), len(cand.Rows))
		return regs
	}
	metric := map[string]bool{}
	for _, m := range base.Metrics {
		metric[m.Name] = true
	}
	for i, br := range base.Rows {
		cr := cand.Rows[i]
		// Rows are emitted in deterministic program order; the keys
		// double-check the alignment. Both sides are decoded JSON, so
		// equal renderings mean equal values.
		for _, k := range base.Keys {
			if fmt.Sprint(br[k]) != fmt.Sprint(cr[k]) {
				fail("row %d: identity field %s changed (%v -> %v); regenerate the baseline", i, k, br[k], cr[k])
				return regs
			}
		}
		for _, m := range base.Metrics {
			bv, ok := num(br[m.Name])
			if !ok {
				continue
			}
			if cv, ok := num(cr[m.Name]); !ok {
				fail("row %d: field %s missing from candidate", i, m.Name)
			} else if m.regressed(bv, cv) {
				fail("row %d (%s): %s regressed %s -> %s %s (%s is better, bound %s)",
					i, label(br, metric), m.Name, fmtNum(bv), fmtNum(cv), m.Unit, m.Better, m.rule())
			}
		}
	}
	return regs
}

// label renders a row's non-metric fields (its keys and tags) for messages.
func label(row map[string]any, metric map[string]bool) string {
	var parts []string
	for _, k := range sortedKeys(row) {
		if !metric[k] {
			parts = append(parts, fmt.Sprintf("%s=%v", k, row[k]))
		}
	}
	return strings.Join(parts, " ")
}

// fmtNum prints v with the fewest digits that round-trip, so two different
// values never print alike.
func fmtNum(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// num coerces a recorded or decoded numeric value to float64.
func num(v any) (float64, bool) {
	switch x := reflect.ValueOf(v); {
	case x.CanFloat():
		return x.Float(), true
	case x.CanInt():
		return float64(x.Int()), true
	case x.CanUint():
		return float64(x.Uint()), true
	}
	return 0, false
}

func sortedKeys(m map[string]any) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
