package benchfmt

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sample() *File {
	return &File{
		Experiment: "e99", Seed: 3, Executor: "wall", WallMS: 1.5, Host: ThisHost(),
		Columns: Columns{Keys: []string{"n", "kind"}, Metrics: []Metric{
			Gated("restore_ms", "ms", Lower, 3).WithSlack(1),
			Gated("rate", "queries/step", Higher, 0.35),
			Gated("bound", "rounds", Exact, 0),
			{Name: "rss_kb", Unit: "KB", Better: Lower},
		}},
		Rows: []map[string]any{
			{"n": 6000, "kind": "catalog", "tag": "x", "restore_ms": 0.25, "rate": int64(2), "bound": uint8(4), "rss_kb": 123.5},
		},
	}
}

// TestWriteLoadRoundTrip: a written file loads back with its declarations,
// host and values intact (numbers come back as float64).
func TestWriteLoadRoundTrip(t *testing.T) {
	f := sample()
	path, err := f.Write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "BENCH_E99.json") {
		t.Fatalf("wrote %s, want BENCH_E99.json", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Columns, f.Columns) || *got.Host != *f.Host || got.Seed != 3 || got.Executor != "wall" {
		t.Fatalf("round trip changed the header: %+v", got)
	}
	want := map[string]any{"n": 6000.0, "kind": "catalog", "tag": "x", "restore_ms": 0.25, "rate": 2.0, "bound": 4.0, "rss_kb": 123.5}
	if !reflect.DeepEqual(got.Rows[0], want) {
		t.Fatalf("row = %v, want %v", got.Rows[0], want)
	}
	if regs := Compare(got, f); len(regs) != 0 {
		t.Fatalf("loaded file differs from the written one: %v", regs)
	}
}

// TestUndeclaredColumnRejected: a numeric column that is neither a key nor
// a declared metric fails both writing and loading, so it can never pass
// the gate unchecked; string tags need no declaration.
func TestUndeclaredColumnRejected(t *testing.T) {
	dir := t.TempDir()
	f := sample()
	f.Rows[0]["steps"] = 7
	if _, err := f.Write(dir); err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("Write accepted an undeclared column: %v", err)
	}
	path := filepath.Join(dir, "BENCH_E99.json")
	if err := os.WriteFile(path, []byte(`{"experiment":"e99","keys":["n"],"rows":[{"n":1,"steps":7}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("Load accepted an undeclared column: %v", err)
	}
	f = sample()
	f.Metrics[1].Better = "faster"
	if _, err := f.Write(dir); err == nil || !strings.Contains(err.Error(), "faster") {
		t.Fatalf("Write accepted better=faster: %v", err)
	}
}
