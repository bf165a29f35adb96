package main

import (
	"fmt"
	"time"

	"fraccascade/internal/benchfmt"
)

// benchOut is non-nil only while an experiment runs under -json. It
// collects the rows experiments record next to every table line they
// print; experiments that only print prose still get a file with the wall
// time, so a -json sweep over -experiment=all leaves a complete
// performance trajectory on disk.
var benchOut *benchfmt.File

// record appends one row, declared by cols, to the active recorder; a
// no-op without -json, so experiments can call it unconditionally.
func record(cols benchfmt.Columns, row map[string]any) {
	if benchOut == nil {
		return
	}
	benchOut.Columns = cols
	benchOut.Rows = append(benchOut.Rows, row)
}

// runExperiment runs e and, when jsonDir is set, writes its
// BENCH_<EXP>.json there.
func runExperiment(e experiment, seed int64, executor, jsonDir string) error {
	fmt.Printf("\n=== %s ===\n", e.title)
	if jsonDir != "" {
		benchOut = &benchfmt.File{Experiment: e.name, Seed: seed, Executor: executor, Host: benchfmt.ThisHost(), Rows: []map[string]any{}}
		defer func() { benchOut = nil }()
	}
	start := time.Now()
	e.run(seed)
	if benchOut == nil {
		return nil
	}
	benchOut.WallMS = float64(time.Since(start).Microseconds()) / 1000
	path, err := benchOut.Write(jsonDir)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows, %.1f ms)\n", path, len(benchOut.Rows), benchOut.WallMS)
	return nil
}
