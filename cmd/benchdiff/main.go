// Command benchdiff gates benchmark regressions: it compares candidate
// BENCH_<EXP>.json files (written by `coopbench -json`) against committed
// baselines and exits non-zero when a metric regressed beyond its bound.
//
// Every baseline declares its own keys and metrics (internal/benchfmt),
// and benchdiff applies one rule to whatever it declares, so a new
// experiment or column needs no edit here. A candidate whose declarations
// differ from its baseline's fails until the baseline is regenerated.
//
// Usage:
//
//	benchdiff -baseline bench/baselines -candidate bench/out
//
// `make bench-gate` regenerates the candidate files and runs this.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fraccascade/internal/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run diffs every baseline against its candidate and returns the exit
// code: 0 when all pass, 1 on any regression or missing candidate, 2 on
// bad usage or an unreadable baseline.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseDir := fs.String("baseline", "bench/baselines", "directory holding baseline BENCH_<EXP>.json files")
	candDir := fs.String("candidate", ".", "directory holding freshly generated BENCH_<EXP>.json files")
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: benchdiff [-baseline dir] [-candidate dir] (every baseline in dir is compared)")
		return 2
	}
	files, err := filepath.Glob(filepath.Join(*baseDir, "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		fmt.Fprintf(stderr, "benchdiff: no baselines in %s\n", *baseDir)
		return 2
	}
	code := 0
	for _, bf := range files {
		base, err := benchfmt.Load(bf)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		cand, err := benchfmt.Load(filepath.Join(*candDir, filepath.Base(bf)))
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: candidate for %s: %v\n", base.Experiment, err)
			code = 1
			continue
		}
		if base.Host.String() != cand.Host.String() {
			fmt.Fprintf(stdout, "benchdiff: %s hosts differ: baseline %v; candidate %v\n", base.Experiment, base.Host, cand.Host)
		}
		regs := benchfmt.Compare(base, cand)
		if len(regs) == 0 {
			fmt.Fprintf(stdout, "benchdiff: %s ok (%d rows; bounds: %s)\n", base.Experiment, len(base.Rows), base.Bounds())
			continue
		}
		code = 1
		for _, r := range regs {
			fmt.Fprintln(stderr, "benchdiff: REGRESSION "+r)
		}
	}
	return code
}
