package main

import (
	"flag"
	"slices"
	"testing"
)

// TestFlagSet pins coopserve's command line: registerFlags defines
// exactly these flags, leaves the config at its defaults, and parses each
// value into the config. Adding or removing a flag must edit this list.
func TestFlagSet(t *testing.T) {
	cfg := defaultServerConfig()
	fs := flag.NewFlagSet("coopserve", flag.ContinueOnError)
	addr := registerFlags(fs, &cfg)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{
		"addr", "batch", "drain-timeout", "entries", "leaves",
		"max-inflight", "procs", "regions", "request-timeout", "seed",
		"shards", "snapshot", "tiles",
	}
	if !slices.Equal(names, want) {
		t.Fatalf("coopserve registers %d flags %v, want %d %v", len(names), names, len(want), want)
	}
	if cfg != defaultServerConfig() {
		t.Fatalf("registering the flags changed the config: %+v", cfg)
	}
	if err := fs.Parse([]string{"-addr=:9", "-seed=3", "-snapshot=s.snap"}); err != nil {
		t.Fatal(err)
	}
	wantCfg := defaultServerConfig()
	wantCfg.Seed, wantCfg.SnapshotPath = 3, "s.snap"
	if *addr != ":9" || cfg != wantCfg {
		t.Fatalf("parsed -addr=%q and %+v, want :9 and %+v", *addr, cfg, wantCfg)
	}
}
