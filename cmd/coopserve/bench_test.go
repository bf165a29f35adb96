package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fraccascade/internal/snapshot"
)

// coldShape is the catalog-cold workload's catalog shape — seed 2, two
// shards of 2^19 entries over 1,024-leaf trees — with a snapshot path in a
// fresh temporary directory.
func coldShape(b *testing.B) serverConfig {
	cfg := defaultServerConfig()
	cfg.Seed, cfg.Shards, cfg.Leaves, cfg.Entries = 2, 2, 1024, 1<<19
	cfg.SnapshotPath = filepath.Join(b.TempDir(), "shards.snap")
	return cfg
}

// BenchmarkBuildShards times a build boot's shard work at the
// catalog-cold shape: draw each shard's catalogs, build it, freeze it and
// stream it into the snapshot. It reports the snapshot's size.
func BenchmarkBuildShards(b *testing.B) {
	cfg := coldShape(b)
	s := newServerShell(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.buildShards(newCollector()); err != nil {
			b.Fatal(err)
		}
	}
	fi, err := os.Stat(cfg.SnapshotPath)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "snap_bytes")
}

// BenchmarkBuildGeometry times a boot's geometry work at the geo-mixed
// shape (seed 3, 8,192 regions, 8,192 tiles): draw the subdivision, build
// and freeze the planar locator, then draw the complex, build and freeze
// the spatial locator, with the boot's collection rule between them.
func BenchmarkBuildGeometry(b *testing.B) {
	cfg := defaultServerConfig()
	cfg.Seed, cfg.Regions, cfg.Tiles = 3, 8192, 8192
	s := newServerShell(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.buildGeometry(newCollector()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSnapshot times snapshot.LoadParallel at parallelism 0 (all
// cores) and 1 on the snapshot a catalog-cold build boot writes: what
// bench/e2e's oracle pays to load the server's snapshot. No served path
// loads a snapshot; a restart maps the sidecar.
func BenchmarkLoadSnapshot(b *testing.B) {
	cfg := coldShape(b)
	if _, _, err := newServerShell(cfg).buildShards(newCollector()); err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{0, 1} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := snapshot.LoadParallel(cfg.SnapshotPath, par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
