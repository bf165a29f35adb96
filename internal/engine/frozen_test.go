package engine

import (
	"testing"

	"fraccascade/internal/flat"
)

// TestFrozenBackendsInventory pins the persistable frozen surface: a Flat
// engine exposes one FrozenBackend per catalog shard, in shard order, each
// exporting a decodable catalog blob. The frozen locators are served but
// never listed: geometry is rebuilt from the seed, not persisted.
func TestFrozenBackendsInventory(t *testing.T) {
	fx := buildFixture(t, 610, 1<<4, 900)
	shards := []CatalogBackend{StaticShard{St: fx.static}, DynamicShard{D: fx.dyn}}
	e, err := New(Config{Procs: 128, Flat: true}, shards, fx.pl, fx.sp)
	if err != nil {
		t.Fatal(err)
	}
	fbs := e.FrozenBackends()
	if len(fbs) != len(shards) {
		t.Fatalf("%d frozen backends, want %d", len(fbs), len(shards))
	}
	for i, fb := range fbs {
		if fb.FrozenKind() != flat.StoreKindCatalog {
			t.Fatalf("backend %d kind %d, want catalog (%d)", i, fb.FrozenKind(), flat.StoreKindCatalog)
		}
		blob, err := fb.FrozenBlob()
		if err != nil {
			t.Fatalf("backend %d blob: %v", i, err)
		}
		if _, _, err := flat.OpenStructure(blob); err != nil {
			t.Fatalf("backend %d catalog blob undecodable: %v", i, err)
		}
		if fb.Refreezes() == 0 {
			t.Fatalf("backend %d reports 0 freezes after a non-preloaded build", i)
		}
	}

	// An engine over pointer catalog shards exposes none.
	ptr, err := New(Config{Procs: 128}, []CatalogBackend{StaticShard{St: fx.static}}, fx.pl, fx.sp)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ptr.FrozenBackends()); n != 0 {
		t.Fatalf("engine over pointer shards exposes %d frozen backends", n)
	}
}
