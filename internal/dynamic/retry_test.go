package dynamic

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"fraccascade/internal/catalog"
	"fraccascade/internal/tree"
)

// fullPaths returns every root-to-leaf path of the tree.
func fullPaths(t *tree.Tree) [][]tree.NodeID {
	var paths [][]tree.NodeID
	for v := tree.NodeID(0); int(v) < t.N(); v++ {
		if t.IsLeaf(v) {
			paths = append(paths, t.RootPath(v))
		}
	}
	return paths
}

func TestFlushRetriesTransientRebuildFailure(t *testing.T) {
	d, m, bt, rng := setup(t, 8, 200, 41, 8)
	d.sleep = func(time.Duration) {} // no real backoff in tests
	var attempts []int
	d.SetRebuildHook(func(attempt int) error {
		attempts = append(attempts, attempt)
		if attempt < 3 {
			return fmt.Errorf("injected transient fault (attempt %d)", attempt)
		}
		return nil
	})
	v := tree.NodeID(rng.Intn(bt.N()))
	k := catalog.Key(1_000_001)
	if err := d.Insert(v, k, 7); err != nil {
		t.Fatal(err)
	}
	m.keys[v][k] = 7
	if err := d.Flush(); err != nil {
		t.Fatalf("Flush should survive transient faults: %v", err)
	}
	if len(attempts) != 3 {
		t.Errorf("rebuild attempts = %v, want [1 2 3]", attempts)
	}
	if d.Buffered() != 0 {
		t.Errorf("Buffered = %d after successful flush, want 0", d.Buffered())
	}
	if gk, gp := d.Find(v, k); gk != k || gp != 7 {
		t.Errorf("Find(%d, %d) = (%d, %d), want (%d, 7)", v, k, gk, gp, k)
	}
}

func TestFlushPermanentFailureLeavesStateIntact(t *testing.T) {
	d, m, bt, rng := setup(t, 8, 200, 42, 8)
	d.sleep = func(time.Duration) {}
	permanent := errors.New("injected permanent fault")
	d.SetRebuildHook(func(int) error { return permanent })

	v := tree.NodeID(rng.Intn(bt.N()))
	k := catalog.Key(2_000_003)
	if err := d.Insert(v, k, 9); err != nil {
		t.Fatal(err)
	}
	buffered := d.Buffered()
	oldStatic := d.Static()
	err := d.Flush()
	if !errors.Is(err, permanent) {
		t.Fatalf("Flush error = %v, want wrapped %v", err, permanent)
	}
	// The failed flush must not have committed anything.
	if d.Buffered() != buffered {
		t.Errorf("Buffered = %d after failed flush, want %d (overlays intact)", d.Buffered(), buffered)
	}
	if d.Static() != oldStatic {
		t.Error("failed flush replaced the static structure")
	}
	if d.Rebuilds() != 0 {
		t.Errorf("Rebuilds = %d after failed flush, want 0", d.Rebuilds())
	}
	// Queries must still answer correctly from old static + overlays.
	if gk, gp := d.Find(v, k); gk != k || gp != 9 {
		t.Errorf("Find(%d, %d) = (%d, %d), want pending insert visible", v, k, gk, gp)
	}
	for _, path := range fullPaths(bt) {
		y := catalog.Key(rng.Intn(800))
		results, _, serr := d.SearchExplicit(y, path, 8)
		if serr != nil {
			t.Fatalf("search after failed flush: %v", serr)
		}
		for i, r := range results {
			wk, _ := m.find(path[i], y)
			node := path[i]
			if node == v && k >= y && k < wk {
				wk = k
			}
			if r.Key != wk {
				t.Fatalf("node %d: find(%d) = %d, want %d", node, y, r.Key, wk)
			}
		}
	}
	// Removing the fault lets the same flush succeed.
	d.SetRebuildHook(nil)
	if err := d.Flush(); err != nil {
		t.Fatalf("Flush after clearing hook: %v", err)
	}
	if d.Buffered() != 0 {
		t.Errorf("Buffered = %d, want 0", d.Buffered())
	}
}

func TestFlushBackoffIsCapped(t *testing.T) {
	d, _, _, _ := setup(t, 4, 60, 43, 4)
	var slept []time.Duration
	d.sleep = func(dur time.Duration) { slept = append(slept, dur) }
	d.maxAttempts = 10
	d.SetRebuildHook(func(int) error { return errors.New("always fails") })
	if err := d.Flush(); err == nil {
		t.Fatal("Flush should fail when every attempt fails")
	}
	if len(slept) != 9 {
		t.Fatalf("slept %d times, want 9 (attempts − 1)", len(slept))
	}
	for i, dur := range slept {
		if dur > rebuildBackoffCap {
			t.Errorf("backoff %d = %v exceeds cap %v", i, dur, rebuildBackoffCap)
		}
		if i > 0 && dur < slept[i-1] {
			t.Errorf("backoff %d = %v shrank from %v", i, dur, slept[i-1])
		}
	}
}
