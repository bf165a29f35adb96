package dynamic

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/tree"
)

func churnedStructure(t *testing.T) *Structure {
	t.Helper()
	tr, err := tree.NewBalancedBinary(8)
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	rng := rand.New(rand.NewSource(41))
	native := make([]catalog.Catalog, tr.N())
	for v := range native {
		keys := make([]catalog.Key, 10)
		for i := range keys {
			keys[i] = catalog.Key(v*10000 + i*20) // even spacing, gaps for inserts
		}
		c, err := catalog.FromKeys(keys, nil)
		if err != nil {
			t.Fatalf("catalog: %v", err)
		}
		native[v] = c
	}
	d, err := New(tr, native, core.Config{}, 500)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 30; i++ {
		v := tree.NodeID(rng.Intn(tr.N()))
		if err := d.Insert(v, catalog.Key(int(v)*10000+i*20+7), int32(i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < 15; i++ {
		v := tree.NodeID(rng.Intn(tr.N()))
		if i%3 == 0 {
			if err := d.Delete(v, catalog.Key(int(v)*10000+(i%10)*20)); err != nil {
				t.Fatalf("delete: %v", err)
			}
		} else if err := d.Insert(v, catalog.Key(int(v)*10000+i*20+11), int32(i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	if d.Buffered() == 0 {
		t.Fatalf("expected pending overlays")
	}
	return d
}

func TestStateRoundTrip(t *testing.T) {
	d := churnedStructure(t)
	state := d.ExportState()
	got, err := FromParts(d.Static(), state)
	if err != nil {
		t.Fatalf("FromParts: %v", err)
	}
	if got.Generation() != d.Generation() || got.Buffered() != d.Buffered() || got.Capacity() != d.Capacity() {
		t.Fatalf("metadata diverges")
	}
	if !reflect.DeepEqual(got.ExportState(), state) {
		t.Fatalf("re-exported state diverges")
	}
	tr := d.Static().Tree()
	for v := 0; v < tr.N(); v++ {
		for y := catalog.Key(0); y < 80000; y += 333 {
			wk, wp := d.Find(tree.NodeID(v), y)
			gk, gp := got.Find(tree.NodeID(v), y)
			if wk != gk || wp != gp {
				t.Fatalf("node %d y=%d: find diverges", v, y)
			}
		}
	}
	// Restored structures stay fully updatable: flushing pending overlays
	// advances the generation past the stamped value, and commits what
	// flushing the original commits.
	gen := got.Generation()
	if err := got.Flush(); err != nil {
		t.Fatalf("flush restored: %v", err)
	}
	if got.Generation() != gen+1 {
		t.Fatalf("generation after flush = %d, want %d", got.Generation(), gen+1)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("flush original: %v", err)
	}
	if !reflect.DeepEqual(got.Static().Cascade(), d.Static().Cascade()) {
		t.Fatalf("flushed restore commits other catalogs than the flushed original")
	}
}

func TestFromPartsRejectsDamage(t *testing.T) {
	d := churnedStructure(t)
	base := d.ExportState()
	clone := func() State {
		s := State{Capacity: base.Capacity, Generation: base.Generation}
		for _, np := range base.Pending {
			s.Pending = append(s.Pending, NodePending{
				Node: np.Node,
				Ins:  append([]PendingInsert{}, np.Ins...),
				Del:  append([]catalog.Key{}, np.Del...),
			})
		}
		return s
	}
	cases := []struct {
		name   string
		mutate func(s *State)
	}{
		{"zero capacity", func(s *State) { s.Capacity = 0 }},
		{"node out of range", func(s *State) { s.Pending[len(s.Pending)-1].Node = tree.NodeID(d.Static().Tree().N()) }},
		{"pending insert of +inf", func(s *State) { s.Pending[0].Ins = append(s.Pending[0].Ins, PendingInsert{Key: catalog.PlusInf}) }},
		{"pending delete of an uncommitted key", func(s *State) {
			np := &s.Pending[0]
			np.Del = append(np.Del, np.Ins[len(np.Ins)-1].Key)
			sort.Slice(np.Del, func(i, j int) bool { return np.Del[i] < np.Del[j] })
		}},
		{"pending insert of a committed key", func(s *State) {
			v := s.Pending[0].Node
			k := d.Static().Cascade().Native(v).Key(0)
			if slices.Contains(s.Pending[0].Del, k) {
				t.Fatalf("fixture deletes the key this case inserts")
			}
			s.Pending[0].Ins = append([]PendingInsert{{Key: k}}, s.Pending[0].Ins...)
		}},
		{"unsorted pending nodes", func(s *State) {
			if len(s.Pending) > 1 {
				s.Pending[0], s.Pending[1] = s.Pending[1], s.Pending[0]
			} else {
				s.Pending = append(s.Pending, s.Pending[0])
			}
		}},
		{"unsorted pending inserts", func(s *State) {
			for i := range s.Pending {
				if len(s.Pending[i].Ins) > 1 {
					s.Pending[i].Ins[0], s.Pending[i].Ins[1] = s.Pending[i].Ins[1], s.Pending[i].Ins[0]
					return
				}
			}
			s.Pending[0].Ins = append(s.Pending[0].Ins, s.Pending[0].Ins...)
		}},
	}
	for _, tc := range cases {
		s := clone()
		tc.mutate(&s)
		if _, err := FromParts(d.Static(), s); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	if _, err := FromParts(nil, base); err == nil {
		t.Fatalf("nil static accepted")
	}
}
