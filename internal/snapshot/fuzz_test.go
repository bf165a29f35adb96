package snapshot

import (
	"math/rand"
	"testing"

	"fraccascade/internal/core"
	"fraccascade/internal/tree"
)

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot reader. The
// contract under fuzzing is strict: Decode either succeeds or returns a
// typed corruption error — it never panics, never over-allocates on a
// hostile length, and never returns an untyped error. Past the damaged
// fixtures, the seeds are valid snapshots of every shape a load builds:
// a static shard, a dynamic shard with pending inserts and deletes, a
// multi-shard store, and non-default builds — NoTruncation with MaxSubs,
// cascade stride 6, and a degree-3 tree.
func FuzzSnapshotDecode(f *testing.F) {
	valid := encodeFixture(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-5])
	truncSec := append([]byte{}, valid[:headerSize+8]...)
	f.Add(truncSec)
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	d := churn(f, 4, 6, 41)
	ins, del := 0, 0
	for _, np := range d.ExportState().Pending {
		ins, del = ins+len(np.Ins), del+len(np.Del)
	}
	if ins == 0 || del == 0 {
		f.Fatalf("the dynamic seed has %d pending inserts and %d deletes", ins, del)
	}
	ternary := make([]tree.NodeID, 13) // a complete ternary tree
	for v := range ternary {
		ternary[v] = tree.NodeID(v-1) / 3
	}
	ternary[0] = tree.Nil
	for _, store := range []*Store{
		{Generation: 1, Shards: []Shard{{Kind: KindStatic, Static: buildStatic(f, 4, 6, 40)}}},
		{Generation: 2, Shards: []Shard{{Kind: KindDynamic, Dynamic: d}}},
		{Generation: 3, Shards: []Shard{
			{Kind: KindStatic, Static: buildStatic(f, 2, 4, 42)},
			{Kind: KindDynamic, Dynamic: churn(f, 2, 4, 43)},
			{Kind: KindStatic, Static: buildStatic(f, 4, 3, 44)},
		}},
		{Generation: 4, Shards: []Shard{{Kind: KindStatic, Static: buildSeed(f, nil, core.Config{NoTruncation: true, MaxSubs: 1})}}},
		{Generation: 5, Shards: []Shard{{Kind: KindStatic, Static: buildSeed(f, nil, core.Config{CascadeStride: 6})}}},
		{Generation: 6, Shards: []Shard{{Kind: KindStatic, Static: buildSeed(f, ternary, core.Config{})}}},
	} {
		data, err := Encode(store)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if st == nil || len(st.Shards) == 0 {
			t.Fatalf("nil/empty store with nil error")
		}
	})
}

// buildSeed builds a small static structure with cfg over the tree with
// the given parent vector, or an 8-leaf balanced binary tree for nil.
func buildSeed(tb testing.TB, parent []tree.NodeID, cfg core.Config) *core.Structure {
	tb.Helper()
	t, err := tree.NewBalancedBinary(8)
	if parent != nil {
		t, err = tree.Build(parent, nil)
	}
	if err != nil {
		tb.Fatal(err)
	}
	st, err := core.Build(t, randomCatalogs(tb, t, 6, rand.New(rand.NewSource(45))), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}
