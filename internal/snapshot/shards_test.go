package snapshot

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// shardStores are the stores the shard-at-a-time writer and reader are
// held to Encode and DecodeParallel on: static, dynamic, and a multi-shard
// mix of both.
func shardStores(t *testing.T) map[string]*Store {
	t.Helper()
	d := churn(t, 8, 16, 3)
	return map[string]*Store{
		"static":  {Generation: 7, Shards: []Shard{{Kind: KindStatic, Static: buildStatic(t, 16, 24, 7)}}},
		"dynamic": {Generation: d.Generation(), Shards: []Shard{{Kind: KindDynamic, Dynamic: d}}},
		"multi": {Generation: 1, Shards: []Shard{
			{Kind: KindStatic, Static: buildStatic(t, 8, 12, 11)},
			{Kind: KindDynamic, Dynamic: churn(t, 4, 8, 12)},
			{Kind: KindStatic, Static: buildStatic(t, 4, 6, 13)},
		}},
	}
}

// TestShardWriterMatchesEncode: SaveShards, fed one shard per call, writes
// exactly Encode's bytes, and asks for the shards in order, one at a time.
func TestShardWriterMatchesEncode(t *testing.T) {
	for name, store := range shardStores(t) {
		want, err := Encode(store)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "shards.snap")
		var asked []int
		next := func(i int) (Shard, error) {
			asked = append(asked, i)
			return store.Shards[i], nil
		}
		bind, err := SaveShards(path, store.Generation, store.kinds(), next)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: SaveShards wrote %d bytes that differ from Encode's %d", name, len(got), len(want))
		}
		// The binding SaveShards returns is the one Bind streams from the
		// file.
		gen, streamed, err := Bind(path)
		if err != nil || gen != store.Generation || streamed != bind || bind != bindingOf(want) {
			t.Fatalf("%s: Bind = %d %+v (err %v), want generation %d and SaveShards' %+v", name, gen, streamed, err, store.Generation, bind)
		}
		for i, n := range asked {
			if n != i || len(asked) != len(store.Shards) {
				t.Fatalf("%s: next called for shards %v, want each of %d once in order", name, asked, len(store.Shards))
			}
		}
	}

	// An error from next aborts the save and leaves no file; a shard
	// whose kind disagrees with the manifest is refused.
	path := filepath.Join(t.TempDir(), "shards.snap")
	boom := errors.New("boom")
	kinds := []Kind{KindStatic, KindStatic}
	if _, err := SaveShards(path, 0, kinds, func(int) (Shard, error) { return Shard{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("SaveShards returned %v, want next's error", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed save left a file: %v", err)
	}
	if _, _, err := Bind(path); !os.IsNotExist(err) {
		t.Fatalf("Bind on a missing file: %v, want not-exist", err)
	}
	// Bind checks the header: a cut or damaged one is corruption.
	data, err := Encode(shardStores(t)["static"])
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{data[:headerSize-1], append([]byte{data[0] ^ 1}, data[1:]...)} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Bind(path); !IsCorrupt(err) {
			t.Fatalf("Bind on a %d-byte file with a bad header: %v, want corruption", len(bad), err)
		}
	}
	d := churn(t, 4, 8, 12)
	if _, err := SaveShards(path, 0, kinds[:1], func(int) (Shard, error) { return Shard{Kind: KindDynamic, Dynamic: d}, nil }); err == nil {
		t.Fatal("SaveShards accepted a shard whose kind disagrees with the manifest")
	}
}

// TestBindingSeesSealedChanges: two snapshots that differ only inside a
// region sealed by its own CRC-32C — here the header's generation — have
// different Bindings. A CRC-32C of the whole file would not see the
// difference: a CRC-32C over a block followed by the block's CRC-32C is a
// constant.
func TestBindingSeesSealedChanges(t *testing.T) {
	store := shardStores(t)["static"]
	a, err := Encode(store)
	if err != nil {
		t.Fatal(err)
	}
	store.Generation++
	b, err := Encode(store)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) || len(a) != len(b) {
		t.Fatal("the generation change did not keep the length and change the bytes")
	}
	if crc32.Checksum(a, castagnoli) != crc32.Checksum(b, castagnoli) {
		t.Fatal("whole-file CRC-32C saw the sealed change; the premise of this test is gone")
	}
	if bindingOf(a) == bindingOf(b) {
		t.Fatalf("snapshots differing in generation share the binding %+v", bindingOf(a))
	}
}

// TestShardReaderMatchesDecodeParallel: newShardReader reports the
// manifest before decoding anything, then yields, one next at a time, the
// same shards DecodeParallel restores.
func TestShardReaderMatchesDecodeParallel(t *testing.T) {
	for name, store := range shardStores(t) {
		data, err := Encode(store)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := DecodeParallel(data, 2)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newShardReader(data, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.generation != store.Generation {
			t.Fatalf("%s: generation %d, want %d", name, r.generation, store.Generation)
		}
		if len(r.kinds) != len(store.Shards) {
			t.Fatalf("%s: %d kinds, want %d", name, len(r.kinds), len(store.Shards))
		}
		got := &Store{Generation: r.generation}
		for i, kind := range r.kinds {
			if kind != store.Shards[i].Kind {
				t.Fatalf("%s: shard %d kind %d, want %d", name, i, kind, store.Shards[i].Kind)
			}
			sh, err := r.next()
			if err != nil {
				t.Fatalf("%s: shard %d: %v", name, i, err)
			}
			got.Shards = append(got.Shards, sh)
		}
		// Same shards: both re-encode to the original bytes, and every
		// shard answers like the decoded whole store's.
		for _, st := range []*Store{got, whole} {
			again, err := Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("%s: re-encoded restore differs from the snapshot", name)
			}
		}
		for i := range got.Shards {
			a, b := got.Shards[i].Static, whole.Shards[i].Static
			if got.Shards[i].Kind == KindDynamic {
				a, b = got.Shards[i].Dynamic.Static(), whole.Shards[i].Dynamic.Static()
			}
			assertSameAnswers(t, b, a, int64(i))
		}
	}
}
