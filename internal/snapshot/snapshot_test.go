package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/dynamic"
	"fraccascade/internal/flat"
	"fraccascade/internal/tree"
)

// randomCatalogs builds one sorted catalog per node with keys drawn from
// the even integers (tests insert odd keys to avoid collisions).
func randomCatalogs(tb testing.TB, t *tree.Tree, perNode int, rng *rand.Rand) []catalog.Catalog {
	tb.Helper()
	cats := make([]catalog.Catalog, t.N())
	for v := range cats {
		seen := make(map[catalog.Key]bool, perNode)
		keys := make([]catalog.Key, 0, perNode)
		payloads := make([]int32, 0, perNode)
		for len(keys) < perNode {
			k := catalog.Key(rng.Int63n(1<<30) * 2)
			if seen[k] {
				continue
			}
			seen[k] = true
			keys = append(keys, k)
			payloads = append(payloads, int32(rng.Intn(1<<20)))
		}
		c, err := catalog.FromKeys(keys, payloads)
		if err != nil {
			tb.Fatalf("FromKeys: %v", err)
		}
		cats[v] = c
	}
	return cats
}

func buildStatic(tb testing.TB, leaves, perNode int, seed int64) *core.Structure {
	tb.Helper()
	t, err := tree.NewBalancedBinary(leaves)
	if err != nil {
		tb.Fatalf("tree: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	st, err := core.Build(t, randomCatalogs(tb, t, perNode, rng), core.Config{})
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	return st
}

// queryKeys returns a deterministic probe set spanning the key range of
// every test structure, [−2^31, 2^31).
func queryKeys(rng *rand.Rand, n int) []catalog.Key {
	out := make([]catalog.Key, n)
	for i := range out {
		out[i] = catalog.Key(rng.Int63n(1<<32) - 1<<31)
	}
	return out
}

// assertIdentical requires got to be the structure want is: an equal
// cascade, a T′ that freezes to the same bytes, and the same answers.
func assertIdentical(tb testing.TB, want, got *core.Structure, seed int64) {
	tb.Helper()
	if !reflect.DeepEqual(want.Cascade(), got.Cascade()) {
		tb.Fatalf("restored cascade differs from the saved one")
	}
	if !bytes.Equal(frozenBytes(tb, want), frozenBytes(tb, got)) {
		tb.Fatalf("restored T' freezes to other bytes than the saved one")
	}
	assertSameAnswers(tb, want, got, seed)
}

// frozenBytes is the flat encoding of st: every array of T′ the served
// layout holds.
func frozenBytes(tb testing.TB, st *core.Structure) []byte {
	tb.Helper()
	f, err := flat.Freeze(st)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := f.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// assertSameAnswers requires bit-identical results and step statistics
// from both structures over seeded root-to-leaf queries at p ∈ {1, 4,
// 128, 4096}.
func assertSameAnswers(tb testing.TB, want, got *core.Structure, seed int64) {
	tb.Helper()
	t := want.Tree()
	var leaves []tree.NodeID
	for v := 0; v < t.N(); v++ {
		if t.IsLeaf(tree.NodeID(v)) {
			leaves = append(leaves, tree.NodeID(v))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range []int{1, 4, 128, 4096} {
		for _, y := range queryKeys(rng, 8) {
			path := t.RootPath(leaves[rng.Intn(len(leaves))])
			wr, ws, err := want.SearchExplicit(y, path, p)
			if err != nil {
				tb.Fatalf("search on original: %v", err)
			}
			gr, gs, err := got.SearchExplicit(y, path, p)
			if err != nil {
				tb.Fatalf("search on restored: %v", err)
			}
			if !reflect.DeepEqual(wr, gr) {
				tb.Fatalf("p=%d y=%d: results diverge:\n  want %v\n  got  %v", p, y, wr, gr)
			}
			if ws != gs {
				tb.Fatalf("p=%d y=%d: stats diverge: want %+v, got %+v", p, y, ws, gs)
			}
		}
	}
}

func TestRoundTripStatic(t *testing.T) {
	st := buildStatic(t, 16, 24, 1)
	data, err := Encode(&Store{Generation: 7, Shards: []Shard{{Kind: KindStatic, Static: st}}})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Generation != 7 {
		t.Fatalf("generation = %d, want 7", got.Generation)
	}
	if len(got.Shards) != 1 || got.Shards[0].Kind != KindStatic || got.Shards[0].Static == nil {
		t.Fatalf("bad shards: %+v", got.Shards)
	}
	restored := got.Shards[0].Static
	if st.Params() != restored.Params() {
		t.Fatalf("params diverge: %v vs %v", st.Params(), restored.Params())
	}
	if !reflect.DeepEqual(st.Cascade().Stats(), restored.Cascade().Stats()) {
		t.Fatalf("cascade stats diverge: %+v vs %+v", st.Cascade().Stats(), restored.Cascade().Stats())
	}
	if !reflect.DeepEqual(st.SpaceReport(), restored.SpaceReport()) {
		t.Fatalf("space reports diverge")
	}
	assertIdentical(t, st, restored, 2)
}

// churn makes a dynamic structure with committed history, an advanced
// generation, and pending overlays that must survive the round trip.
func churn(tb testing.TB, leaves, perNode int, seed int64) *dynamic.Structure {
	tb.Helper()
	t, err := tree.NewBalancedBinary(leaves)
	if err != nil {
		tb.Fatalf("tree: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	cats := randomCatalogs(tb, t, perNode, rng)
	d, err := dynamic.New(t, cats, core.Config{}, 1000)
	if err != nil {
		tb.Fatalf("dynamic.New: %v", err)
	}
	mutate := func(rounds int) {
		for i := 0; i < rounds; i++ {
			v := tree.NodeID(rng.Intn(t.N()))
			if rng.Intn(2) == 0 {
				key := catalog.Key(rng.Int63n(1<<30)*2 + 1) // odd: never committed initially
				if err := d.Insert(v, key, int32(i)); err != nil && !strings.Contains(err.Error(), "already") {
					tb.Fatalf("insert: %v", err)
				}
			} else {
				// Delete the committed successor of a random probe, if any.
				k, _ := d.Find(v, catalog.Key(rng.Int63n(1<<31)))
				if k == catalog.PlusInf {
					continue
				}
				if err := d.Delete(v, k); err != nil && !strings.Contains(err.Error(), "not present") {
					tb.Fatalf("delete: %v", err)
				}
			}
		}
	}
	mutate(40)
	if err := d.Flush(); err != nil {
		tb.Fatalf("flush: %v", err)
	}
	mutate(25) // leave pending overlays buffered
	if d.Buffered() == 0 {
		tb.Fatalf("expected pending overlays after churn")
	}
	return d
}

func TestRoundTripDynamic(t *testing.T) {
	d := churn(t, 8, 16, 3)
	data, err := Encode(&Store{Generation: d.Generation(), Shards: []Shard{{Kind: KindDynamic, Dynamic: d}}})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	rd := got.Shards[0].Dynamic
	if rd == nil {
		t.Fatalf("no dynamic shard restored")
	}
	if rd.Generation() != d.Generation() {
		t.Fatalf("generation = %d, want %d", rd.Generation(), d.Generation())
	}
	if rd.Buffered() != d.Buffered() || rd.Capacity() != d.Capacity() {
		t.Fatalf("buffered/capacity = %d/%d, want %d/%d", rd.Buffered(), rd.Capacity(), d.Buffered(), d.Capacity())
	}
	if !reflect.DeepEqual(d.ExportState(), rd.ExportState()) {
		t.Fatalf("exported states diverge")
	}
	// Overlay-corrected cooperative answers must match, pending state
	// included.
	tr := d.Static().Tree()
	var leaves []tree.NodeID
	for v := 0; v < tr.N(); v++ {
		if tr.IsLeaf(tree.NodeID(v)) {
			leaves = append(leaves, tree.NodeID(v))
		}
	}
	rng := rand.New(rand.NewSource(4))
	for _, y := range queryKeys(rng, 32) {
		path := tr.RootPath(leaves[rng.Intn(len(leaves))])
		wr, ws, err := d.SearchExplicit(y, path, 16)
		if err != nil {
			t.Fatalf("search original: %v", err)
		}
		gr, gs, err := rd.SearchExplicit(y, path, 16)
		if err != nil {
			t.Fatalf("search restored: %v", err)
		}
		if !reflect.DeepEqual(wr, gr) || ws != gs {
			t.Fatalf("y=%d: answers diverge", y)
		}
	}
	assertIdentical(t, d.Static(), rd.Static(), 5)
}

func TestRoundTripMultiShard(t *testing.T) {
	st := buildStatic(t, 8, 12, 11)
	d := churn(t, 4, 8, 12)
	store := &Store{Generation: 1, Shards: []Shard{
		{Kind: KindStatic, Static: st},
		{Kind: KindDynamic, Dynamic: d},
	}}
	data, err := Encode(store)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Shards) != 2 || got.Shards[0].Static == nil || got.Shards[1].Dynamic == nil {
		t.Fatalf("bad shards: %+v", got.Shards)
	}
	assertIdentical(t, st, got.Shards[0].Static, 13)
	assertIdentical(t, d.Static(), got.Shards[1].Dynamic.Static(), 14)
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shards.snap")
	st := buildStatic(t, 8, 10, 21)
	store := &Store{Generation: 42, Shards: []Shard{{Kind: KindStatic, Static: st}}}
	if err := Save(path, store); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Generation != 42 {
		t.Fatalf("generation = %d, want 42", got.Generation)
	}
	assertSameAnswers(t, st, got.Shards[0].Static, 22)
	// Overwrite in place; no temp files may remain.
	store.Generation = 43
	if err := Save(path, store); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	got, err = Load(path)
	if err != nil || got.Generation != 43 {
		t.Fatalf("reload: gen=%d err=%v", got.Generation, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if len(entries) != 1 || entries[0].Name() != "shards.snap" {
		t.Fatalf("stray files in snapshot dir: %v", entries)
	}
	if _, err := Load(filepath.Join(dir, "missing.snap")); err == nil || IsCorrupt(err) {
		t.Fatalf("missing file should be a plain I/O error, got %v", err)
	}
}

func encodeFixture(tb testing.TB) []byte {
	tb.Helper()
	d := churn(tb, 4, 8, 31)
	data, err := Encode(&Store{Generation: 5, Shards: []Shard{{Kind: KindDynamic, Dynamic: d}}})
	if err != nil {
		tb.Fatalf("encode: %v", err)
	}
	return data
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := encodeFixture(t)
	check := func(name string, data []byte, want error) {
		t.Helper()
		_, err := Decode(data)
		if err == nil {
			t.Fatalf("%s: decode accepted corrupt input", name)
		}
		if !IsCorrupt(err) {
			t.Fatalf("%s: error %v is not typed corruption", name, err)
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("%s: error %v, want %v", name, err, want)
		}
	}
	check("empty", nil, nil)
	check("bad magic", append([]byte{'X'}, valid[1:]...), ErrBadMagic)
	check("magic prefix only", valid[:4], ErrTruncated)
	check("header truncated", valid[:headerSize-2], ErrTruncated)
	check("body truncated", valid[:len(valid)/2], nil)
	check("tail truncated", valid[:len(valid)-3], nil)
	check("trailing garbage", append(append([]byte{}, valid...), 0xAB, 0xCD), ErrCorrupt)

	// Version skew with a recomputed header checksum must be ErrVersion.
	skew := append([]byte{}, valid...)
	skew[len(magic)] = FormatVersion + 1
	crc := crc32.Checksum(skew[:headerSize-4], castagnoli)
	binary.LittleEndian.PutUint32(skew[headerSize-4:], crc)
	check("version skew", skew, ErrVersion)
	// Version 1 is refused the same way.
	skew[len(magic)] = 1
	binary.LittleEndian.PutUint32(skew[headerSize-4:], crc32.Checksum(skew[:headerSize-4], castagnoli))
	check("version 1", skew, ErrVersion)

	// Any single flipped bit must be caught. Sampling every few bytes
	// keeps the test fast while covering header, framing, and payloads.
	for off := 0; off < len(valid); off += 7 {
		mut := append([]byte{}, valid...)
		mut[off] ^= 0x10
		if off < len(magic) {
			check("bit flip in magic", mut, ErrBadMagic)
		} else {
			check("bit flip", mut, nil)
		}
	}
}
