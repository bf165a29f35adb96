package snapshot

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/dynamic"
	"fraccascade/internal/tree"
)

// randomTree draws a balanced binary tree, a random tree of degree up to
// 4, or a path, of at most 40 nodes.
func randomTree(tb testing.TB, rng *rand.Rand) *tree.Tree {
	tb.Helper()
	var (
		t   *tree.Tree
		err error
	)
	switch rng.Intn(3) {
	case 0:
		t, err = tree.NewBalancedBinary(1 << rng.Intn(5))
	case 1:
		t, err = tree.NewRandom(1+rng.Intn(40), 2+rng.Intn(3), rng)
	default:
		t, err = tree.NewPath(1 + rng.Intn(12))
	}
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// randomConfig draws build settings: about a third of the builds skip
// truncation and cap the substructures, about a third set the cascade
// stride (at least twice the tree's degree), and each builds at
// parallelism 1, 2 or all cores.
func randomConfig(rng *rand.Rand, t *tree.Tree) core.Config {
	cfg := core.Config{Parallelism: rng.Intn(3)}
	if rng.Intn(3) == 0 {
		cfg.NoTruncation, cfg.MaxSubs = true, rng.Intn(3)
	}
	if rng.Intn(3) == 0 {
		cfg.CascadeStride = max(2, 2*t.MaxDegree()) + rng.Intn(5)
	}
	return cfg
}

// randomNatives draws up to 30 distinct keys in [−2^30, 2^30) per node,
// some nodes empty, with payloads that are sometimes NoPayload.
func randomNatives(tb testing.TB, t *tree.Tree, rng *rand.Rand) []catalog.Catalog {
	tb.Helper()
	cats := make([]catalog.Catalog, t.N())
	for v := range cats {
		seen := map[catalog.Key]bool{}
		var keys []catalog.Key
		var payloads []int32
		for size := rng.Intn(31); len(keys) < size; {
			k := catalog.Key(rng.Int63n(1<<31) - 1<<30)
			if seen[k] {
				continue
			}
			seen[k] = true
			keys = append(keys, k)
			pl := catalog.NoPayload
			if rng.Intn(2) == 0 {
				pl = rng.Int31() - 1<<30
			}
			payloads = append(payloads, pl)
		}
		c, err := catalog.FromKeys(keys, payloads)
		if err != nil {
			tb.Fatal(err)
		}
		cats[v] = c
	}
	return cats
}

// randomShard builds a static shard, or one time in four a dynamic shard
// mid-churn: committed history, sometimes a flush, and pending inserts
// and deletes.
func randomShard(tb testing.TB, rng *rand.Rand) Shard {
	tb.Helper()
	t := randomTree(tb, rng)
	cfg := randomConfig(rng, t)
	cats := randomNatives(tb, t, rng)
	if rng.Intn(4) != 0 {
		st, err := core.Build(t, cats, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return Shard{Kind: KindStatic, Static: st}
	}
	d, err := dynamic.New(t, cats, cfg, 1000)
	if err != nil {
		tb.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if round == 1 && rng.Intn(2) == 0 {
			if err := d.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
		for i := 0; i < 12; i++ {
			v := tree.NodeID(rng.Intn(t.N()))
			if k, _ := d.Find(v, catalog.Key(rng.Int63n(1<<31)-1<<30)); k != catalog.PlusInf && rng.Intn(2) == 0 {
				if err := d.Delete(v, k); err != nil && !strings.Contains(err.Error(), "already") {
					tb.Fatal(err)
				}
				continue
			}
			err := d.Insert(v, catalog.Key(rng.Int63n(1<<31)-1<<30), rng.Int31())
			if err != nil && !strings.Contains(err.Error(), "already") {
				tb.Fatal(err)
			}
		}
	}
	return Shard{Kind: KindDynamic, Dynamic: d}
}

// TestRoundTripIdentity: a load restores what was saved. Over 1,000
// seeded random stores of one to three shards — static and dynamic
// mid-churn, balanced, degree-d and path trees, default and non-default
// build settings — each built at parallelism 1, 2 or all cores and decoded
// at another, every restored shard has an equal cascade, a T′ that
// freezes to the same bytes, and the same SearchExplicit results and
// Stats at p ∈ {1, 4, 128, 4096}; a dynamic shard also keeps its
// capacity, generation and pending overlays. Re-encoding the restored
// store gives the saved bytes. Because the decode builds again, this is
// also the end-to-end determinism pin for a build across parallelism.
func TestRoundTripIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 1000; i++ {
		store := &Store{Generation: rng.Uint64()}
		n := 1
		if rng.Intn(4) == 0 {
			n = 2 + rng.Intn(2)
		}
		for len(store.Shards) < n {
			store.Shards = append(store.Shards, randomShard(t, rng))
		}
		data, err := Encode(store)
		if err != nil {
			t.Fatalf("store %d: encode: %v", i, err)
		}
		got, err := DecodeParallel(data, rng.Intn(3))
		if err != nil {
			t.Fatalf("store %d: decode: %v", i, err)
		}
		if got.Generation != store.Generation || len(got.Shards) != len(store.Shards) {
			t.Fatalf("store %d: generation %d with %d shards, want %d with %d", i, got.Generation, len(got.Shards), store.Generation, len(store.Shards))
		}
		for si, want := range store.Shards {
			sh := got.Shards[si]
			if sh.Kind != want.Kind {
				t.Fatalf("store %d shard %d: kind %d, want %d", i, si, sh.Kind, want.Kind)
			}
			if want.Kind == KindStatic {
				assertIdentical(t, want.Static, sh.Static, int64(i))
				continue
			}
			if !reflect.DeepEqual(sh.Dynamic.ExportState(), want.Dynamic.ExportState()) || sh.Dynamic.Buffered() != want.Dynamic.Buffered() {
				t.Fatalf("store %d shard %d: dynamic state differs", i, si)
			}
			assertIdentical(t, want.Dynamic.Static(), sh.Dynamic.Static(), int64(i))
			assertSameDynamicAnswers(t, want.Dynamic, sh.Dynamic, int64(i))
		}
		again, err := Encode(got)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("store %d: re-encoded restore differs from the snapshot (err %v)", i, err)
		}
	}
}

// assertSameDynamicAnswers requires the same overlay-corrected answers
// from both dynamic structures over seeded root-to-leaf queries.
func assertSameDynamicAnswers(tb testing.TB, want, got *dynamic.Structure, seed int64) {
	tb.Helper()
	t := want.Static().Tree()
	rng := rand.New(rand.NewSource(seed))
	for _, y := range queryKeys(rng, 8) {
		path := t.RootPath(tree.NodeID(rng.Intn(t.N())))
		wr, ws, werr := want.SearchExplicit(y, path, 16)
		gr, gs, gerr := got.SearchExplicit(y, path, 16)
		if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(wr, gr) || ws != gs {
			tb.Fatalf("y=%d: overlay-corrected answers differ", y)
		}
	}
}

// catalogsPayload writes a catalogs section payload: the stride, no
// truncation flag and MaxSubs, the node count, then each node's raw key
// and payload varints as given.
func catalogsPayload(stride int, nodes int, node func(w *writer, v int)) []byte {
	w := &writer{}
	w.uint(stride)
	w.boolVal(false)
	w.uint(0)
	w.uint(nodes)
	for v := 0; v < nodes; v++ {
		node(w, v)
	}
	return w.buf
}

// entries writes one node's catalog: the first key whole, then each delta
// as given, and one payload per key.
func entries(w *writer, first int64, deltas []uint64, payload int64) {
	w.uint(1 + len(deltas))
	w.i64(first)
	w.i64(payload)
	for _, d := range deltas {
		w.u64(d)
		w.i64(payload)
	}
}

// treePayload writes a tree section payload from a parent vector, with
// every node at sibling rank 0.
func treePayload(parent ...int64) []byte {
	w := &writer{}
	w.uint(len(parent))
	for _, p := range parent {
		w.i64(p)
	}
	for range parent {
		w.u64(0)
	}
	return w.buf
}

// sealed frames a one-static-shard snapshot around a tree and a catalogs
// payload, every checksum valid, so only the inputs can be at fault.
func sealed(treeSec, catalogsSec []byte) []byte {
	manifest := &writer{}
	manifest.uint(1)
	manifest.byteVal(byte(KindStatic))
	out := appendHeader(nil, 1, 3)
	for _, sec := range []section{{secManifest, manifest.buf}, {secTree, treeSec}, {secCatalogs, catalogsSec}} {
		framed := append(make([]byte, sectionHeaderSize), sec.payload...)
		out = append(out, frameSection(framed, sec.id)...)
	}
	return out
}

// TestDecodeRejectsHostileInputs feeds sealed snapshots whose inputs no
// build could have come from. Each is refused with a corruption error by
// readShard, which reads and validates a shard's inputs and builds
// nothing, so core.Build never runs on them; Decode returns the same kind
// of error, and nothing panics. The untouched fixture decodes, so each
// case fails for its own defect.
func TestDecodeRejectsHostileInputs(t *testing.T) {
	threeNodes := treePayload(-1, 0, 0)
	good := func(w *writer, v int) { entries(w, int64(v)*100, []uint64{3, 4}, 7) }
	cases := []struct {
		name           string
		tree, catalogs []byte
		want           string
	}{
		{"fixture", threeNodes, catalogsPayload(4, 3, good), ""},
		{"zero key delta", threeNodes, catalogsPayload(4, 3, func(w *writer, v int) { entries(w, 5, []uint64{2, 0}, 1) }), "not strictly increasing"},
		{"decreasing key delta", threeNodes, catalogsPayload(4, 3, func(w *writer, v int) { entries(w, 5, []uint64{math.MaxUint64}, 1) }), "reaches +inf"},
		{"key at +inf", threeNodes, catalogsPayload(4, 3, func(w *writer, v int) { entries(w, math.MaxInt64, nil, 1) }), "infinite"},
		{"key at -inf", threeNodes, catalogsPayload(4, 3, func(w *writer, v int) { entries(w, math.MinInt64, []uint64{1}, 1) }), "infinite"},
		{"delta reaches +inf", threeNodes, catalogsPayload(4, 3, func(w *writer, v int) { entries(w, math.MaxInt64-5, []uint64{5}, 1) }), "reaches +inf"},
		{"delta overflows int64", threeNodes, catalogsPayload(4, 3, func(w *writer, v int) { entries(w, 1<<62, []uint64{1 << 62}, 1) }), "reaches +inf"},
		{"payload above int32", threeNodes, catalogsPayload(4, 3, func(w *writer, v int) { entries(w, 5, []uint64{1}, math.MaxInt32+1) }), "overflows int32"},
		{"payload below int32", threeNodes, catalogsPayload(4, 3, func(w *writer, v int) { entries(w, 5, nil, math.MinInt32-1) }), "overflows int32"},
		{"fewer catalogs than nodes", threeNodes, catalogsPayload(4, 2, good), "tree has 3"},
		{"more catalogs than nodes", threeNodes, catalogsPayload(4, 4, good), "tree has 3"},
		{"tree with a cycle", treePayload(-1, 2, 1), catalogsPayload(4, 3, good), "cycle"},
		{"tree with two roots", treePayload(-1, -1, 0), catalogsPayload(4, 3, good), "multiple roots"},
		{"stride 1", threeNodes, catalogsPayload(1, 3, good), "stride 1 < 2"},
		{"stride 0", threeNodes, catalogsPayload(0, 3, good), "stride 0 < 2"},
		{"stride past int32", threeNodes, catalogsPayload(math.MaxInt32+1, 3, good), "overflows int32"},
	}
	for _, tc := range cases {
		data := sealed(tc.tree, tc.catalogs)
		r, err := newShardReader(data, 1)
		if err != nil {
			t.Fatalf("%s: the framing was refused: %v", tc.name, err)
		}
		_, readErr := readShard(r.kinds[0], r.take)
		_, decodeErr := Decode(data)
		if tc.want == "" {
			if readErr != nil || decodeErr != nil {
				t.Fatalf("%s: refused: %v / %v", tc.name, readErr, decodeErr)
			}
			continue
		}
		if !IsCorrupt(readErr) || !strings.Contains(readErr.Error(), tc.want) {
			t.Fatalf("%s: readShard returned %v, want corruption naming %q", tc.name, readErr, tc.want)
		}
		if !IsCorrupt(decodeErr) {
			t.Fatalf("%s: Decode returned %v, want corruption", tc.name, decodeErr)
		}
	}
}

// TestEncodeRefusesHOverride: core.Config.HOverride is a function, which a
// snapshot cannot record, so a structure built with one, static or inside
// a dynamic shard, is not saved.
func TestEncodeRefusesHOverride(t *testing.T) {
	tr, err := tree.NewBalancedBinary(16)
	if err != nil {
		t.Fatal(err)
	}
	cats := randomCatalogs(t, tr, 20, rand.New(rand.NewSource(17)))
	cfg := core.Config{HOverride: func(int) int { return 2 }}
	st, err := core.Build(tr, cats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dynamic.New(tr, cats, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []Shard{{Kind: KindStatic, Static: st}, {Kind: KindDynamic, Dynamic: d}} {
		if _, err := Encode(&Store{Shards: []Shard{sh}}); err == nil || !strings.Contains(err.Error(), "HOverride") {
			t.Fatalf("kind %d: encoding a structure built with HOverride returned %v", sh.Kind, err)
		}
	}
}

// TestEncodeRefusesNonCanonicalCatalogs: a load rebuilds each native
// catalog from its finite keys and payloads, as catalog.FromKeys makes
// it, so a native catalog FromKeys could not have made — one holding a
// dummy entry, a key at −∞, or a payload on its +∞ terminal — is refused
// at save, not restored as something else.
func TestEncodeRefusesNonCanonicalCatalogs(t *testing.T) {
	tr, err := tree.NewBalancedBinary(2)
	if err != nil {
		t.Fatal(err)
	}
	merged := catalog.MergeForCascade(catalog.MustFromKeys([]catalog.Key{4}, nil), []catalog.Entry{{Key: 2}})
	for name, bad := range map[string]catalog.Catalog{
		"dummy entry":      merged,
		"key at -inf":      catalog.MustFromKeys([]catalog.Key{catalog.MinusInf, 3}, nil),
		"terminal payload": catalog.MustFromKeys([]catalog.Key{3, catalog.PlusInf}, []int32{1, 2}),
	} {
		cats := []catalog.Catalog{catalog.Empty(), bad, catalog.Empty()}
		st, err := core.Build(tr, cats, core.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Encode(&Store{Shards: []Shard{{Kind: KindStatic, Static: st}}}); err == nil {
			t.Fatalf("%s: encoded", name)
		}
	}
}
