package snapshot

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fraccascade/internal/core"
	"fraccascade/internal/flat"
	"fraccascade/internal/tree"
)

// frozenBlobs builds a couple of frozen shards and their stores for
// sidecar tests.
func frozenBlobs(tb testing.TB, seed int64) ([]*flat.Structure, []*flat.StoreBuilder) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	var structs []*flat.Structure
	var stores []*flat.StoreBuilder
	for _, leaves := range []int{8, 16} {
		structs = append(structs, frozenShard(tb, leaves, 12, rng))
		stores = append(stores, structs[len(structs)-1].StoreBuilder())
	}
	return structs, stores
}

// frozenShard builds and freezes one catalog shard of perNode entries per
// node over a balanced tree with the given leaves.
func frozenShard(tb testing.TB, leaves, perNode int, rng *rand.Rand) *flat.Structure {
	tb.Helper()
	bt, err := tree.NewBalancedBinary(leaves)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := core.Build(bt, randomCatalogs(tb, bt, perNode, rng), core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	f, err := flat.Freeze(st)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// encodeFlat returns the sidecar writeFlat streams for stores.
func encodeFlat(tb testing.TB, generation uint64, stores []*flat.StoreBuilder) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeFlat(&buf, generation, stores); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestFlatSidecarRoundTrip(t *testing.T) {
	structs, blobs := frozenBlobs(t, 71)
	data := encodeFlat(t, 42, blobs)
	gen, got, err := DecodeFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 42 {
		t.Errorf("generation %d, want 42", gen)
	}
	if len(got) != len(blobs) {
		t.Fatalf("%d blobs, want %d", len(got), len(blobs))
	}
	for i := range blobs {
		if got[i].Kind != flat.StoreKindCatalog {
			t.Fatalf("blob %d: kind %d, want catalog", i, got[i].Kind)
		}
		var g flat.Structure
		if err := g.UnmarshalBinary(got[i].Data); err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
		if g.NumNodes() != structs[i].NumNodes() {
			t.Fatalf("blob %d: %d nodes, want %d", i, g.NumNodes(), structs[i].NumNodes())
		}
	}

	// Empty sidecar (no shards) round-trips too.
	gen, got, err = DecodeFlat(encodeFlat(t, 7, nil))
	if err != nil || gen != 7 || len(got) != 0 {
		t.Fatalf("empty sidecar: gen=%d blobs=%d err=%v", gen, len(got), err)
	}
}

// TestFlatSidecarBlobAlignment pins the property the zero-copy restore
// rests on: every blob offset is a multiple of the page size, so blobs in
// a page-aligned mapping keep the flat store's natural 8-byte alignment.
func TestFlatSidecarBlobAlignment(t *testing.T) {
	_, blobs := frozenBlobs(t, 74)
	data := encodeFlat(t, 3, blobs)
	_, got, err := DecodeFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if len(b.Data) == 0 {
			continue
		}
		// Alignment is asserted through behaviour: a zero-copy open
		// silently degrades to copying if the blob is misaligned.
		f, zeroCopy, err := flat.OpenStructure(b.Data)
		if err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
		if !zeroCopy {
			t.Errorf("blob %d: zero-copy open degraded to copying (misaligned blob?)", i)
		}
		if f.NumNodes() == 0 {
			t.Errorf("blob %d: empty structure", i)
		}
	}
}

func TestFlatSidecarRejectsCorruption(t *testing.T) {
	_, blobs := frozenBlobs(t, 72)
	data := encodeFlat(t, 9, blobs)

	if _, _, err := DecodeFlat(nil); !IsCorrupt(err) {
		t.Errorf("nil input: %v", err)
	}
	if _, _, err := DecodeFlat(data[:flatHeaderFixed-2]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated header: %v", err)
	}
	if _, _, err := DecodeFlat(data[:len(data)-5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated body: %v", err)
	}
	if _, _, err := DecodeFlat(append(append([]byte{}, data...), 1, 2, 3)); !IsCorrupt(err) {
		t.Errorf("trailing bytes: %v", err)
	}
	bad := append([]byte{}, data...)
	bad[0] ^= 0x10
	if _, _, err := DecodeFlat(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	// Every bit flip is caught at one of the two levels: the sidecar
	// header CRC (table flips) or the flat store CRC on first touch
	// (payload flips).
	rng := rand.New(rand.NewSource(720))
	for i := 0; i < 64; i++ {
		bad := append([]byte{}, data...)
		bit := rng.Intn(len(bad) * 8)
		bad[bit/8] ^= 1 << uint(bit%8)
		_, got, err := DecodeFlat(bad)
		if err != nil {
			continue
		}
		caught := false
		for _, b := range got {
			if err := new(flat.Structure).UnmarshalBinary(b.Data); err != nil {
				caught = true
			}
		}
		if !caught {
			t.Fatalf("bit flip at %d went undetected by both container and blob CRC", bit)
		}
	}
}

// TestFlatSidecarTruncatedPastHeader pins the decoder on a sidecar cut
// anywhere between the end of its header and its first blob: the header
// and its CRC are intact, so the table's offsets point past the data, and
// every such length must decode to a typed truncation error, never a
// panic (the padding before the first blob used to be read before the
// offset was checked).
func TestFlatSidecarTruncatedPastHeader(t *testing.T) {
	_, blobs := frozenBlobs(t, 73)
	data := encodeFlat(t, 9, blobs)
	headerLen := flatHeaderFixed + flatTableEntry*len(blobs) + 4
	firstBlob := alignUp(headerLen, flatPageAlign)
	for n := headerLen; n <= firstBlob; n++ {
		if _, _, err := DecodeFlat(data[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("sidecar cut to %d bytes (header %d, first blob at %d): err %v, want ErrTruncated", n, headerLen, firstBlob, err)
		}
	}
}

func TestFlatSidecarSaveLoad(t *testing.T) {
	_, blobs := frozenBlobs(t, 73)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.flat")
	if err := SaveFlat(path, 17, blobs); err != nil {
		t.Fatal(err)
	}
	gen, got, err := LoadFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 17 || len(got) != len(blobs) {
		t.Fatalf("gen=%d blobs=%d, want 17/%d", gen, len(got), len(blobs))
	}
	// Overwrite is atomic-replace: a second save with a new generation wins.
	if err := SaveFlat(path, 18, blobs[:1]); err != nil {
		t.Fatal(err)
	}
	gen, got, err = LoadFlat(path)
	if err != nil || gen != 18 || len(got) != 1 {
		t.Fatalf("after rewrite: gen=%d blobs=%d err=%v", gen, len(got), err)
	}
	// Missing file: plain not-exist I/O error, not corruption.
	if _, _, err := LoadFlat(filepath.Join(dir, "absent.flat")); !os.IsNotExist(err) || IsCorrupt(err) {
		t.Errorf("missing file: %v", err)
	}
}

// TestFlatSidecarSaveStreams: SaveFlat streams a 4 MB catalog blob from
// the frozen arrays, so the heap grows by under 64 KB while it saves
// (measured as E24 measures heap_kb: collect, save, read HeapAlloc), and
// the file round-trips through OpenFlat and a zero-copy OpenStructure to
// the same encoding.
func TestFlatSidecarSaveStreams(t *testing.T) {
	f := frozenShard(t, 1024, 48, rand.New(rand.NewSource(77)))
	want, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 4<<20 {
		t.Fatalf("blob is %d bytes, want at least 4 MB", len(want))
	}
	path := filepath.Join(t.TempDir(), "snap.flat")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = SaveFlat(path, 5, []*flat.StoreBuilder{f.StoreBuilder()})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 64<<10 {
		t.Fatalf("saving a %d-byte blob grew the heap by %d bytes, want under 64 KB", len(want), grew)
	}
	v, err := OpenFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if v.Generation != 5 || len(v.Blobs) != 1 || v.Blobs[0].Kind != flat.StoreKindCatalog {
		t.Fatalf("view gen=%d blobs=%d, want 5 and one catalog blob", v.Generation, len(v.Blobs))
	}
	g, _, err := flat.OpenStructure(v.Blobs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := g.MarshalBinary(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reopened blob re-encodes to %d bytes (err %v), want the original %d", len(got), err, len(want))
	}
}

// TestFlatSidecarOpenMmap exercises the zero-copy restore path end to end:
// save, open as a view, decode a structure straight out of the mapping,
// query it, close.
func TestFlatSidecarOpenMmap(t *testing.T) {
	structs, blobs := frozenBlobs(t, 75)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.flat")
	if err := SaveFlat(path, 21, blobs); err != nil {
		t.Fatal(err)
	}
	v, err := OpenFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	wantMapped := runtime.GOOS == "linux" || runtime.GOOS == "darwin"
	if v.Mapped != wantMapped {
		t.Errorf("Mapped=%v on %s, want %v", v.Mapped, runtime.GOOS, wantMapped)
	}
	if v.Generation != 21 || len(v.Blobs) != len(blobs) {
		t.Fatalf("view gen=%d blobs=%d, want 21/%d", v.Generation, len(v.Blobs), len(blobs))
	}
	for i, b := range v.Blobs {
		f, zeroCopy, err := flat.OpenStructure(b.Data)
		if err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
		if v.Mapped && !zeroCopy {
			t.Errorf("blob %d: mapped open degraded to copying", i)
		}
		if f.NumNodes() != structs[i].NumNodes() {
			t.Errorf("blob %d: %d nodes, want %d", i, f.NumNodes(), structs[i].NumNodes())
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Opening a missing path surfaces not-exist, never corruption.
	if _, err := OpenFlat(filepath.Join(dir, "absent.flat")); !os.IsNotExist(err) {
		t.Errorf("missing file: %v", err)
	}
	// Opening a corrupt sidecar fails typed and leaks no mapping.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(flatMagic)+6] ^= 0xFF // blob-count field
	badPath := filepath.Join(dir, "bad.flat")
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFlat(badPath); !IsCorrupt(err) {
		t.Errorf("corrupt sidecar: %v", err)
	}
}
