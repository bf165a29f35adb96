// Flat sidecar (version 2): a page-aligned, offset-table container for
// frozen flat.Store blobs, designed so a restore can mmap the file and
// serve straight out of the mapping.
//
//	magic (8 bytes)  89 46 43 46 4C 41 54 0A   ("\x89FCFLAT\n")
//	version (u32 LE) currently 2
//	blob count (u32 LE)
//	generation (u64 LE) caller-defined; coopserve writes the Binding.Word
//	                 of the snapshot whose shards the sidecar holds
//	blob table, one 24-byte row per blob:
//	    kind (u32 LE)    the blob's flat store kind (catalog, spatial, ...)
//	    reserved (u32)   zero
//	    offset (u64 LE)  file offset of the blob, 4096-aligned
//	    length (u64 LE)  blob length in bytes
//	header CRC (u32 LE, Castagnoli over everything above)
//	zero padding to the first 4096 boundary
//	blobs, each starting on a 4096 boundary
//
// Page alignment is what makes the zero-copy path work: mmap bases are
// page-aligned, so a 4096-aligned blob offset lands every blob — and the
// 8-byte-aligned arena inside it — at its natural alignment inside the
// mapping, which is exactly what flat.OpenStore needs to alias the mapped
// bytes instead of copying them.
//
// The header CRC covers only the table; each blob carries its own
// full-content CRC inside the flat.Store container, which flat.OpenStore
// verifies before it hands out any section. The sidecar stays a pure
// cache: any defect at either level surfaces as a typed error and the
// caller restores from the snapshot proper. SaveFlat replaces the file by
// rename, so a live mapping keeps the old inode; only an outside writer
// that truncates the mapped file in place can fault it (SIGBUS).
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"fraccascade/internal/flat"
)

const (
	flatMagic     = "\x89FCFLAT\n"
	flatVersion   = 2
	flatPageAlign = 4096
	// flatHeaderFixed is magic + version + blob count + generation.
	flatHeaderFixed = len(flatMagic) + 4 + 4 + 8
	flatTableEntry  = 24
	// flatMaxBlobs bounds the table before any allocation is sized from a
	// hostile count field.
	flatMaxBlobs = 1 << 20
)

// FlatBlob is one frozen structure in the sidecar: the flat store blob and
// its kind (flat.StoreKindCatalog and friends), so a restore can route
// each blob to the right decoder without sniffing the payload.
type FlatBlob struct {
	Kind uint32
	Data []byte
}

// zeroPage is the padding writeFlat writes in front of each blob.
var zeroPage [flatPageAlign]byte

// writeFlat streams a v2 sidecar of stores to w: the header and table,
// then each store on a 4096 boundary in table order, written from its own
// arrays by StoreBuilder.WriteTo. It never holds a store's encoding in
// memory.
func writeFlat(w io.Writer, generation uint64, stores []*flat.StoreBuilder) error {
	headerLen := flatHeaderFixed + flatTableEntry*len(stores) + 4
	sizes := make([]int, len(stores))
	offsets := make([]int, len(stores))
	end := headerLen
	for i, st := range stores {
		offsets[i] = alignUp(end, flatPageAlign)
		sizes[i] = st.Size()
		end = offsets[i] + sizes[i]
	}
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, flatMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, flatVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(stores)))
	hdr = binary.LittleEndian.AppendUint64(hdr, generation)
	for i, st := range stores {
		hdr = binary.LittleEndian.AppendUint32(hdr, st.Kind())
		hdr = binary.LittleEndian.AppendUint32(hdr, 0)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(offsets[i]))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(sizes[i]))
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, castagnoli))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	end = headerLen
	for i, st := range stores {
		if _, err := w.Write(zeroPage[:offsets[i]-end]); err != nil {
			return err
		}
		n, err := st.WriteTo(w)
		if err != nil {
			return err
		}
		if n != int64(sizes[i]) {
			return fmt.Errorf("snapshot: sidecar blob %d wrote %d bytes, its size is %d", i, n, sizes[i])
		}
		end = offsets[i] + sizes[i]
	}
	return nil
}

// DecodeFlat parses a v2 sidecar, returning the generation it was written
// against and the per-structure blobs. Blob payloads alias data — callers
// that decode from a mapping must keep the mapping alive for as long as
// any zero-copy structure opened from a blob. The blobs themselves are not
// checksummed here; flat.OpenStore is the gatekeeper for their contents.
func DecodeFlat(data []byte) (generation uint64, blobs []FlatBlob, err error) {
	if len(data) < len(flatMagic) {
		if string(data) == flatMagic[:len(data)] {
			return 0, nil, corruptf(ErrTruncated, "sidecar %d bytes, header needs %d", len(data), flatHeaderFixed+4)
		}
		return 0, nil, corruptf(ErrBadMagic, "sidecar got % x", data)
	}
	if string(data[:len(flatMagic)]) != flatMagic {
		return 0, nil, corruptf(ErrBadMagic, "sidecar got % x", data[:len(flatMagic)])
	}
	if len(data) < flatHeaderFixed+4 {
		return 0, nil, corruptf(ErrTruncated, "sidecar %d bytes, header needs %d", len(data), flatHeaderFixed+4)
	}
	ver := binary.LittleEndian.Uint32(data[len(flatMagic):])
	if ver != flatVersion {
		return 0, nil, corruptf(ErrVersion, "sidecar version %d, supported %d", ver, flatVersion)
	}
	count := binary.LittleEndian.Uint32(data[len(flatMagic)+4:])
	if count > flatMaxBlobs {
		return 0, nil, corruptf(ErrCorrupt, "sidecar claims %d blobs, cap %d", count, flatMaxBlobs)
	}
	generation = binary.LittleEndian.Uint64(data[len(flatMagic)+8:])
	headerLen := flatHeaderFixed + flatTableEntry*int(count) + 4
	if len(data) < headerLen {
		return 0, nil, corruptf(ErrTruncated, "sidecar %d bytes, %d-blob table needs %d", len(data), count, headerLen)
	}
	sum := binary.LittleEndian.Uint32(data[headerLen-4:])
	if crc32.Checksum(data[:headerLen-4], castagnoli) != sum {
		return 0, nil, corruptf(ErrChecksum, "sidecar header")
	}
	blobs = make([]FlatBlob, 0, count)
	expectEnd := headerLen
	if count > 0 {
		expectEnd = alignUp(headerLen, flatPageAlign)
	}
	for i := uint32(0); i < count; i++ {
		row := flatHeaderFixed + flatTableEntry*int(i)
		kind := binary.LittleEndian.Uint32(data[row:])
		off := binary.LittleEndian.Uint64(data[row+8:])
		length := binary.LittleEndian.Uint64(data[row+16:])
		if off%flatPageAlign != 0 {
			return 0, nil, corruptf(ErrCorrupt, "sidecar blob %d at offset %d, not page-aligned", i, off)
		}
		if off != uint64(expectEnd) {
			return 0, nil, corruptf(ErrCorrupt, "sidecar blob %d at offset %d, want %d", i, off, expectEnd)
		}
		// Bound the blob by the data before reading anything up to it: a
		// truncated file can keep a valid header whose offsets point past
		// its end.
		end := off + length
		if end < off || end > uint64(len(data)) {
			return 0, nil, corruptf(ErrTruncated, "sidecar blob %d spans [%d, %d) of %d bytes", i, off, end, len(data))
		}
		// Alignment padding carries no checksum of its own; require it to
		// be zero so a torn write or flip there still surfaces as typed
		// corruption. padStart tracks the end of the previous region.
		padStart := headerLen
		if i > 0 {
			prev := flatHeaderFixed + flatTableEntry*int(i-1)
			padStart = int(binary.LittleEndian.Uint64(data[prev+8:]) + binary.LittleEndian.Uint64(data[prev+16:]))
		}
		for j := padStart; j < int(off); j++ {
			if data[j] != 0 {
				return 0, nil, corruptf(ErrCorrupt, "sidecar padding byte %d is %#x, want 0", j, data[j])
			}
		}
		blobs = append(blobs, FlatBlob{Kind: kind, Data: data[off:end]})
		expectEnd = int(end)
		if i+1 < count {
			expectEnd = alignUp(expectEnd, flatPageAlign)
		}
	}
	if expectEnd != len(data) {
		return 0, nil, corruptf(ErrCorrupt, "%d trailing bytes after sidecar blobs", len(data)-expectEnd)
	}
	return generation, blobs, nil
}

func alignUp(n, align int) int {
	return (n + align - 1) &^ (align - 1)
}

// SaveFlat writes a v2 sidecar of stores to path as crash-safely as Save:
// writeFlat into a temp file in the same directory, fsync, rename over
// path, fsync the directory. It streams: its heap does not grow with the
// stores. A failed save removes its temp file and leaves path as it was.
func SaveFlat(path string, generation uint64, stores []*flat.StoreBuilder) error {
	dir := filepath.Dir(path)
	tmp, err := writeTemp(dir, ".snapshot-flat-*.tmp", func(w io.Writer) error {
		return writeFlat(w, generation, stores)
	})
	if err != nil {
		return fmt.Errorf("snapshot: write flat temp in %s: %w", dir, err)
	}
	return commit(OSFS{}, tmp, path)
}

// LoadFlat reads and parses the sidecar at path into private memory (no
// mapping — blobs are safe to hold indefinitely). Missing files surface
// the I/O error (IsCorrupt false); undecodable contents a
// *CorruptionError. Either way the caller refreezes from the pointer
// structures. Restores that want the zero-copy path use OpenFlat instead.
func LoadFlat(path string) (generation uint64, blobs []FlatBlob, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	return DecodeFlat(data)
}

// FlatView is an opened sidecar: the decoded table plus the backing bytes,
// which may be a read-only file mapping. Blob payloads alias the backing
// bytes, so the view must stay open for as long as any structure opened
// zero-copy from a blob is in use. Close is idempotent.
type FlatView struct {
	Generation uint64
	Blobs      []FlatBlob
	// Mapped reports whether the backing bytes are a file mapping (true)
	// or private memory from a plain read (false).
	Mapped bool

	unmap func() error
}

// Close releases the file mapping, if any. After Close every blob — and
// every zero-copy structure opened from one — is invalid.
func (v *FlatView) Close() error {
	if v.unmap == nil {
		return nil
	}
	f := v.unmap
	v.unmap = nil
	v.Blobs = nil
	return f()
}

// OpenFlat opens the sidecar at path for restore, mapping it read-only
// when the platform supports it and falling back to a plain read
// otherwise. The decoded view's blobs point straight into the mapping, so
// flat.OpenStore on a blob yields structures that serve queries out of the
// page cache — no deserialisation, no private copy, cold-start cost
// proportional to the pages actually touched.
func OpenFlat(path string) (*FlatView, error) {
	data, unmap, err := mmapFile(path)
	if err == nil {
		gen, blobs, derr := DecodeFlat(data)
		if derr != nil {
			_ = unmap()
			return nil, derr
		}
		return &FlatView{Generation: gen, Blobs: blobs, Mapped: true, unmap: unmap}, nil
	}
	if os.IsNotExist(err) {
		return nil, err
	}
	gen, blobs, err := LoadFlat(path)
	if err != nil {
		return nil, err
	}
	return &FlatView{Generation: gen, Blobs: blobs, Mapped: false}, nil
}
