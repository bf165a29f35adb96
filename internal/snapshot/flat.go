// Flat sidecar (version 2): a page-aligned, offset-table container for
// frozen flat.Store blobs, designed so a restore can mmap the file and
// serve straight out of the mapping.
//
//	magic (8 bytes)  89 46 43 46 4C 41 54 0A   ("\x89FCFLAT\n")
//	version (u32 LE) currently 2
//	blob count (u32 LE)
//	generation (u64 LE) of the snapshot the sidecar was frozen against
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
// verifies on first touch. The sidecar stays a pure cache: any defect at
// either level surfaces as a typed error and the caller refreezes from the
// snapshot proper.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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

// EncodeFlat serialises a v2 sidecar. Blob payloads are laid out on 4096
// boundaries in table order.
func EncodeFlat(generation uint64, blobs []FlatBlob) []byte {
	headerLen := flatHeaderFixed + flatTableEntry*len(blobs) + 4
	offsets := make([]uint64, len(blobs))
	size := alignUp(headerLen, flatPageAlign)
	if len(blobs) == 0 {
		size = headerLen
	}
	for i, b := range blobs {
		offsets[i] = uint64(size)
		size += len(b.Data)
		if i+1 < len(blobs) {
			size = alignUp(size, flatPageAlign)
		}
	}
	data := make([]byte, 0, size)
	data = append(data, flatMagic...)
	data = binary.LittleEndian.AppendUint32(data, flatVersion)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(blobs)))
	data = binary.LittleEndian.AppendUint64(data, generation)
	for i, b := range blobs {
		data = binary.LittleEndian.AppendUint32(data, b.Kind)
		data = binary.LittleEndian.AppendUint32(data, 0)
		data = binary.LittleEndian.AppendUint64(data, offsets[i])
		data = binary.LittleEndian.AppendUint64(data, uint64(len(b.Data)))
	}
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
	for i, b := range blobs {
		for len(data) < int(offsets[i]) {
			data = append(data, 0)
		}
		data = append(data, b.Data...)
	}
	return data
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

// SaveFlat writes the sidecar crash-safely next to the snapshot (same
// temp + rename + dir-sync discipline as Save).
func SaveFlat(path string, generation uint64, blobs []FlatBlob) error {
	return SaveFlatFS(OSFS{}, path, generation, blobs)
}

// SaveFlatFS is SaveFlat over an injectable filesystem.
func SaveFlatFS(fsys FS, path string, generation uint64, blobs []FlatBlob) error {
	data := EncodeFlat(generation, blobs)
	dir := filepath.Dir(path)
	tmp, err := fsys.WriteTemp(dir, ".snapshot-flat-*.tmp", data)
	if err != nil {
		return fmt.Errorf("snapshot: write flat temp in %s: %w", dir, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("snapshot: rename %s -> %s: %w", tmp, path, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("snapshot: sync %s: %w", dir, err)
	}
	return nil
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
