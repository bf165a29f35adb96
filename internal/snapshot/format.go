// Package snapshot persists built cooperative search structures to disk
// and restores them without re-running construction.
//
// The on-disk format is a versioned, checksummed container:
//
//	magic (8 bytes)  89 46 43 53 4E 41 50 0A   ("\x89FCSNAP\n")
//	u32le            format version (currently 1)
//	u64le            structure generation (caller-defined)
//	u32le            section count
//	u32le            CRC32C of the 24 header bytes above
//	sections         section count times:
//	    u32le        section id
//	    u64le        payload length
//	    bytes        payload (varint-encoded structure state)
//	    u32le        CRC32C of the 12-byte section header + payload
//
// The magic byte 0x89 (high bit set, as in PNG) catches text-mode and
// 7-bit transmission damage; the trailing \n catches newline translation.
// Every length is validated against the remaining input before any
// allocation, so truncated or hostile inputs fail fast with a typed error
// instead of a panic or an over-allocation.
//
// Corruption handling: any defect — bad magic, version skew, truncation,
// checksum mismatch, or a structural invariant violation discovered while
// reassembling the structures — is reported as a *CorruptionError wrapping
// one of the sentinel reasons below. Callers test errors.Is against a
// sentinel for specifics or IsCorrupt for the whole family, and fall back
// to rebuild-from-source. A snapshot never loads into a structure that
// could answer incorrectly: everything not cross-checked here is
// re-validated by the cascade/core/dynamic import constructors.
//
// Versioning rules: the format version is bumped on any change to the
// section layout or payload encodings; readers reject other versions
// (ErrVersion) rather than guessing, and unknown or out-of-order section
// ids within a supported version are corruption. Compatibility across
// versions is intentionally not attempted — a snapshot is a cache of
// derivable state, so the fallback to rebuilding is always safe.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// FormatVersion is the current on-disk format version.
const FormatVersion = 1

// magic identifies a snapshot file.
const magic = "\x89FCSNAP\n"

// headerSize is magic + version + generation + section count + header CRC.
const headerSize = len(magic) + 4 + 8 + 4 + 4

// Section ids. Sections appear as: one manifest, then per shard in
// manifest order: tree, cascade, core, and (dynamic shards only) dynamic.
const (
	secManifest uint32 = 1
	secTree     uint32 = 2
	secCascade  uint32 = 3
	secCore     uint32 = 4
	secDynamic  uint32 = 5
)

// Sentinel reasons for snapshot corruption. They are always wrapped in a
// *CorruptionError; match with errors.Is, or IsCorrupt for the family.
var (
	ErrBadMagic  = errors.New("snapshot: bad magic")
	ErrVersion   = errors.New("snapshot: unsupported format version")
	ErrTruncated = errors.New("snapshot: truncated")
	ErrChecksum  = errors.New("snapshot: checksum mismatch")
	ErrCorrupt   = errors.New("snapshot: corrupt")
)

// CorruptionError is the typed error for every way a snapshot can fail to
// load from bytes. Reason is one of the sentinel errors above; Detail
// locates the defect.
type CorruptionError struct {
	Reason error
	Detail string
}

func (e *CorruptionError) Error() string {
	if e.Detail == "" {
		return e.Reason.Error()
	}
	return e.Reason.Error() + ": " + e.Detail
}

func (e *CorruptionError) Unwrap() error { return e.Reason }

// IsCorrupt reports whether err is a snapshot corruption error of any
// kind — the signal to fall back to rebuild-from-source. I/O errors (file
// missing, permission) are not corruption and return false.
func IsCorrupt(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

func corruptf(reason error, format string, args ...any) error {
	return &CorruptionError{Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writer accumulates one section payload in varint encoding.
type writer struct {
	buf []byte
}

func (w *writer) u64(v uint64)   { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) i64(v int64)    { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) uint(v int)     { w.u64(uint64(v)) }
func (w *writer) byteVal(b byte) { w.buf = append(w.buf, b) }
func (w *writer) boolVal(b bool) {
	if b {
		w.byteVal(1)
	} else {
		w.byteVal(0)
	}
}

// reader decodes one section payload with a sticky error: after the first
// failure every read returns zero values, so decode loops need only one
// error check at the end.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(reason error, format string, args ...any) {
	if r.err == nil {
		r.err = corruptf(reason, format, args...)
	}
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated, "uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated, "varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated, "byte at offset %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) boolVal() bool {
	b := r.byteVal()
	if b > 1 {
		r.fail(ErrCorrupt, "bool byte %d at offset %d", b, r.off-1)
	}
	return b == 1
}

// count reads an element count and validates it against the remaining
// payload assuming each element occupies at least elemBytes bytes, so a
// hostile count can never trigger a large allocation.
func (r *reader) count(elemBytes int) int {
	v := r.u64()
	if r.err != nil {
		return 0
	}
	if v > uint64(math.MaxInt32) || int64(v)*int64(elemBytes) > int64(r.remaining()) {
		r.fail(ErrTruncated, "count %d exceeds %d remaining bytes", v, r.remaining())
		return 0
	}
	return int(v)
}

// finish reports the sticky error, flagging undecoded trailing bytes.
func (r *reader) finish() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail(ErrCorrupt, "%d trailing bytes in section payload", r.remaining())
	}
	return r.err
}

// appendHeader writes the container header for the given generation and
// section count.
func appendHeader(dst []byte, generation uint64, sections int) []byte {
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint32(dst, FormatVersion)
	dst = binary.LittleEndian.AppendUint64(dst, generation)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(sections))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst, castagnoli))
}

// sectionHeaderSize is a section's id and payload length.
const sectionHeaderSize = 4 + 8

// frameSection frames one section in place: it fills in the header room at
// the front of sec, before the payload, and appends a CRC32C over both.
func frameSection(sec []byte, id uint32) []byte {
	binary.LittleEndian.PutUint32(sec, id)
	binary.LittleEndian.PutUint64(sec[4:], uint64(len(sec)-sectionHeaderSize))
	return binary.LittleEndian.AppendUint32(sec, crc32.Checksum(sec, castagnoli))
}

// parseHeader validates magic, version, and header checksum, returning the
// generation, the declared section count, and the offset where sections
// begin.
func parseHeader(data []byte) (generation uint64, sections uint32, off int, err error) {
	if len(data) < len(magic) {
		if string(data) == magic[:len(data)] {
			return 0, 0, 0, corruptf(ErrTruncated, "%d bytes, header needs %d", len(data), headerSize)
		}
		return 0, 0, 0, corruptf(ErrBadMagic, "%d-byte input", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return 0, 0, 0, corruptf(ErrBadMagic, "got % x", data[:len(magic)])
	}
	if len(data) < headerSize {
		return 0, 0, 0, corruptf(ErrTruncated, "%d bytes, header needs %d", len(data), headerSize)
	}
	ver := binary.LittleEndian.Uint32(data[len(magic):])
	if ver != FormatVersion {
		return 0, 0, 0, corruptf(ErrVersion, "file version %d, reader supports %d", ver, FormatVersion)
	}
	generation = binary.LittleEndian.Uint64(data[len(magic)+4:])
	sections = binary.LittleEndian.Uint32(data[len(magic)+12:])
	sum := binary.LittleEndian.Uint32(data[headerSize-4:])
	if crc32.Checksum(data[:headerSize-4], castagnoli) != sum {
		return 0, 0, 0, corruptf(ErrChecksum, "header")
	}
	return generation, sections, headerSize, nil
}

// nextSection parses the section starting at off, verifying its checksum.
func nextSection(data []byte, off int) (id uint32, payload []byte, next int, err error) {
	if len(data)-off < sectionHeaderSize+4 {
		return 0, nil, 0, corruptf(ErrTruncated, "section header at offset %d", off)
	}
	id = binary.LittleEndian.Uint32(data[off:])
	plen := binary.LittleEndian.Uint64(data[off+4:])
	if plen > uint64(len(data)-off-sectionHeaderSize-4) {
		return 0, nil, 0, corruptf(ErrTruncated, "section %d payload of %d bytes at offset %d", id, plen, off)
	}
	payload = data[off+sectionHeaderSize : off+sectionHeaderSize+int(plen)]
	sumOff := off + sectionHeaderSize + int(plen)
	sum := binary.LittleEndian.Uint32(data[sumOff:])
	if crc32.Checksum(data[off:sumOff], castagnoli) != sum {
		return 0, nil, 0, corruptf(ErrChecksum, "section %d at offset %d", id, off)
	}
	return id, payload, sumOff + 4, nil
}
