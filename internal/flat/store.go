package flat

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"
)

// Store is the reusable SoA array-arena codec every frozen backend encodes
// through: a typed sequence of int32/int64 sections behind a fixed header
// and a section-offset table, with the arena page-aligned so a file opened
// by mmap exposes every array at its natural alignment.
//
// Layout (all integers little-endian):
//
//	magic "\x89FCSTOR\n" (8 bytes)
//	u32  store format version (currently 1)
//	u32  kind (which frozen backend wrote the store)
//	u32  meta count
//	u32  section count
//	meta count × u64   scalar metadata (roots, counts, parameter bits)
//	section count × {u32 width (4 or 8), u32 reserved, u64 offset, u64 count}
//	zero padding to the next storePageAlign boundary
//	arena: section payloads, each 8-byte aligned, in table order
//	u32  CRC-32C over everything before it
//
// Offsets in the table are absolute file offsets. A store opened zero-copy
// aliases the input buffer (the mmap view); a store opened copying decodes
// each section into fresh slices, so the input may be reused. Either way
// the header, table, bounds, and checksum are fully validated before any
// section is handed out — hostile bytes yield an error, never a panic or
// an out-of-range view.
const (
	storeMagic   = "\x89FCSTOR\n"
	storeVersion = uint32(1)
	// storePageAlign aligns the arena start so page-aligned mappings give
	// 8-byte-aligned arrays.
	storePageAlign = 4096
	// storeMaxSections bounds the table before allocation; no frozen
	// backend comes near it.
	storeMaxSections = 1 << 20
)

// Store kinds: one per frozen backend family.
const (
	StoreKindCatalog = uint32(1)
	StoreKindSpatial = uint32(2)
)

// storeHeaderFixed is magic + version + kind + meta count + section count.
const storeHeaderFixed = 8 + 4 + 4 + 4 + 4

// storeSectionEntry is the table stride: width + reserved + offset + count.
const storeSectionEntry = 4 + 4 + 8 + 8

// hostLittleEndian reports whether the running host stores integers
// little-endian, the precondition for aliasing the on-disk arrays.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// StoreBuilder accumulates sections for one frozen structure.
type StoreBuilder struct {
	kind uint32
	meta []uint64
	secs []builderSection
}

type builderSection struct {
	width int
	i32   []int32
	i64   []int64
}

// NewStoreBuilder starts a store of the given kind.
func NewStoreBuilder(kind uint32) *StoreBuilder {
	return &StoreBuilder{kind: kind}
}

// Meta appends one scalar metadata word.
func (b *StoreBuilder) Meta(v uint64) { b.meta = append(b.meta, v) }

// I32s appends an int32 section.
func (b *StoreBuilder) I32s(s []int32) {
	b.secs = append(b.secs, builderSection{width: 4, i32: s})
}

// I64s appends an int64 section.
func (b *StoreBuilder) I64s(s []int64) {
	b.secs = append(b.secs, builderSection{width: 8, i64: s})
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// storeChunk is the buffer WriteTo encodes through: small enough that
// streaming a store allocates next to nothing, large enough that one write
// per chunk costs little.
const storeChunk = 32 << 10

// Kind returns the store kind the builder writes.
func (b *StoreBuilder) Kind() uint32 { return b.kind }

// len returns the section's element count.
func (s builderSection) len() int {
	if s.width == 8 {
		return len(s.i64)
	}
	return len(s.i32)
}

// headerLen returns the length of the header and the section table.
func (b *StoreBuilder) headerLen() int {
	return storeHeaderFixed + 8*len(b.meta) + storeSectionEntry*len(b.secs)
}

// arenaStart returns the offset of the first section: the header and
// table, rounded up to the page size.
func (b *StoreBuilder) arenaStart() int {
	return (b.headerLen() + storePageAlign - 1) &^ (storePageAlign - 1)
}

// Size returns the length of the encoded store in bytes.
func (b *StoreBuilder) Size() int {
	off := b.arenaStart()
	for _, s := range b.secs {
		off = align8(off + s.width*s.len())
	}
	return off + 4 // trailing CRC
}

// WriteTo streams the encoded store to w through one storeChunk-byte
// buffer, checksumming as it goes, so it never holds the encoding: the
// sections are read straight from the arrays the builder was handed. The
// bytes are Marshal's, Size of them.
func (b *StoreBuilder) WriteTo(w io.Writer) (int64, error) {
	if len(b.secs) > storeMaxSections {
		return 0, fmt.Errorf("flat: %d sections exceed the store limit", len(b.secs))
	}
	e := &storeWriter{w: w, buf: make([]byte, 0, storeChunk)}
	e.reserve(storeHeaderFixed)
	e.buf = append(e.buf, storeMagic...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, storeVersion)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, b.kind)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(b.meta)))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(b.secs)))
	for _, m := range b.meta {
		e.reserve(8)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, m)
	}
	arenaStart := b.arenaStart()
	off := arenaStart
	for _, s := range b.secs {
		e.reserve(storeSectionEntry)
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(s.width))
		e.buf = binary.LittleEndian.AppendUint32(e.buf, 0)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(off))
		e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(s.len()))
		off = align8(off + s.width*s.len())
	}
	e.zeros(arenaStart - b.headerLen())
	for _, s := range b.secs {
		for vs := s.i32; len(vs) > 0; {
			k := min(len(vs), (cap(e.buf)-len(e.buf))/4)
			for _, v := range vs[:k] {
				e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v))
			}
			if vs = vs[k:]; len(vs) > 0 {
				e.flush()
			}
		}
		for vs := s.i64; len(vs) > 0; {
			k := min(len(vs), (cap(e.buf)-len(e.buf))/8)
			for _, v := range vs[:k] {
				e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
			}
			if vs = vs[k:]; len(vs) > 0 {
				e.flush()
			}
		}
		n := s.width * s.len()
		e.zeros(align8(n) - n)
	}
	e.flush()
	e.buf = binary.LittleEndian.AppendUint32(e.buf, e.crc)
	e.flush()
	return e.n, e.err
}

// Marshal lays the store out and returns the encoded bytes: WriteTo into
// one buffer of Size bytes.
func (b *StoreBuilder) Marshal() ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, b.Size()))
	if _, err := b.WriteTo(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// storeWriter is WriteTo's output: one fixed buffer, the running CRC-32C
// of everything flushed, and a sticky write error.
type storeWriter struct {
	w   io.Writer
	buf []byte
	crc uint32
	n   int64
	err error
}

// flush checksums and writes the buffered bytes and empties the buffer.
func (e *storeWriter) flush() {
	if e.err == nil && len(e.buf) > 0 {
		e.crc = crc32.Update(e.crc, crcTable, e.buf)
		var k int
		k, e.err = e.w.Write(e.buf)
		e.n += int64(k)
	}
	e.buf = e.buf[:0]
}

// reserve flushes unless n more bytes fit in the buffer.
func (e *storeWriter) reserve(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.flush()
	}
}

// zeros appends n zero bytes of padding.
func (e *storeWriter) zeros(n int) {
	for n > 0 {
		e.reserve(1)
		k := min(n, cap(e.buf)-len(e.buf))
		e.buf = append(e.buf, make([]byte, k)...)
		n -= k
	}
}

// Store is a decoded (or aliased) section arena.
type Store struct {
	kind     uint32
	meta     []uint64
	widths   []uint32
	offs     []uint64
	counts   []uint64
	data     []byte
	zeroCopy bool
}

// OpenStore validates and opens an encoded store. With zeroCopy true the
// returned sections alias data (only possible on little-endian hosts when
// data is 8-byte aligned; otherwise the open silently degrades to
// copying). The full buffer is checksummed and every table entry is
// bounds- and alignment-checked up front, so hostile input fails with an
// error before any section view exists.
func OpenStore(data []byte, zeroCopy bool) (*Store, error) {
	if len(data) < storeHeaderFixed+4 {
		return nil, fmt.Errorf("flat: %d-byte store too short", len(data))
	}
	if string(data[:8]) != storeMagic {
		return nil, fmt.Errorf("flat: bad store magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("flat: store checksum mismatch (got %08x, want %08x)", got, want)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != storeVersion {
		return nil, fmt.Errorf("flat: unsupported store version %d (want %d)", v, storeVersion)
	}
	kind := binary.LittleEndian.Uint32(data[12:])
	nMeta := int(binary.LittleEndian.Uint32(data[16:]))
	nSecs := int(binary.LittleEndian.Uint32(data[20:]))
	if nSecs > storeMaxSections {
		return nil, fmt.Errorf("flat: store declares %d sections", nSecs)
	}
	headerLen := storeHeaderFixed + 8*nMeta + storeSectionEntry*nSecs
	if headerLen > len(body) {
		return nil, fmt.Errorf("flat: store header of %d bytes exceeds %d-byte input", headerLen, len(data))
	}
	s := &Store{
		kind:   kind,
		meta:   make([]uint64, nMeta),
		widths: make([]uint32, nSecs),
		offs:   make([]uint64, nSecs),
		counts: make([]uint64, nSecs),
		data:   data,
	}
	p := storeHeaderFixed
	for i := range s.meta {
		s.meta[i] = binary.LittleEndian.Uint64(data[p:])
		p += 8
	}
	arenaStart := (headerLen + storePageAlign - 1) &^ (storePageAlign - 1)
	for i := 0; i < nSecs; i++ {
		w := binary.LittleEndian.Uint32(data[p:])
		off := binary.LittleEndian.Uint64(data[p+8:])
		cnt := binary.LittleEndian.Uint64(data[p+16:])
		p += storeSectionEntry
		if w != 4 && w != 8 {
			return nil, fmt.Errorf("flat: store section %d has width %d", i, w)
		}
		if off%8 != 0 || off < uint64(arenaStart) {
			return nil, fmt.Errorf("flat: store section %d misaligned at offset %d", i, off)
		}
		end := off + uint64(w)*cnt
		if end < off || end > uint64(len(body)) {
			return nil, fmt.Errorf("flat: store section %d of %d×%d bytes at offset %d out of range", i, cnt, w, off)
		}
		s.widths[i], s.offs[i], s.counts[i] = w, off, cnt
	}
	if zeroCopy && hostLittleEndian &&
		(len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%8 == 0) {
		s.zeroCopy = true
	}
	return s, nil
}

// Kind returns the store kind written by the builder.
func (s *Store) Kind() uint32 { return s.kind }

// ZeroCopy reports whether section views alias the input buffer.
func (s *Store) ZeroCopy() bool { return s.zeroCopy }

// NumMeta returns the scalar metadata count.
func (s *Store) NumMeta() int { return len(s.meta) }

// MetaAt returns metadata word i.
func (s *Store) MetaAt(i int) uint64 { return s.meta[i] }

// NumSections returns the section count.
func (s *Store) NumSections() int { return len(s.widths) }

// I32s returns section i as an int32 slice, aliasing the store buffer when
// the store is zero-copy.
func (s *Store) I32s(i int) ([]int32, error) {
	if i < 0 || i >= len(s.widths) {
		return nil, fmt.Errorf("flat: store section %d out of range [0, %d)", i, len(s.widths))
	}
	if s.widths[i] != 4 {
		return nil, fmt.Errorf("flat: store section %d holds int64, want int32", i)
	}
	n := int(s.counts[i])
	if n == 0 {
		return nil, nil
	}
	raw := s.data[s.offs[i] : s.offs[i]+uint64(4*n)]
	if s.zeroCopy {
		return unsafe.Slice((*int32)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]int32, n)
	for j := range out {
		out[j] = int32(binary.LittleEndian.Uint32(raw[4*j:]))
	}
	return out, nil
}

// I64s returns section i as an int64 slice, aliasing the store buffer when
// the store is zero-copy.
func (s *Store) I64s(i int) ([]int64, error) {
	if i < 0 || i >= len(s.widths) {
		return nil, fmt.Errorf("flat: store section %d out of range [0, %d)", i, len(s.widths))
	}
	if s.widths[i] != 8 {
		return nil, fmt.Errorf("flat: store section %d holds int32, want int64", i)
	}
	n := int(s.counts[i])
	if n == 0 {
		return nil, nil
	}
	raw := s.data[s.offs[i] : s.offs[i]+uint64(8*n)]
	if s.zeroCopy {
		return unsafe.Slice((*int64)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]int64, n)
	for j := range out {
		out[j] = int64(binary.LittleEndian.Uint64(raw[8*j:]))
	}
	return out, nil
}

// StoreCursor reads sections and metadata in order with a sticky error, so
// per-kind decoders (here and in the frozen backend packages) need a
// single error check at the end.
type StoreCursor struct {
	s      *Store
	mi, si int
	err    error
}

// NewStoreCursor starts an in-order reader over an opened store.
func NewStoreCursor(s *Store) *StoreCursor { return &StoreCursor{s: s} }

func (c *StoreCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("flat: "+format, args...)
	}
}

// Meta reads the next scalar metadata word.
func (c *StoreCursor) Meta() uint64 {
	if c.err != nil {
		return 0
	}
	if c.mi >= c.s.NumMeta() {
		c.fail("store has %d metadata words, reader wants more", c.s.NumMeta())
		return 0
	}
	v := c.s.MetaAt(c.mi)
	c.mi++
	return v
}

// I32s reads the next section as an int32 slice.
func (c *StoreCursor) I32s() []int32 {
	if c.err != nil {
		return nil
	}
	v, err := c.s.I32s(c.si)
	if err != nil {
		c.err = err
		return nil
	}
	c.si++
	return v
}

// I64s reads the next section as an int64 slice.
func (c *StoreCursor) I64s() []int64 {
	if c.err != nil {
		return nil
	}
	v, err := c.s.I64s(c.si)
	if err != nil {
		c.err = err
		return nil
	}
	c.si++
	return v
}

// Err returns the sticky error without the completeness check of Finish,
// for decoders that branch mid-stream.
func (c *StoreCursor) Err() error { return c.err }

// Finish reports the sticky error, flagging unread metadata or sections —
// a length mismatch between writer and reader is corruption, not slack.
func (c *StoreCursor) Finish() error {
	if c.err == nil && c.mi != c.s.NumMeta() {
		c.fail("store has %d metadata words, reader consumed %d", c.s.NumMeta(), c.mi)
	}
	if c.err == nil && c.si != c.s.NumSections() {
		c.fail("store has %d sections, reader consumed %d", c.s.NumSections(), c.si)
	}
	return c.err
}
