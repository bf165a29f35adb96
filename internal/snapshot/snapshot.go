package snapshot

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/dynamic"
	"fraccascade/internal/tree"
)

// Kind identifies what a persisted shard restores into; it mirrors the
// engine's shard kinds.
type Kind uint8

const (
	// KindStatic is a built static structure (core.Structure), the only
	// kind the engine serves.
	KindStatic Kind = 1
	// KindDynamic is a dynamic structure with pending overlays
	// (dynamic.Structure); its committed catalogs are its static
	// structure's native catalogs.
	KindDynamic Kind = 2
)

// Shard is one persisted catalog shard. Exactly one of Static and Dynamic
// is non-nil, according to Kind.
type Shard struct {
	Kind    Kind
	Static  *core.Structure
	Dynamic *dynamic.Structure
}

// Store is the unit of persistence: an ordered set of shards plus a
// caller-defined generation stamp surfaced in the file header for cheap
// inspection.
type Store struct {
	Generation uint64
	Shards     []Shard
}

// Encode serializes the store into the snapshot wire format.
func Encode(st *Store) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("snapshot: empty store")
	}
	var out bytes.Buffer
	if _, err := encodeShards(&out, st.Generation, st.kinds(), st.shard); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// kinds lists the store's shard kinds in order.
func (st *Store) kinds() []Kind {
	kinds := make([]Kind, len(st.Shards))
	for i, sh := range st.Shards {
		kinds[i] = sh.Kind
	}
	return kinds
}

// shard hands out the store's shards to encodeShards.
func (st *Store) shard(i int) (Shard, error) { return st.Shards[i], nil }

// encodeShards is the snapshot encoder. It writes the header and manifest
// for kinds to w, then each shard next returns, in order, before it asks
// for the following one, so a caller that builds each shard inside next
// holds one at a time. It returns the Binding of the bytes it wrote.
func encodeShards(w io.Writer, generation uint64, kinds []Kind, next func(i int) (Shard, error)) (Binding, error) {
	if len(kinds) == 0 {
		return Binding{}, fmt.Errorf("snapshot: empty store")
	}
	sections := 1 // the manifest
	manifest := &writer{}
	manifest.uint(len(kinds))
	for i, kind := range kinds {
		switch kind {
		case KindStatic:
			sections += 2
		case KindDynamic:
			sections += 3
		default:
			return Binding{}, fmt.Errorf("snapshot: shard %d: unknown kind %d", i, kind)
		}
		manifest.byteVal(byte(kind))
	}
	e := &encoder{w: w}
	e.write(appendHeader(nil, generation, sections))
	e.section(secManifest, func(m *writer) error { m.buf = append(m.buf, manifest.buf...); return nil })
	for i := 0; i < len(kinds) && e.err == nil; i++ {
		sh, err := next(i)
		if err != nil {
			return Binding{}, err
		}
		if sh.Kind != kinds[i] {
			return Binding{}, fmt.Errorf("snapshot: shard %d has kind %d, the manifest says %d", i, sh.Kind, kinds[i])
		}
		if err := e.shard(sh); err != nil {
			return Binding{}, fmt.Errorf("snapshot: shard %d: %w", i, err)
		}
	}
	return e.bind, e.err
}

// encoder writes a snapshot to w one section at a time, each encoded in
// its writer's buffer, which is reused across sections and shards, and
// accumulates the Binding of what it wrote. A failed write is its last.
type encoder struct {
	writer
	w    io.Writer
	bind Binding
	err  error
}

func (e *encoder) write(p []byte) {
	_, e.err = e.w.Write(p)
	e.bind.CRC = crc32.Update(e.bind.CRC, crc32.IEEETable, p)
	e.bind.Size += int64(len(p))
}

// section writes section id, whose payload encode appends to e.buf. An
// error from encode writes nothing and is the encoder's last.
func (e *encoder) section(id uint32, encode func(*writer) error) {
	if e.err != nil {
		return
	}
	e.buf = append(e.buf[:0], make([]byte, sectionHeaderSize)...)
	if e.err = encode(&e.writer); e.err != nil {
		return
	}
	e.buf = frameSection(e.buf, id)
	e.write(e.buf)
}

// shard writes one shard's sections: its tree, its build settings and
// native catalogs, and for a dynamic shard its capacity, generation and
// pending overlays. Nothing core.Build derives is written.
func (e *encoder) shard(sh Shard) error {
	stc := sh.Static
	if sh.Kind == KindDynamic {
		if sh.Dynamic == nil {
			return fmt.Errorf("nil dynamic structure")
		}
		stc = sh.Dynamic.Static()
	}
	if stc == nil {
		return fmt.Errorf("nil structure")
	}
	if stc.Config().HOverride != nil {
		return fmt.Errorf("built with core.Config.HOverride, a function a snapshot cannot record")
	}
	e.section(secTree, func(w *writer) error { encodeTree(w, stc.Tree()); return nil })
	e.section(secCatalogs, func(w *writer) error { return encodeCatalogs(w, stc) })
	if sh.Kind == KindDynamic {
		e.section(secDynamic, func(w *writer) error { encodeDynamic(w, sh.Dynamic.ExportState()); return nil })
	}
	return e.err
}

// Decode reassembles a store from snapshot bytes. Every defect returns a
// *CorruptionError (see IsCorrupt); Decode never panics on hostile input.
func Decode(data []byte) (*Store, error) {
	return DecodeParallel(data, 1)
}

// DecodeParallel is Decode with each shard's build, the dominant cost of a
// load, fanned out over parallelism host workers (0 = all cores), as
// core.Config.Parallelism does. The restored store and every error are
// identical to Decode's for every parallelism value.
func DecodeParallel(data []byte, parallelism int) (*Store, error) {
	r, err := newShardReader(data, parallelism)
	if err != nil {
		return nil, err
	}
	st := &Store{Generation: r.generation}
	for range r.kinds {
		sh, err := r.next()
		if err != nil {
			return nil, err
		}
		st.Shards = append(st.Shards, sh)
	}
	return st, nil
}

// shardReader is the snapshot decoder behind DecodeParallel: it restores a
// snapshot one shard at a time. Opening it checks everything that needs no
// shard read — the header, every section's framing and checksum, trailing
// bytes and the manifest.
type shardReader struct {
	generation  uint64
	kinds       []Kind
	secs        []section
	parallelism int
	idx         int // next section to consume
	shard       int // next shard to decode
}

// section is one framed, checksum-verified section of a snapshot.
type section struct {
	id      uint32
	payload []byte
}

// Binding names the exact bytes of one snapshot file: their CRC-32 and
// their length. A sidecar frozen from a snapshot's shards carries the
// snapshot's binding as its generation (Word), so a restore can tell
// whether the sidecar beside a snapshot was written from those very bytes.
//
// The CRC uses the IEEE polynomial, not the file's own Castagnoli one: the
// header and every section end in their own CRC-32C, and a CRC-32C over a
// block followed by that block's CRC-32C is a constant, so a CRC-32C of the
// whole file would depend on nothing but the section lengths.
type Binding struct {
	CRC  uint32
	Size int64
}

// Word packs the binding into a sidecar header's 64-bit generation: the
// CRC in the high half, the low 32 bits of the length in the low half.
func (b Binding) Word() uint64 { return uint64(b.CRC)<<32 | uint64(uint32(b.Size)) }

// bindingOf returns the Binding of data.
func bindingOf(data []byte) Binding {
	return Binding{CRC: crc32.ChecksumIEEE(data), Size: int64(len(data))}
}

// bindChunk is the buffer Bind streams a snapshot through.
const bindChunk = 32 << 10

// Bind returns the generation in the header of the snapshot at path and
// the file's Binding. It checks the header (magic, version, checksum) as a
// load does but decodes nothing, and streams the file through a
// bindChunk-byte buffer, so the file is never in memory. A missing or
// unreadable file returns the I/O error, a bad header a *CorruptionError.
func Bind(path string) (generation uint64, b Binding, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, Binding{}, err
	}
	defer f.Close()
	buf := make([]byte, bindChunk)
	n, err := io.ReadFull(f, buf[:headerSize])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return 0, Binding{}, err
	}
	if generation, _, _, err = parseHeader(buf[:n]); err != nil {
		return 0, Binding{}, err
	}
	b = bindingOf(buf[:n])
	for err != io.EOF {
		if n, err = f.Read(buf); err != nil && err != io.EOF {
			return 0, Binding{}, err
		}
		b.CRC = crc32.Update(b.CRC, crc32.IEEETable, buf[:n])
		b.Size += int64(n)
	}
	return generation, b, nil
}

// newShardReader frames the sections of data and reads its manifest.
func newShardReader(data []byte, parallelism int) (*shardReader, error) {
	generation, nsec, off, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	// Each section occupies at least its 16-byte framing, which bounds a
	// hostile section count before the loop runs.
	const minSection = 16
	if uint64(nsec)*minSection > uint64(len(data)-off) {
		return nil, corruptf(ErrTruncated, "%d sections declared in %d bytes", nsec, len(data)-off)
	}
	secs := make([]section, 0, nsec)
	for i := uint32(0); i < nsec; i++ {
		id, payload, next, err := nextSection(data, off)
		if err != nil {
			return nil, err
		}
		secs = append(secs, section{id, payload})
		off = next
	}
	if off != len(data) {
		return nil, corruptf(ErrCorrupt, "%d trailing bytes after last section", len(data)-off)
	}
	if len(secs) == 0 || secs[0].id != secManifest {
		return nil, corruptf(ErrCorrupt, "first section is not the manifest")
	}
	kinds, err := decodeManifest(secs[0].payload)
	if err != nil {
		return nil, err
	}
	return &shardReader{generation: generation, kinds: kinds, secs: secs, parallelism: parallelism, idx: 1}, nil
}

// next restores the next shard in manifest order, one for each of
// r.kinds: it reads and validates the shard's inputs, then builds it. The
// last shard's next also rejects sections beyond the manifest's shards.
// Every error is a *CorruptionError.
func (r *shardReader) next() (Shard, error) {
	si := r.shard
	r.shard++
	in, err := readShard(r.kinds[si], r.take)
	var sh Shard
	if err == nil {
		sh, err = in.build(r.parallelism)
	}
	if err != nil {
		return Shard{}, &CorruptionError{Reason: errReason(err), Detail: fmt.Sprintf("shard %d: %s", si, errDetail(err))}
	}
	if r.shard == len(r.kinds) && r.idx != len(r.secs) {
		return Shard{}, corruptf(ErrCorrupt, "%d sections beyond the manifest's shards", len(r.secs)-r.idx)
	}
	return sh, nil
}

// take consumes the next section, which must have id want.
func (r *shardReader) take(want uint32) ([]byte, error) {
	if r.idx >= len(r.secs) {
		return nil, corruptf(ErrTruncated, "missing section %d", want)
	}
	if r.secs[r.idx].id != want {
		return nil, corruptf(ErrCorrupt, "section %d where %d expected", r.secs[r.idx].id, want)
	}
	p := r.secs[r.idx].payload
	r.idx++
	return p, nil
}

// errReason and errDetail re-wrap a nested corruption error so shard
// context prepends to the detail while the sentinel reason survives for
// errors.Is.
func errReason(err error) error {
	if ce, ok := err.(*CorruptionError); ok {
		return ce.Reason
	}
	return ErrCorrupt
}

func errDetail(err error) string {
	if ce, ok := err.(*CorruptionError); ok {
		return ce.Detail
	}
	return err.Error()
}

// shardInputs are one shard's build inputs as its sections hold them.
type shardInputs struct {
	kind    Kind
	tree    *tree.Tree
	cfg     core.Config
	natives []catalog.Catalog
	dynamic dynamic.State // dynamic shards only
}

// readShard reads and validates the sections of one shard of the given
// kind. It builds nothing: every defect in the tree, the settings or the
// catalogs is reported here, before core.Build runs.
func readShard(kind Kind, take func(uint32) ([]byte, error)) (in shardInputs, err error) {
	in.kind = kind
	payload, err := take(secTree)
	if err != nil {
		return in, err
	}
	if in.tree, err = decodeTree(payload); err != nil {
		return in, err
	}
	if payload, err = take(secCatalogs); err != nil {
		return in, err
	}
	if in.cfg, in.natives, err = decodeCatalogs(in.tree, payload); err != nil {
		return in, err
	}
	if kind == KindDynamic {
		if payload, err = take(secDynamic); err != nil {
			return in, err
		}
		in.dynamic, err = decodeDynamic(payload)
	}
	return in, err
}

// build runs core.Build over the inputs with the given host parallelism
// and, for a dynamic shard, restores its overlays around the result.
func (in *shardInputs) build(parallelism int) (Shard, error) {
	cfg := in.cfg
	cfg.Parallelism = parallelism
	stc, err := core.Build(in.tree, in.natives, cfg)
	if err != nil {
		return Shard{}, corruptf(ErrCorrupt, "build: %v", err)
	}
	if in.kind == KindStatic {
		return Shard{Kind: KindStatic, Static: stc}, nil
	}
	d, err := dynamic.FromParts(stc, in.dynamic)
	if err != nil {
		return Shard{}, corruptf(ErrCorrupt, "%v", err)
	}
	return Shard{Kind: KindDynamic, Dynamic: d}, nil
}

func decodeManifest(payload []byte) ([]Kind, error) {
	r := &reader{buf: payload}
	n := r.count(1)
	kinds := make([]Kind, 0, n)
	for i := 0; i < n; i++ {
		k := Kind(r.byteVal())
		if r.err == nil && k != KindStatic && k != KindDynamic {
			r.fail(ErrCorrupt, "shard %d: unknown kind %d", i, k)
		}
		kinds = append(kinds, k)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	if len(kinds) == 0 {
		return nil, corruptf(ErrCorrupt, "manifest declares no shards")
	}
	return kinds, nil
}

// i32 narrows a varint to int32, failing the reader on overflow.
func (r *reader) i32() int32 {
	v := r.i64()
	if r.err == nil && (v < math.MinInt32 || v > math.MaxInt32) {
		r.fail(ErrCorrupt, "value %d overflows int32", v)
	}
	return int32(v)
}

// u32i narrows a uvarint to a non-negative int32, failing on overflow.
func (r *reader) u32i() int32 {
	v := r.u64()
	if r.err == nil && v > math.MaxInt32 {
		r.fail(ErrCorrupt, "value %d overflows int32", v)
	}
	return int32(v)
}

func encodeTree(w *writer, t *tree.Tree) {
	parent, order := t.ExportParents()
	w.uint(len(parent))
	for _, p := range parent {
		w.i64(int64(p))
	}
	for _, o := range order {
		w.u64(uint64(o))
	}
}

func decodeTree(payload []byte) (*tree.Tree, error) {
	r := &reader{buf: payload}
	n := r.count(2) // one parent varint and one order varint per node
	parent := make([]tree.NodeID, n)
	for i := range parent {
		parent[i] = r.i32()
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = r.u32i()
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	t, err := tree.Build(parent, order)
	if err != nil {
		return nil, corruptf(ErrCorrupt, "tree: %v", err)
	}
	return t, nil
}

// encodeCatalogs writes what core.Build takes besides the tree: the build
// settings that change its result — the cascade's sampling stride,
// NoTruncation and MaxSubs — and each node's native catalog, as the count
// of its finite keys and, per key, the key (the first whole, each later
// one as its delta from the key before, at least 1) and its payload. The
// +∞ terminal is implicit. A catalog that catalog.FromKeys could not have
// made from its finite keys — a dummy entry, a key at −∞, a payload on
// the terminal — is refused, since a load would not restore it as it was.
func encodeCatalogs(w *writer, st *core.Structure) error {
	cs, t := st.Cascade(), st.Tree()
	w.uint(cs.Stride())
	w.boolVal(st.Config().NoTruncation)
	w.uint(max(st.Config().MaxSubs, 0))
	w.uint(t.N())
	for v := 0; v < t.N(); v++ {
		entries := cs.Native(tree.NodeID(v)).Entries()
		finite := entries[:len(entries)-1]
		if pl := entries[len(finite)].Payload; pl != catalog.NoPayload {
			return fmt.Errorf("node %d: the +inf terminal carries payload %d", v, pl)
		}
		w.uint(len(finite))
		for i, e := range finite {
			switch {
			case !e.Native:
				return fmt.Errorf("node %d: native catalog holds a dummy entry at %d", v, i)
			case i == 0 && e.Key == catalog.MinusInf:
				return fmt.Errorf("node %d: key -inf", v)
			case i == 0:
				w.i64(e.Key)
			default:
				w.u64(uint64(e.Key) - uint64(finite[i-1].Key))
			}
			w.i64(int64(e.Payload))
		}
	}
	return nil
}

// decodeCatalogs reads and validates the catalogs section for tree t: the
// build settings, as a core.Config, and one native catalog per node.
func decodeCatalogs(t *tree.Tree, payload []byte) (core.Config, []catalog.Catalog, error) {
	r := &reader{buf: payload}
	cfg := core.Config{
		CascadeStride: int(r.u32i()),
		NoTruncation:  r.boolVal(),
		MaxSubs:       int(r.u32i()),
	}
	if r.err == nil && cfg.CascadeStride < 2 {
		r.fail(ErrCorrupt, "cascade stride %d < 2", cfg.CascadeStride)
	}
	n := r.count(1)
	if r.err == nil && n != t.N() {
		r.fail(ErrCorrupt, "catalogs for %d nodes, tree has %d", n, t.N())
	}
	natives := make([]catalog.Catalog, n)
	for v := 0; v < n && r.err == nil; v++ {
		natives[v] = r.nativeCatalog(v)
	}
	if err := r.finish(); err != nil {
		return core.Config{}, nil, err
	}
	return cfg, natives, nil
}

// nativeCatalog reads node v's native catalog as encodeCatalogs wrote it.
// Every key lies strictly between −∞ and +∞: the first is checked, and a
// delta that would reach +∞ is refused before it is added, so no key
// wraps. catalog.FromEntries refuses a zero delta, a key repeated.
func (r *reader) nativeCatalog(v int) catalog.Catalog {
	count := r.count(2) // a key byte and a payload byte per entry at least
	entries := make([]catalog.Entry, 0, count+1)
	var key catalog.Key
	for i := 0; i < count && r.err == nil; i++ {
		if i == 0 {
			if key = r.i64(); key == catalog.MinusInf || key == catalog.PlusInf {
				r.fail(ErrCorrupt, "node %d: first key %d is infinite", v, key)
			}
		} else {
			d := r.u64()
			if r.err == nil && d >= uint64(catalog.PlusInf)-uint64(key) {
				r.fail(ErrCorrupt, "node %d: key %d plus delta %d reaches +inf at %d", v, key, d, i)
			}
			key = catalog.Key(uint64(key) + d)
		}
		entries = append(entries, catalog.Entry{Key: key, Payload: r.i32(), NativeSucc: int32(i), Native: true})
	}
	if r.err != nil {
		return catalog.Catalog{}
	}
	entries = append(entries, catalog.Entry{Key: catalog.PlusInf, Payload: catalog.NoPayload, NativeSucc: int32(count), Native: true})
	c, err := catalog.FromEntries(entries)
	if err != nil {
		r.fail(ErrCorrupt, "node %d: %v", v, err)
	}
	return c
}

func encodeDynamic(w *writer, st dynamic.State) {
	w.uint(st.Capacity)
	w.u64(st.Generation)
	w.uint(len(st.Pending))
	for _, np := range st.Pending {
		w.u64(uint64(np.Node))
		w.uint(len(np.Ins))
		for _, ie := range np.Ins {
			w.i64(ie.Key)
			w.i64(int64(ie.Payload))
		}
		w.uint(len(np.Del))
		for _, k := range np.Del {
			w.i64(k)
		}
	}
}

// decodeDynamic reads a dynamic shard's capacity, generation and pending
// overlays; dynamic.FromParts validates them against the built shard.
func decodeDynamic(payload []byte) (dynamic.State, error) {
	r := &reader{buf: payload}
	state := dynamic.State{
		Capacity:   int(r.u32i()),
		Generation: r.u64(),
	}
	pending := r.count(3) // node + two counts per overlay at minimum
	for pi := 0; pi < pending && r.err == nil; pi++ {
		np := dynamic.NodePending{Node: r.u32i()}
		insCount := r.count(2)
		for i := 0; i < insCount; i++ {
			np.Ins = append(np.Ins, dynamic.PendingInsert{Key: r.i64(), Payload: r.i32()})
		}
		delCount := r.count(1)
		for i := 0; i < delCount; i++ {
			np.Del = append(np.Del, r.i64())
		}
		state.Pending = append(state.Pending, np)
	}
	if err := r.finish(); err != nil {
		return dynamic.State{}, err
	}
	return state, nil
}
