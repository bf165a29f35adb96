package snapshot

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"fraccascade/internal/cascade"
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
	// KindDynamic is a dynamic structure with committed catalogs and
	// pending overlays (dynamic.Structure).
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
	return encodeShards(st.Generation, st.kinds(), st.shard)
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

// encodeShards is the snapshot encoder. It writes the header and the
// manifest for kinds, then calls next for each shard in order and appends
// that shard's sections before it asks for the following one, so a caller
// that builds each shard inside next holds one at a time.
func encodeShards(generation uint64, kinds []Kind, next func(i int) (Shard, error)) ([]byte, error) {
	if len(kinds) == 0 {
		return nil, fmt.Errorf("snapshot: empty store")
	}
	sections := 1 // the manifest
	manifest := &writer{}
	manifest.uint(len(kinds))
	for i, kind := range kinds {
		switch kind {
		case KindStatic:
			sections += 3
		case KindDynamic:
			sections += 4
		default:
			return nil, fmt.Errorf("snapshot: shard %d: unknown kind %d", i, kind)
		}
		manifest.byteVal(byte(kind))
	}
	out := appendHeader(nil, generation, sections)
	out = appendSection(out, secManifest, manifest.buf)
	for i, kind := range kinds {
		sh, err := next(i)
		if err != nil {
			return nil, err
		}
		if sh.Kind != kind {
			return nil, fmt.Errorf("snapshot: shard %d has kind %d, the manifest says %d", i, sh.Kind, kind)
		}
		if out, err = appendShard(out, sh); err != nil {
			return nil, fmt.Errorf("snapshot: shard %d: %w", i, err)
		}
	}
	return out, nil
}

// appendShard appends one shard's sections: tree, cascade, core, and for a
// dynamic shard its committed catalogs and pending overlays.
func appendShard(out []byte, sh Shard) ([]byte, error) {
	stc := sh.Static
	if sh.Kind == KindDynamic {
		if sh.Dynamic == nil {
			return nil, fmt.Errorf("nil dynamic structure")
		}
		stc = sh.Dynamic.Static()
	}
	if stc == nil {
		return nil, fmt.Errorf("nil structure")
	}
	coreState, err := stc.ExportState()
	if err != nil {
		return nil, err
	}
	out = appendSection(out, secTree, encodeTree(stc.Tree()).buf)
	out = appendSection(out, secCascade, encodeCascade(stc.Cascade().ExportParts()).buf)
	out = appendSection(out, secCore, encodeCore(coreState).buf)
	if sh.Kind == KindDynamic {
		out = appendSection(out, secDynamic, encodeDynamic(sh.Dynamic.ExportState()).buf)
	}
	return out, nil
}

// Decode reassembles a store from snapshot bytes. Every defect returns a
// *CorruptionError (see IsCorrupt); Decode never panics on hostile input.
func Decode(data []byte) (*Store, error) {
	return DecodeParallel(data, 1)
}

// DecodeParallel is Decode with the restore re-validation — the cascade
// bridge checks and the core block topology rebuild, the dominant cost of
// a restore — fanned out over parallelism host workers (0 = all cores).
// The restored store and every error are identical to Decode's for every
// parallelism value.
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
// shard decoded — the header, every section's framing and checksum,
// trailing bytes and the manifest.
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

// next decodes the next shard in manifest order, one for each of r.kinds.
// The last shard's next also rejects sections beyond the manifest's
// shards. Every error is a *CorruptionError.
func (r *shardReader) next() (Shard, error) {
	si := r.shard
	r.shard++
	sh, err := decodeShard(r.kinds[si], r.take, r.parallelism)
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

func decodeShard(kind Kind, take func(uint32) ([]byte, error), parallelism int) (Shard, error) {
	treePayload, err := take(secTree)
	if err != nil {
		return Shard{}, err
	}
	t, err := decodeTree(treePayload)
	if err != nil {
		return Shard{}, err
	}
	cascadePayload, err := take(secCascade)
	if err != nil {
		return Shard{}, err
	}
	cs, err := decodeCascade(t, cascadePayload, parallelism)
	if err != nil {
		return Shard{}, err
	}
	corePayload, err := take(secCore)
	if err != nil {
		return Shard{}, err
	}
	stc, err := decodeCore(cs, corePayload, parallelism)
	if err != nil {
		return Shard{}, err
	}
	if kind == KindStatic {
		return Shard{Kind: KindStatic, Static: stc}, nil
	}
	dynPayload, err := take(secDynamic)
	if err != nil {
		return Shard{}, err
	}
	d, err := decodeDynamic(stc, dynPayload)
	if err != nil {
		return Shard{}, err
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

func encodeTree(t *tree.Tree) *writer {
	parent, order := t.ExportParents()
	w := &writer{}
	w.uint(len(parent))
	for _, p := range parent {
		w.i64(int64(p))
	}
	for _, o := range order {
		w.u64(uint64(o))
	}
	return w
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

// encodeCascade stores stride, bidirectionality, and per node the
// augmented catalog plus bridge arrays. Native catalogs are not stored:
// a node's native catalog is exactly the native-flagged subsequence of
// its augmented catalog, so decode reconstructs it.
func encodeCascade(p cascade.Parts) *writer {
	w := &writer{}
	w.uint(p.Stride)
	w.boolVal(p.Bidirectional)
	w.uint(len(p.Aug))
	for v := range p.Aug {
		entries := p.Aug[v].Entries()
		w.uint(len(entries))
		for _, e := range entries {
			w.i64(e.Key)
			w.i64(int64(e.Payload))
			w.boolVal(e.Native)
		}
		for _, br := range p.Bridges[v] {
			for _, b := range br {
				w.u64(uint64(b))
			}
		}
	}
	return w
}

func decodeCascade(t *tree.Tree, payload []byte, parallelism int) (*cascade.Structure, error) {
	r := &reader{buf: payload}
	parts := cascade.Parts{
		Stride:        int(r.u32i()),
		Bidirectional: r.boolVal(),
	}
	n := r.count(1)
	if r.err == nil && n != t.N() {
		r.fail(ErrCorrupt, "cascade covers %d nodes, tree has %d", n, t.N())
	}
	parts.Native = make([]catalog.Catalog, 0, n)
	parts.Aug = make([]catalog.Catalog, 0, n)
	parts.Bridges = make([][][]int32, 0, n)
	for v := 0; v < n && r.err == nil; v++ {
		aug, native, err := decodeCatalogPair(r)
		if err != nil {
			return nil, err
		}
		parts.Aug = append(parts.Aug, aug)
		parts.Native = append(parts.Native, native)
		ch := t.Children(tree.NodeID(v))
		var brs [][]int32
		if len(ch) > 0 {
			brs = make([][]int32, len(ch))
			for ci := range ch {
				br := make([]int32, aug.Len())
				for j := range br {
					br[j] = r.u32i()
				}
				brs[ci] = br
			}
		}
		parts.Bridges = append(parts.Bridges, brs)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	cs, err := cascade.FromPartsParallel(t, parts, parallelism)
	if err != nil {
		return nil, corruptf(ErrCorrupt, "cascade: %v", err)
	}
	return cs, nil
}

// decodeCatalogPair reads one augmented catalog and derives the native
// catalog from its native-flagged entries. NativeSucc indices are
// recomputed, then both catalogs pass the package's own validation.
func decodeCatalogPair(r *reader) (aug, native catalog.Catalog, err error) {
	count := r.count(3) // key + payload + native flag per entry
	entries := make([]catalog.Entry, count)
	for i := range entries {
		entries[i] = catalog.Entry{
			Key:     r.i64(),
			Payload: r.i32(),
			Native:  r.boolVal(),
		}
	}
	if r.err != nil {
		return aug, native, r.err
	}
	natives := 0
	next := int32(len(entries) - 1)
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Native {
			next = int32(i)
			natives++
		}
		entries[i].NativeSucc = next
	}
	nativeEntries := make([]catalog.Entry, 0, natives)
	for _, e := range entries {
		if e.Native {
			e.NativeSucc = int32(len(nativeEntries))
			nativeEntries = append(nativeEntries, e)
		}
	}
	if aug, err = catalog.FromEntries(entries); err != nil {
		return aug, native, corruptf(ErrCorrupt, "augmented catalog: %v", err)
	}
	if native, err = catalog.FromEntries(nativeEntries); err != nil {
		return aug, native, corruptf(ErrCorrupt, "native catalog: %v", err)
	}
	return aug, native, nil
}

func encodeCore(st core.State) *writer {
	w := &writer{}
	w.boolVal(st.Cfg.NoTruncation)
	w.uint(st.Cfg.MaxSubs)
	w.boolVal(st.Cfg.Sequential)
	w.uint(st.Cfg.CascadeStride)
	w.uint(len(st.Subs))
	for _, sub := range st.Subs {
		w.uint(len(sub.Blocks))
		for _, b := range sub.Blocks {
			w.u64(uint64(b.Root))
			w.uint(len(b.KeyPos))
			numNodes := 0
			if len(b.KeyPos) > 0 {
				numNodes = len(b.KeyPos[0])
			}
			w.uint(numNodes)
			for _, kp := range b.KeyPos {
				for _, pos := range kp {
					w.u64(uint64(pos))
				}
			}
		}
	}
	return w
}

func decodeCore(cs *cascade.Structure, payload []byte, parallelism int) (*core.Structure, error) {
	r := &reader{buf: payload}
	state := core.State{Cfg: core.ConfigState{
		NoTruncation:  r.boolVal(),
		MaxSubs:       int(r.u32i()),
		Sequential:    r.boolVal(),
		CascadeStride: int(r.u32i()),
	}}
	numSubs := r.count(1)
	for i := 0; i < numSubs && r.err == nil; i++ {
		numBlocks := r.count(2) // root + skeleton count per block at minimum
		sub := core.SubState{Blocks: make([]core.BlockState, 0, numBlocks)}
		for bi := 0; bi < numBlocks && r.err == nil; bi++ {
			b := core.BlockState{Root: r.u32i()}
			m := r.count(1)
			numNodes := r.count(1)
			if r.err == nil && int64(m)*int64(numNodes) > int64(r.remaining()) {
				r.fail(ErrTruncated, "skeleton of %d x %d positions exceeds %d remaining bytes", m, numNodes, r.remaining())
			}
			b.KeyPos = make([][]int32, 0, m)
			for j := 0; j < m && r.err == nil; j++ {
				kp := make([]int32, numNodes)
				for z := range kp {
					kp[z] = r.u32i()
				}
				b.KeyPos = append(b.KeyPos, kp)
			}
			sub.Blocks = append(sub.Blocks, b)
		}
		state.Subs = append(state.Subs, sub)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	stc, err := core.FromPartsParallel(cs, state, parallelism)
	if err != nil {
		return nil, corruptf(ErrCorrupt, "%v", err)
	}
	return stc, nil
}

func encodeDynamic(st dynamic.State) *writer {
	w := &writer{}
	w.uint(st.Capacity)
	w.u64(st.Generation)
	w.uint(len(st.Keys))
	for v := range st.Keys {
		w.uint(len(st.Keys[v]))
		for i := range st.Keys[v] {
			w.i64(st.Keys[v][i])
			w.i64(int64(st.Payloads[v][i]))
		}
	}
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
	return w
}

func decodeDynamic(stc *core.Structure, payload []byte) (*dynamic.Structure, error) {
	r := &reader{buf: payload}
	state := dynamic.State{
		Capacity:   int(r.u32i()),
		Generation: r.u64(),
	}
	n := r.count(1)
	state.Keys = make([][]catalog.Key, n)
	state.Payloads = make([][]int32, n)
	for v := 0; v < n && r.err == nil; v++ {
		count := r.count(2) // key + payload per entry
		ks := make([]catalog.Key, count)
		ps := make([]int32, count)
		for i := 0; i < count; i++ {
			ks[i] = r.i64()
			ps[i] = r.i32()
		}
		state.Keys[v], state.Payloads[v] = ks, ps
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
		return nil, err
	}
	d, err := dynamic.FromParts(stc, state)
	if err != nil {
		return nil, corruptf(ErrCorrupt, "%v", err)
	}
	return d, nil
}
