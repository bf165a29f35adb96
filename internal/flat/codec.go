package flat

import (
	"fmt"
	"hash/crc32"
	"math"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
)

// Binary encoding of a frozen Structure, expressed through the general
// Store codec (store.go): scalar parameters as metadata words, every array
// as one section of the page-aligned arena. The format is position-
// independent and free of internal pointers, so a blob inside an mmap-ed
// sidecar can be opened zero-copy (OpenStructure) with the arrays aliasing
// the mapping.
//
// Decoding is safe on hostile input: the store layer validates the header,
// table, bounds, and checksum before any section view exists, and the
// decoded structure passes a full structural validation (validate) before
// it is returned, so queries on a decoded structure cannot index out of
// range. Corrupt input yields an error, never a panic.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// MarshalBinary encodes the structure as a catalog-kind store.
func (f *Structure) MarshalBinary() ([]byte, error) { return f.StoreBuilder().Marshal() }

// StoreBuilder returns the structure's catalog-kind store, whose sections
// alias the structure's arrays: WriteTo streams the encoding from them
// without building it in memory.
func (f *Structure) StoreBuilder() *StoreBuilder {
	b := NewStoreBuilder(StoreKindCatalog)
	f.appendToStore(b)
	return b
}

// appendToStore appends the structure's metadata words and sections to a
// store builder. decodeFromStore is the inverse.
func (f *Structure) appendToStore(b *StoreBuilder) {
	b.Meta(uint64(int64(f.params.B)))
	b.Meta(uint64(int64(f.params.F)))
	b.Meta(math.Float64bits(f.params.Alpha))
	b.Meta(uint64(int64(f.params.NumSubs)))
	b.Meta(uint64(int64(f.params.LogN)))
	b.Meta(uint64(int64(f.root)))
	b.Meta(uint64(int64(f.n)))
	b.Meta(uint64(len(f.subs)))
	b.I32s(f.parent)
	b.I32s(f.depth)
	b.I32s(f.childStart)
	b.I32s(f.children)
	b.I32s(f.catStart)
	b.I64s(f.keys)
	b.I32s(f.payloads)
	b.I32s(f.nativeSucc)
	b.I32s(f.bridgeStart)
	b.I32s(f.bridges)
	for i := range f.subs {
		fs := &f.subs[i]
		b.Meta(uint64(int64(fs.h)))
		b.Meta(uint64(int64(fs.s)))
		b.Meta(uint64(int64(fs.truncDepth)))
		b.I32s(fs.blockOf)
		b.I32s(fs.blockStart)
		b.I32s(fs.blockHeight)
		b.I32s(fs.blockM)
		b.I32s(fs.blockChildStart)
		b.I32s(fs.blockChildren)
		b.I32s(fs.keyPosStart)
		b.I32s(fs.keyPos)
	}
}

// decodeStructure reads a catalog-kind store into a Structure and fully
// validates it.
func decodeStructure(st *Store) (*Structure, error) {
	if st.Kind() != StoreKindCatalog {
		return nil, fmt.Errorf("flat: store kind %d, want catalog (%d)", st.Kind(), StoreKindCatalog)
	}
	c := NewStoreCursor(st)
	g, err := decodeFromStore(c)
	if err != nil {
		return nil, err
	}
	if err := c.Finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// decodeFromStore reads one structure off the cursor (the inverse of
// appendToStore) and fully validates it. The caller checks the cursor is
// exhausted with Finish.
func decodeFromStore(c *StoreCursor) (*Structure, error) {
	var g Structure
	g.params = core.Params{
		B:       int(int64(c.Meta())),
		F:       int(int64(c.Meta())),
		Alpha:   math.Float64frombits(c.Meta()),
		NumSubs: int(int64(c.Meta())),
		LogN:    int(int64(c.Meta())),
	}
	g.root = int32(int64(c.Meta()))
	g.n = int32(int64(c.Meta()))
	nsubs := int(int64(c.Meta()))
	g.parent = c.I32s()
	g.depth = c.I32s()
	g.childStart = c.I32s()
	g.children = c.I32s()
	g.catStart = c.I32s()
	g.keys = c.I64s()
	g.payloads = c.I32s()
	g.nativeSucc = c.I32s()
	g.bridgeStart = c.I32s()
	g.bridges = c.I32s()
	if c.Err() == nil {
		if nsubs < 0 || nsubs > 64 {
			return nil, fmt.Errorf("flat: implausible substructure count %d", nsubs)
		}
		g.subs = make([]flatSub, nsubs)
		for i := range g.subs {
			fs := &g.subs[i]
			fs.h = int32(int64(c.Meta()))
			fs.s = int32(int64(c.Meta()))
			fs.truncDepth = int32(int64(c.Meta()))
			fs.blockOf = c.I32s()
			fs.blockStart = c.I32s()
			fs.blockHeight = c.I32s()
			fs.blockM = c.I32s()
			fs.blockChildStart = c.I32s()
			fs.blockChildren = c.I32s()
			fs.keyPosStart = c.I32s()
			fs.keyPos = c.I32s()
		}
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// UnmarshalBinary decodes and fully validates a flat blob, copying every
// array out of data so the input may be reused. The receiver is
// overwritten only on success.
func (f *Structure) UnmarshalBinary(data []byte) error {
	st, err := OpenStore(data, false)
	if err != nil {
		return err
	}
	g, err := decodeStructure(st)
	if err != nil {
		return err
	}
	*f = *g
	return nil
}

// OpenStructure decodes and fully validates a flat blob with the arrays
// aliasing data when the host allows it (little-endian, aligned input) —
// the zero-copy mmap restore path. The caller must keep data alive and
// unmodified for the structure's lifetime. The returned flag reports
// whether aliasing actually happened; when false the open degraded to the
// same copying decode as UnmarshalBinary.
func OpenStructure(data []byte) (*Structure, bool, error) {
	st, err := OpenStore(data, true)
	if err != nil {
		return nil, false, err
	}
	g, err := decodeStructure(st)
	if err != nil {
		return nil, false, err
	}
	return g, st.ZeroCopy(), nil
}

// validate checks every structural invariant the query paths rely on for
// memory safety, so a decoded structure can be searched without panics:
// index ranges, monotone offset arrays, catalog well-formedness (sorted,
// +∞-terminated), and bridge/skeleton bounds.
func (f *Structure) validate() error {
	n := int(f.n)
	if n < 1 {
		return fmt.Errorf("flat: %d nodes", n)
	}
	if f.root < 0 || int(f.root) >= n {
		return fmt.Errorf("flat: root %d out of range [0, %d)", f.root, n)
	}
	if len(f.parent) != n || len(f.depth) != n {
		return fmt.Errorf("flat: parent/depth length %d/%d, want %d", len(f.parent), len(f.depth), n)
	}
	if err := validateStarts("childStart", f.childStart, n, len(f.children)); err != nil {
		return err
	}
	for i, c := range f.children {
		if c < 0 || int(c) >= n {
			return fmt.Errorf("flat: child slot %d holds node %d out of range", i, c)
		}
	}
	for v, p := range f.parent {
		if p != -1 && (p < 0 || int(p) >= n) {
			return fmt.Errorf("flat: node %d has parent %d out of range", v, p)
		}
	}
	// Catalogs: per node non-empty, strictly increasing, +∞-terminated,
	// with in-range native-successor links.
	if err := validateStarts("catStart", f.catStart, n, len(f.keys)); err != nil {
		return err
	}
	if len(f.payloads) != len(f.keys) || len(f.nativeSucc) != len(f.keys) {
		return fmt.Errorf("flat: payloads/nativeSucc length %d/%d, want %d",
			len(f.payloads), len(f.nativeSucc), len(f.keys))
	}
	for v := 0; v < n; v++ {
		base, end := int(f.catStart[v]), int(f.catStart[v+1])
		cl := end - base
		if cl < 1 {
			return fmt.Errorf("flat: node %d has empty catalog", v)
		}
		if f.keys[end-1] != catalog.PlusInf {
			return fmt.Errorf("flat: node %d catalog missing +inf terminal", v)
		}
		for i := base + 1; i < end; i++ {
			if f.keys[i] <= f.keys[i-1] {
				return fmt.Errorf("flat: node %d catalog not strictly increasing at %d", v, i-base)
			}
		}
		for i := base; i < end; i++ {
			if ns := f.nativeSucc[i]; ns < 0 || int(ns) >= cl {
				return fmt.Errorf("flat: node %d entry %d native successor %d out of range", v, i-base, ns)
			}
		}
	}
	// Bridges: one vector per edge, exactly catLen(v) wide, every target a
	// valid position in the child's catalog.
	if err := validateStarts("bridgeStart", f.bridgeStart, len(f.children), len(f.bridges)); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		cl := f.catLen(int32(v))
		for e := int(f.childStart[v]); e < int(f.childStart[v+1]); e++ {
			if got := int(f.bridgeStart[e+1] - f.bridgeStart[e]); got != cl {
				return fmt.Errorf("flat: edge %d bridge vector %d wide, want %d", e, got, cl)
			}
			childLen := f.catLen(f.children[e])
			for i := int(f.bridgeStart[e]); i < int(f.bridgeStart[e+1]); i++ {
				if b := f.bridges[i]; b < 0 || int(b) >= childLen {
					return fmt.Errorf("flat: edge %d bridge %d out of child catalog [0, %d)", e, b, childLen)
				}
			}
		}
	}
	for i, fs := range f.subs {
		if err := f.validateSub(i, &fs); err != nil {
			return err
		}
	}
	return nil
}

// validateSub checks one substructure's block partition and skeleton
// arrays.
func (f *Structure) validateSub(i int, fs *flatSub) error {
	n := int(f.n)
	if fs.s < 1 {
		return fmt.Errorf("flat: sub %d stride %d < 1", i, fs.s)
	}
	if len(fs.blockOf) != n {
		return fmt.Errorf("flat: sub %d blockOf length %d, want %d", i, len(fs.blockOf), n)
	}
	nb := len(fs.blockStart) - 1
	if nb < 0 {
		return fmt.Errorf("flat: sub %d has empty blockStart", i)
	}
	if len(fs.blockHeight) != nb || len(fs.blockM) != nb {
		return fmt.Errorf("flat: sub %d blockHeight/blockM length %d/%d, want %d",
			i, len(fs.blockHeight), len(fs.blockM), nb)
	}
	for v, bi := range fs.blockOf {
		if bi != -1 && (bi < 0 || int(bi) >= nb) {
			return fmt.Errorf("flat: sub %d node %d in block %d out of range", i, v, bi)
		}
	}
	totalSlots := 0
	if nb > 0 {
		totalSlots = int(fs.blockStart[nb])
	}
	if err := validateStarts(fmt.Sprintf("sub %d blockStart", i), fs.blockStart, nb, totalSlots); err != nil {
		return err
	}
	if err := validateStarts(fmt.Sprintf("sub %d blockChildStart", i), fs.blockChildStart, totalSlots, len(fs.blockChildren)); err != nil {
		return err
	}
	if err := validateStarts(fmt.Sprintf("sub %d keyPosStart", i), fs.keyPosStart, nb, len(fs.keyPos)); err != nil {
		return err
	}
	for b := 0; b < nb; b++ {
		blockLen := int(fs.blockStart[b+1] - fs.blockStart[b])
		if blockLen < 1 {
			return fmt.Errorf("flat: sub %d block %d is empty", i, b)
		}
		m := int(fs.blockM[b])
		if m < 1 {
			return fmt.Errorf("flat: sub %d block %d has %d skeleton trees", i, b, m)
		}
		if fs.blockHeight[b] < 0 {
			return fmt.Errorf("flat: sub %d block %d height %d", i, b, fs.blockHeight[b])
		}
		if got := int(fs.keyPosStart[b+1] - fs.keyPosStart[b]); got != m*blockLen {
			return fmt.Errorf("flat: sub %d block %d keyPos span %d, want %d", i, b, got, m*blockLen)
		}
		for s := int(fs.blockStart[b]); s < int(fs.blockStart[b+1]); s++ {
			for c := int(fs.blockChildStart[s]); c < int(fs.blockChildStart[s+1]); c++ {
				if lc := fs.blockChildren[c]; lc < 0 || int(lc) >= blockLen {
					return fmt.Errorf("flat: sub %d block %d local child %d out of range [0, %d)", i, b, lc, blockLen)
				}
			}
		}
	}
	return nil
}

// validateStarts checks that starts is a monotone offset array of count+1
// entries beginning at 0 and ending at total.
func validateStarts(name string, starts []int32, count, total int) error {
	if len(starts) != count+1 {
		return fmt.Errorf("flat: %s length %d, want %d", name, len(starts), count+1)
	}
	if starts[0] != 0 {
		return fmt.Errorf("flat: %s[0] = %d, want 0", name, starts[0])
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			return fmt.Errorf("flat: %s not monotone at %d", name, i)
		}
	}
	if int(starts[len(starts)-1]) != total {
		return fmt.Errorf("flat: %s ends at %d, want %d", name, starts[len(starts)-1], total)
	}
	return nil
}
