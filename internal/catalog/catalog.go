// Package catalog implements the sorted catalogs stored at the nodes of a
// fractional cascaded data structure.
//
// A catalog is an ordered sequence of distinct entries. Following the
// paper's convention, every catalog ends with the terminal entry +∞, so a
// successor search find(y, v) — the smallest entry not smaller than y —
// always succeeds.
//
// Catalogs distinguish native entries (present in the original, caller-
// supplied catalog) from dummy entries introduced by fractional cascading.
// Each entry records the position of the nearest native entry at or after
// it, so a search result in the augmented catalog converts to the original
// catalog's answer in O(1).
package catalog

import (
	"fmt"
	"math"
	"sort"
)

// Key is the ordered key type of catalog entries.
type Key = int64

// PlusInf is the terminal +∞ key present in every catalog.
const PlusInf Key = math.MaxInt64

// MinusInf is the −∞ sentinel used by callers to express "no lower bound"
// (for example the left end of an entry-point cache interval). It is never
// stored in a catalog.
const MinusInf Key = math.MinInt64

// NoPayload marks entries without caller data (dummy entries and the
// terminal +∞).
const NoPayload int32 = -1

// Entry is one element of a catalog.
type Entry struct {
	// Key is the entry's primary value.
	Key Key
	// Payload is caller-defined secondary information for native entries
	// (for example an edge index in point location); NoPayload otherwise.
	Payload int32
	// NativeSucc is the index within the same catalog of the smallest
	// native entry whose key is >= Key. Because every catalog contains a
	// native +∞ terminal, NativeSucc is always a valid index.
	NativeSucc int32
	// Native reports whether the entry belongs to the original catalog
	// (true) or was introduced as a dummy by cascading (false).
	Native bool
}

// Catalog is an immutable sorted sequence of distinct entries ending in +∞.
type Catalog struct {
	entries []Entry
}

// FromKeys builds a native catalog from keys with optional payloads.
// Keys need not be sorted; duplicates are rejected. payloads may be nil
// (all entries get NoPayload) or must have len(keys). A native +∞ terminal
// is appended if absent.
func FromKeys(keys []Key, payloads []int32) (Catalog, error) {
	if payloads != nil && len(payloads) != len(keys) {
		return Catalog{}, fmt.Errorf("catalog: %d keys but %d payloads", len(keys), len(payloads))
	}
	entries := make([]Entry, 0, len(keys)+1)
	for i, k := range keys {
		pl := NoPayload
		if payloads != nil {
			pl = payloads[i]
		}
		entries = append(entries, Entry{Key: k, Payload: pl, Native: true})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	for i := 1; i < len(entries); i++ {
		if entries[i].Key == entries[i-1].Key {
			return Catalog{}, fmt.Errorf("catalog: duplicate key %d", entries[i].Key)
		}
	}
	if len(entries) == 0 || entries[len(entries)-1].Key != PlusInf {
		entries = append(entries, Entry{Key: PlusInf, Payload: NoPayload, Native: true})
	}
	for i := range entries {
		entries[i].NativeSucc = int32(i)
	}
	return Catalog{entries: entries}, nil
}

// MustFromKeys is FromKeys that panics on error, for tests and examples.
func MustFromKeys(keys []Key, payloads []int32) Catalog {
	c, err := FromKeys(keys, payloads)
	if err != nil {
		panic(err)
	}
	return c
}

// Empty returns a catalog holding only the native +∞ terminal.
func Empty() Catalog {
	return Catalog{entries: []Entry{{Key: PlusInf, Payload: NoPayload, NativeSucc: 0, Native: true}}}
}

// FromEntries builds a catalog from pre-sorted entries; it validates order,
// distinctness, the +∞ terminal, and NativeSucc consistency. Intended for
// decoders, such as the snapshot loader's.
func FromEntries(entries []Entry) (Catalog, error) {
	if len(entries) == 0 {
		return Catalog{}, fmt.Errorf("catalog: empty entry list")
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			return Catalog{}, fmt.Errorf("catalog: entries not strictly increasing at %d", i)
		}
	}
	last := entries[len(entries)-1]
	if last.Key != PlusInf || !last.Native {
		return Catalog{}, fmt.Errorf("catalog: missing native +inf terminal")
	}
	nextNative := int32(len(entries) - 1)
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Native {
			nextNative = int32(i)
		}
		if entries[i].NativeSucc != nextNative {
			return Catalog{}, fmt.Errorf("catalog: bad NativeSucc at %d: %d, want %d", i, entries[i].NativeSucc, nextNative)
		}
	}
	return Catalog{entries: entries}, nil
}

// Len returns the number of entries, including dummies and the terminal.
func (c Catalog) Len() int { return len(c.entries) }

// NativeLen returns the number of native entries, including the terminal.
func (c Catalog) NativeLen() int {
	n := 0
	for i := range c.entries {
		if c.entries[i].Native {
			n++
		}
	}
	return n
}

// At returns the entry at position i.
func (c Catalog) At(i int) Entry { return c.entries[i] }

// Key returns the key at position i.
func (c Catalog) Key(i int) Key { return c.entries[i].Key }

// Entries exposes the underlying slice; callers must not modify it.
func (c Catalog) Entries() []Entry { return c.entries }

// Succ returns the position of the smallest entry with key >= y.
// It always succeeds thanks to the +∞ terminal.
func (c Catalog) Succ(y Key) int {
	return sort.Search(len(c.entries), func(i int) bool { return c.entries[i].Key >= y })
}

// SuccInWindow returns the position of the smallest entry with key >= y
// restricted to positions [lo, hi] (inclusive, clamped to the catalog).
// It returns hi+1 > hi only if no entry in the window qualifies; callers
// that have established the answer lies in the window get the true
// successor position.
func (c Catalog) SuccInWindow(y Key, lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(c.entries)-1 {
		hi = len(c.entries) - 1
	}
	if lo > hi {
		return hi + 1
	}
	i := sort.Search(hi-lo+1, func(k int) bool { return c.entries[lo+k].Key >= y })
	return lo + i
}

// NativeResult resolves position pos (typically a Succ result in an
// augmented catalog) to the original catalog's answer: the key and payload
// of the smallest native entry >= the entry at pos.
func (c Catalog) NativeResult(pos int) (Key, int32) {
	e := c.entries[c.entries[pos].NativeSucc]
	return e.Key, e.Payload
}

// SampleEvery returns the entries at positions k-1, 2k-1, 3k-1, ... (every
// k-th entry, 1-indexed as in the paper). The returned keys are used as
// dummy entries one level up. A non-positive stride is reported as an
// error rather than a panic, per the repository-wide constructor
// convention.
func (c Catalog) SampleEvery(k int) ([]Entry, error) {
	if k <= 0 {
		return nil, fmt.Errorf("catalog: non-positive sampling stride %d", k)
	}
	var out []Entry
	for i := k - 1; i < len(c.entries); i += k {
		out = append(out, c.entries[i])
	}
	return out, nil
}

// MergeForCascade builds the augmented catalog of a node: the node's native
// catalog merged with sampled dummy keys from its children's augmented
// catalogs. Duplicate keys collapse, preferring the native entry.
// NativeSucc indices are recomputed. The result always ends in native +∞.
func MergeForCascade(native Catalog, samples ...[]Entry) Catalog {
	type cursor struct {
		entries []Entry
		i       int
	}
	cursors := make([]cursor, 0, len(samples)+1)
	cursors = append(cursors, cursor{entries: native.entries})
	for _, s := range samples {
		cursors = append(cursors, cursor{entries: s})
	}
	total := 0
	for _, cu := range cursors {
		total += len(cu.entries)
	}
	out := make([]Entry, 0, total)
	for {
		best := -1
		var bestKey Key
		for ci := range cursors {
			cu := &cursors[ci]
			if cu.i >= len(cu.entries) {
				continue
			}
			k := cu.entries[cu.i].Key
			if best == -1 || k < bestKey {
				best, bestKey = ci, k
			}
		}
		if best == -1 {
			break
		}
		// Collect all cursors matching bestKey; prefer the native source
		// (cursor 0) when present.
		var chosen Entry
		chosenNative := false
		for ci := range cursors {
			cu := &cursors[ci]
			if cu.i < len(cu.entries) && cu.entries[cu.i].Key == bestKey {
				e := cu.entries[cu.i]
				cu.i++
				if ci == 0 {
					chosen = e
					chosenNative = true
				} else if !chosenNative {
					chosen = Entry{Key: e.Key, Payload: NoPayload, Native: false}
				}
			}
		}
		if !chosenNative {
			chosen = Entry{Key: bestKey, Payload: NoPayload, Native: false}
		}
		out = append(out, chosen)
	}
	// The native catalog always contributes a native +∞; a sampled +∞
	// collapses into it, so the terminal is native.
	nextNative := int32(len(out) - 1)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i].Native {
			nextNative = int32(i)
		}
		out[i].NativeSucc = nextNative
	}
	return Catalog{entries: out}
}

// Keys returns a copy of all keys, mostly for tests and the cooperative
// binary-search primitive.
func (c Catalog) Keys() []Key {
	out := make([]Key, len(c.entries))
	for i := range c.entries {
		out[i] = c.entries[i].Key
	}
	return out
}
