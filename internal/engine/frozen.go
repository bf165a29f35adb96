package engine

import (
	"fraccascade/internal/flat"
)

// FrozenBackend is the engine's view over a persistable backend served
// from a frozen flat layout: a catalog shard under Config.Flat. It is what
// the snapshot sidecar path programs against: save iterates FrozenBackends
// and writes one (kind, blob) pair per backend; restore routes each
// sidecar blob back to the matching backend by kind.
type FrozenBackend interface {
	// FrozenKind returns the flat store kind of the backend's blob
	// (flat.StoreKindCatalog and friends).
	FrozenKind() uint32
	// Generation returns the generation of the structure the current
	// frozen layout was built from.
	Generation() uint64
	// Refreezes reports how many times the backend froze its pointer
	// structure (0 means it is still serving a preloaded layout).
	Refreezes() uint64
	// FrozenBlob returns the current frozen layout's wire encoding, for
	// sidecar export.
	FrozenBlob() ([]byte, error)
}

// FrozenKind implements FrozenBackend.
func (fs *FlatShard) FrozenKind() uint32 { return flat.StoreKindCatalog }

// FrozenBlob implements FrozenBackend.
func (fs *FlatShard) FrozenBlob() ([]byte, error) {
	f, err := fs.current()
	if err != nil {
		return nil, err
	}
	return f.MarshalBinary()
}

var _ FrozenBackend = (*FlatShard)(nil)

// FrozenBackends returns the catalog shards the engine serves from a frozen
// layout, in shard order. Empty unless the engine was built with
// Config.Flat (or pre-wrapped flat shards). The frozen locators are not
// listed: they are rebuilt from the seed on every boot, never persisted.
func (e *Engine) FrozenBackends() []FrozenBackend {
	var out []FrozenBackend
	for _, s := range e.shards {
		if fb, ok := s.(FrozenBackend); ok {
			out = append(out, fb)
		}
	}
	return out
}
