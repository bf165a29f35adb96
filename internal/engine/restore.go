package engine

import (
	"fmt"

	"fraccascade/internal/core"
	"fraccascade/internal/snapshot"
)

// BackendsFromStore returns the static structures of a decoded snapshot
// store, in shard order, for New to freeze and serve. It is the engine-side
// half of the crash-safe restore path: snapshot.Load validates the bytes,
// and New accepts the result exactly like freshly built shards. The engine
// serves static shards only, so a dynamic shard is an error; live mutation
// belongs to internal/dynamic, which callers drive directly.
func BackendsFromStore(store *snapshot.Store) ([]*core.Structure, error) {
	if store == nil {
		return nil, fmt.Errorf("engine: nil snapshot store")
	}
	shards := make([]*core.Structure, len(store.Shards))
	for i, sh := range store.Shards {
		switch sh.Kind {
		case snapshot.KindStatic:
			if sh.Static == nil {
				return nil, fmt.Errorf("engine: snapshot shard %d is static with no structure", i)
			}
			shards[i] = sh.Static
		case snapshot.KindDynamic:
			return nil, fmt.Errorf("engine: snapshot shard %d is dynamic; the engine serves static shards only", i)
		default:
			return nil, fmt.Errorf("engine: snapshot shard %d has unknown kind %d", i, sh.Kind)
		}
	}
	return shards, nil
}
