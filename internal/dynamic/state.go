package dynamic

import (
	"fmt"
	"sort"
	"time"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/tree"
)

// PendingInsert is one buffered insertion awaiting the next flush.
type PendingInsert struct {
	Key     catalog.Key
	Payload int32
}

// NodePending is one node's pending overlay, in canonical (sorted) form.
type NodePending struct {
	Node tree.NodeID
	// Ins is sorted strictly by key.
	Ins []PendingInsert
	// Del is sorted strictly ascending.
	Del []catalog.Key
}

// State is what a dynamic Structure holds beyond its static structure:
// the rebuild capacity, the flush generation and the pending overlays. The
// committed catalogs are the static structure's native catalogs, so a
// mid-churn snapshot of the static structure's inputs plus this State
// restores to exactly the same answers, buffered count, and
// cache-invalidation state.
type State struct {
	Capacity   int
	Generation uint64
	// Pending lists nodes with non-empty overlays, sorted by node.
	Pending []NodePending
}

// ExportState returns the structure's mutable state for serialization.
func (d *Structure) ExportState() State {
	st := State{
		Capacity:   d.capacity,
		Generation: d.Generation(),
	}
	nodes := make([]tree.NodeID, 0, len(d.overlays))
	for v, o := range d.overlays {
		if len(o.ins) == 0 && len(o.del) == 0 {
			continue
		}
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, v := range nodes {
		o := d.overlays[v]
		np := NodePending{Node: v}
		for _, ie := range o.ins {
			np.Ins = append(np.Ins, PendingInsert{Key: ie.key, Payload: ie.payload})
		}
		for k := range o.del {
			np.Del = append(np.Del, k)
		}
		sort.Slice(np.Del, func(i, j int) bool { return np.Del[i] < np.Del[j] })
		st.Pending = append(st.Pending, np)
	}
	return st
}

// FromParts reassembles a dynamic Structure around a static structure
// built from its committed catalogs, which it takes from the static
// structure's native catalogs. Overlays are validated for canonical form
// and against the committed keys — a pending delete names a committed key,
// and a pending insert of a committed key also deletes it, as Insert makes
// them — and the flush generation is stamped back so externally cached
// artifacts keyed by Generation() stay correctly invalidated.
func FromParts(st *core.Structure, state State) (*Structure, error) {
	if st == nil {
		return nil, fmt.Errorf("dynamic: nil static structure")
	}
	if state.Capacity < 1 {
		return nil, fmt.Errorf("dynamic: capacity %d < 1", state.Capacity)
	}
	t := st.Tree()
	d := &Structure{
		t:           t,
		cfg:         st.Config(),
		st:          st,
		curKeys:     make([][]catalog.Key, t.N()),
		curPayloads: make([][]int32, t.N()),
		overlays:    make(map[tree.NodeID]*overlay),
		capacity:    state.Capacity,
		maxAttempts: defaultRebuildAttempts,
		sleep:       time.Sleep,
	}
	for v := range d.curKeys {
		native := st.Cascade().Native(tree.NodeID(v)).Entries()
		native = native[:len(native)-1] // the +inf terminal
		d.curKeys[v] = make([]catalog.Key, len(native))
		d.curPayloads[v] = make([]int32, len(native))
		for i, e := range native {
			d.curKeys[v][i], d.curPayloads[v][i] = e.Key, e.Payload
		}
	}
	prevNode := tree.Nil
	for _, np := range state.Pending {
		if np.Node <= prevNode || int(np.Node) >= t.N() {
			return nil, fmt.Errorf("dynamic: pending overlay node %d out of order or range", np.Node)
		}
		prevNode = np.Node
		if len(np.Ins) == 0 && len(np.Del) == 0 {
			return nil, fmt.Errorf("dynamic: node %d: empty pending overlay", np.Node)
		}
		o := &overlay{del: make(map[catalog.Key]bool, len(np.Del))}
		for i, ie := range np.Ins {
			if ie.Key == catalog.PlusInf {
				return nil, fmt.Errorf("dynamic: node %d: pending insert of +inf", np.Node)
			}
			if i > 0 && np.Ins[i-1].Key >= ie.Key {
				return nil, fmt.Errorf("dynamic: node %d: pending inserts not strictly increasing at %d", np.Node, i)
			}
			o.ins = append(o.ins, insEntry{key: ie.Key, payload: ie.Payload})
		}
		for i, k := range np.Del {
			if i > 0 && np.Del[i-1] >= k {
				return nil, fmt.Errorf("dynamic: node %d: pending deletes not strictly increasing at %d", np.Node, i)
			}
			if !d.committedHas(np.Node, k) {
				return nil, fmt.Errorf("dynamic: node %d: pending delete of %d, which is not committed", np.Node, k)
			}
			o.del[k] = true
		}
		for _, ie := range o.ins {
			if d.committedHas(np.Node, ie.key) && !o.del[ie.key] {
				return nil, fmt.Errorf("dynamic: node %d: pending insert of committed key %d", np.Node, ie.key)
			}
		}
		d.overlays[np.Node] = o
		d.buffered += len(np.Ins) + len(np.Del)
	}
	d.gen.Store(state.Generation)
	return d, nil
}
