// Package dynamic adds catalog updates to the cooperative search structure
// — the paper's open problem 4 ("study cooperative update in dynamic data
// structures").
//
// The design is the straightforward lazy/amortized scheme rather than the
// pointer-surgery approach of Mehlhorn–Näher dynamic fractional cascading
// (which achieves O(log log n) sequential update but does not obviously
// compose with the skeleton forests): mutations are buffered per node in
// small sorted overlays; a query runs the static cooperative search and
// corrects each path result against the overlays in O(log B + D_v) extra
// work per node, where B is the buffer capacity and D_v the node's pending
// deletions; when the buffer reaches its capacity (default √n, at least
// 16), the structure is rebuilt from scratch — O(n) work amortized over B
// updates. Queries therefore keep the Theorem 1 step shape with a small
// additive overlay term, and updates cost amortized O(n/B + log B).
package dynamic

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/obs"
	"fraccascade/internal/tree"
)

// overlay is one node's pending mutations.
type overlay struct {
	// ins is sorted by key; del is a small set of currently-native keys.
	ins []insEntry
	del map[catalog.Key]bool
}

type insEntry struct {
	key     catalog.Key
	payload int32
}

// Structure is a dynamic cooperative search structure.
type Structure struct {
	t   *tree.Tree
	cfg core.Config
	st  *core.Structure

	// cur holds each node's committed native keys/payloads, sorted.
	curKeys     [][]catalog.Key
	curPayloads [][]int32

	overlays map[tree.NodeID]*overlay
	buffered int
	capacity int
	rebuilds int

	// gen counts successful flushes. Every Flush replaces the static
	// structure, so any externally cached artifact derived from it (entry
	// positions, catalog offsets) is stale once gen changes. Readers
	// snapshot Generation() when they cache and compare before reuse;
	// gen is monotone, so a stale snapshot can never compare equal again.
	gen atomic.Uint64

	// rebuildHook, when set, runs before every rebuild attempt; an error
	// aborts that attempt as if the build itself had failed. Tests use it
	// to inject transient and permanent rebuild faults.
	rebuildHook func(attempt int) error
	// maxAttempts and sleep parameterize the retry loop; sleep is
	// injectable so tests need not wait out real backoff.
	maxAttempts int
	sleep       func(time.Duration)

	// Observability handles (nil-safe no-ops without SetMetrics).
	obsFlushes     *obs.Counter
	obsAttempts    *obs.Counter
	obsAttemptFail *obs.Counter
	obsFlushFail   *obs.Counter
	obsFlushNs     *obs.Histogram
}

// Rebuild retry parameters: up to defaultRebuildAttempts tries with
// exponential backoff starting at rebuildBackoffBase, capped at
// rebuildBackoffCap.
const defaultRebuildAttempts = 3

const (
	rebuildBackoffBase = time.Millisecond
	rebuildBackoffCap  = 50 * time.Millisecond
)

// New builds a dynamic structure over the initial catalogs. capacity 0
// selects the default max(16, ⌈√n⌉).
func New(t *tree.Tree, native []catalog.Catalog, cfg core.Config, capacity int) (*Structure, error) {
	d := &Structure{
		t:           t,
		cfg:         cfg,
		overlays:    make(map[tree.NodeID]*overlay),
		maxAttempts: defaultRebuildAttempts,
		sleep:       time.Sleep,
	}
	d.curKeys = make([][]catalog.Key, t.N())
	d.curPayloads = make([][]int32, t.N())
	total := 0
	for v := range native {
		for _, e := range native[v].Entries() {
			if e.Native && e.Key != catalog.PlusInf {
				d.curKeys[v] = append(d.curKeys[v], e.Key)
				d.curPayloads[v] = append(d.curPayloads[v], e.Payload)
				total++
			}
		}
	}
	if capacity <= 0 {
		capacity = int(math.Ceil(math.Sqrt(float64(total))))
		if capacity < 16 {
			capacity = 16
		}
	}
	d.capacity = capacity
	if err := d.rebuild(); err != nil {
		return nil, err
	}
	d.rebuilds = 0 // the initial build is not an amortized rebuild
	return d, nil
}

// SetMetrics attaches (or, with nil, detaches) an observability registry.
// Flush activity is mirrored into it:
//
//	dynamic.flushes              successful flushes (== generation churn)
//	dynamic.flush_failures       flushes that exhausted every attempt
//	dynamic.rebuild.attempts     individual rebuild attempts
//	dynamic.rebuild.failures     failed individual attempts (then retried)
//	dynamic.flush_ns             wall time of successful flushes (histogram)
//	dynamic.generation           current flush generation (pull gauge)
//	dynamic.buffered             pending mutations (pull gauge)
//	dynamic.capacity             rebuild threshold (pull gauge)
//
// The pull gauges read this structure's accessors at snapshot time, which
// is safe under the package's single-writer discipline (snapshots and
// mutations must not race, same as queries). With no registry every
// mirror write is a nil-handle no-op and Flush takes no timestamps.
func (d *Structure) SetMetrics(r *obs.Registry) {
	if r == nil {
		d.obsFlushes, d.obsAttempts, d.obsAttemptFail, d.obsFlushFail, d.obsFlushNs = nil, nil, nil, nil, nil
		return
	}
	d.obsFlushes = r.Counter("dynamic.flushes")
	d.obsFlushFail = r.Counter("dynamic.flush_failures")
	d.obsAttempts = r.Counter("dynamic.rebuild.attempts")
	d.obsAttemptFail = r.Counter("dynamic.rebuild.failures")
	d.obsFlushNs = r.Histogram("dynamic.flush_ns")
	r.RegisterFunc("dynamic.generation", func() int64 { return int64(d.Generation()) })
	r.RegisterFunc("dynamic.buffered", func() int64 { return int64(d.Buffered()) })
	r.RegisterFunc("dynamic.capacity", func() int64 { return int64(d.Capacity()) })
}

// Rebuilds reports how many amortized rebuilds have occurred.
func (d *Structure) Rebuilds() int { return d.rebuilds }

// Buffered reports the number of pending mutations.
func (d *Structure) Buffered() int { return d.buffered }

// Capacity reports the rebuild threshold.
func (d *Structure) Capacity() int { return d.capacity }

// Static exposes the current underlying static structure (invalidated by
// the next rebuild).
func (d *Structure) Static() *core.Structure { return d.st }

func (d *Structure) ov(v tree.NodeID) *overlay {
	o := d.overlays[v]
	if o == nil {
		o = &overlay{del: make(map[catalog.Key]bool)}
		d.overlays[v] = o
	}
	return o
}

// committedHas reports whether key is a committed native key of node v.
func (d *Structure) committedHas(v tree.NodeID, key catalog.Key) bool {
	ks := d.curKeys[v]
	i := sort.Search(len(ks), func(j int) bool { return ks[j] >= key })
	return i < len(ks) && ks[i] == key
}

// Insert adds key (with payload) to node v's catalog.
func (d *Structure) Insert(v tree.NodeID, key catalog.Key, payload int32) error {
	if key == catalog.PlusInf {
		return fmt.Errorf("dynamic: cannot insert the +inf terminal")
	}
	o := d.ov(v)
	if o.del[key] {
		// Reinsertion of a pending-deleted committed key.
		delete(o.del, key)
		d.buffered--
		// Payload may differ: route through the insert overlay by
		// treating it as delete+insert.
		if d.committedHas(v, key) {
			// Committed payload wins unless it differs; replace via
			// del+ins to honour the new payload.
			i := sort.Search(len(d.curKeys[v]), func(j int) bool { return d.curKeys[v][j] >= key })
			if d.curPayloads[v][i] != payload {
				o.del[key] = true
				d.buffered++
				return d.insertPending(v, o, key, payload)
			}
		}
		return d.maybeRebuild()
	}
	if d.committedHas(v, key) {
		return fmt.Errorf("dynamic: key %d already present at node %d", key, v)
	}
	return d.insertPending(v, o, key, payload)
}

func (d *Structure) insertPending(v tree.NodeID, o *overlay, key catalog.Key, payload int32) error {
	i := sort.Search(len(o.ins), func(j int) bool { return o.ins[j].key >= key })
	if i < len(o.ins) && o.ins[i].key == key {
		return fmt.Errorf("dynamic: key %d already pending at node %d", key, v)
	}
	o.ins = append(o.ins, insEntry{})
	copy(o.ins[i+1:], o.ins[i:])
	o.ins[i] = insEntry{key: key, payload: payload}
	d.buffered++
	return d.maybeRebuild()
}

// Delete removes key from node v's catalog.
func (d *Structure) Delete(v tree.NodeID, key catalog.Key) error {
	if key == catalog.PlusInf {
		return fmt.Errorf("dynamic: cannot delete the +inf terminal")
	}
	o := d.ov(v)
	i := sort.Search(len(o.ins), func(j int) bool { return o.ins[j].key >= key })
	if i < len(o.ins) && o.ins[i].key == key {
		// Deleting a pending insert cancels it.
		o.ins = append(o.ins[:i], o.ins[i+1:]...)
		d.buffered--
		return nil
	}
	if !d.committedHas(v, key) {
		return fmt.Errorf("dynamic: key %d not present at node %d", key, v)
	}
	if o.del[key] {
		return fmt.Errorf("dynamic: key %d already deleted at node %d", key, v)
	}
	o.del[key] = true
	d.buffered++
	return d.maybeRebuild()
}

func (d *Structure) maybeRebuild() error {
	if d.buffered < d.capacity {
		return nil
	}
	return d.Flush()
}

// SetRebuildHook installs a hook run before every rebuild attempt; a
// non-nil error from it fails that attempt (and is retried like any other
// rebuild failure). Pass nil to remove the hook. Intended for fault
// injection in tests and chaos experiments.
func (d *Structure) SetRebuildHook(hook func(attempt int) error) { d.rebuildHook = hook }

// Flush commits all pending mutations and rebuilds the static structure
// transactionally: merged catalogs are staged in fresh slices and the new
// static structure is built from the staged state; only after the build
// succeeds are the committed keys, overlays, and static structure swapped.
// A failed build attempt (for example one interrupted by an injected
// fault) is retried with capped exponential backoff; if every attempt
// fails, Flush returns the last error and the structure is unchanged —
// pending mutations stay buffered and queries keep answering from the old
// static structure corrected by the overlays.
func (d *Structure) Flush() error {
	var flushStart time.Time
	if d.obsFlushNs != nil {
		flushStart = time.Now()
	}
	newKeys := make([][]catalog.Key, len(d.curKeys))
	newPayloads := make([][]int32, len(d.curPayloads))
	copy(newKeys, d.curKeys)
	copy(newPayloads, d.curPayloads)
	for v, o := range d.overlays {
		if len(o.ins) == 0 && len(o.del) == 0 {
			continue
		}
		ks, ps := d.curKeys[v], d.curPayloads[v]
		newKs := make([]catalog.Key, 0, len(ks)+len(o.ins))
		newPs := make([]int32, 0, len(ks)+len(o.ins))
		i, j := 0, 0
		for i < len(ks) || j < len(o.ins) {
			if j >= len(o.ins) || (i < len(ks) && ks[i] < o.ins[j].key) {
				if !o.del[ks[i]] {
					newKs = append(newKs, ks[i])
					newPs = append(newPs, ps[i])
				}
				i++
			} else {
				newKs = append(newKs, o.ins[j].key)
				newPs = append(newPs, o.ins[j].payload)
				j++
			}
		}
		newKeys[v], newPayloads[v] = newKs, newPs
	}
	st, err := d.rebuildFrom(newKeys, newPayloads)
	if err != nil {
		d.obsFlushFail.Inc()
		return err
	}
	d.curKeys, d.curPayloads = newKeys, newPayloads
	d.overlays = make(map[tree.NodeID]*overlay)
	d.buffered = 0
	d.st = st
	d.rebuilds++
	d.gen.Add(1)
	d.obsFlushes.Inc()
	if d.obsFlushNs != nil {
		d.obsFlushNs.Observe(time.Since(flushStart).Nanoseconds())
	}
	return nil
}

// Generation returns the flush generation: a counter incremented by every
// successful Flush (including capacity-triggered ones). Cache the value
// alongside anything derived from Static() and treat a changed generation
// as invalidation; failed flush attempts leave the static structure — and
// the generation — untouched.
func (d *Structure) Generation() uint64 { return d.gen.Load() }

// rebuildFrom builds a static structure over the given staged catalogs,
// retrying failed attempts with capped exponential backoff. It never
// mutates d beyond consuming backoff sleeps.
func (d *Structure) rebuildFrom(keys [][]catalog.Key, payloads [][]int32) (*core.Structure, error) {
	backoff := rebuildBackoffBase
	var lastErr error
	for attempt := 1; attempt <= d.maxAttempts; attempt++ {
		if attempt > 1 {
			d.sleep(backoff)
			backoff *= 2
			if backoff > rebuildBackoffCap {
				backoff = rebuildBackoffCap
			}
		}
		d.obsAttempts.Inc()
		st, err := d.buildOnce(attempt, keys, payloads)
		if err == nil {
			return st, nil
		}
		d.obsAttemptFail.Inc()
		lastErr = err
	}
	return nil, fmt.Errorf("dynamic: rebuild failed after %d attempts: %w", d.maxAttempts, lastErr)
}

func (d *Structure) buildOnce(attempt int, keys [][]catalog.Key, payloads [][]int32) (*core.Structure, error) {
	if d.rebuildHook != nil {
		if err := d.rebuildHook(attempt); err != nil {
			return nil, err
		}
	}
	cats := make([]catalog.Catalog, d.t.N())
	for v := range cats {
		c, err := catalog.FromKeys(keys[v], payloads[v])
		if err != nil {
			return nil, fmt.Errorf("dynamic: node %d: %w", v, err)
		}
		cats[v] = c
	}
	return core.Build(d.t, cats, d.cfg)
}

func (d *Structure) rebuild() error {
	st, err := d.rebuildFrom(d.curKeys, d.curPayloads)
	if err != nil {
		return err
	}
	d.st = st
	return nil
}

// correct adjusts a static search result for node v against the overlays:
// it skips pending-deleted native successors and folds in the smallest
// pending insert ≥ y.
func (d *Structure) correct(v tree.NodeID, y catalog.Key, r cascade.Result) cascade.Result {
	o := d.overlays[v]
	if o == nil || (len(o.ins) == 0 && len(o.del) == 0) {
		return r
	}
	// Walk right past deleted natives.
	cat := d.st.Cascade().Aug(v)
	pos := r.AugPos
	key, payload := cat.NativeResult(pos)
	for o.del[key] && key != catalog.PlusInf {
		pos = int(cat.At(pos).NativeSucc) + 1
		if pos >= cat.Len() {
			pos = cat.Len() - 1
		}
		key, payload = cat.NativeResult(pos)
	}
	// Fold in pending inserts.
	i := sort.Search(len(o.ins), func(j int) bool { return o.ins[j].key >= y })
	if i < len(o.ins) && o.ins[i].key < key {
		return cascade.Result{Node: v, AugPos: r.AugPos, Key: o.ins[i].key, Payload: o.ins[i].payload}
	}
	return cascade.Result{Node: v, AugPos: pos, Key: key, Payload: payload}
}

// SearchExplicit runs the cooperative search on the static structure and
// corrects every result against the pending overlays.
func (d *Structure) SearchExplicit(y catalog.Key, path []tree.NodeID, p int) ([]cascade.Result, core.Stats, error) {
	results, stats, err := d.st.SearchExplicit(y, path, p)
	if err != nil {
		return nil, stats, err
	}
	for i := range results {
		results[i] = d.correct(path[i], y, results[i])
	}
	return results, stats, nil
}

// Find returns the current find(y, v) for a single node (an O(log n)
// dictionary operation against committed + pending state, used by tests
// as the oracle-facing accessor).
func (d *Structure) Find(v tree.NodeID, y catalog.Key) (catalog.Key, int32) {
	ks, ps := d.curKeys[v], d.curPayloads[v]
	bestKey, bestPayload := catalog.PlusInf, catalog.NoPayload
	i := sort.Search(len(ks), func(j int) bool { return ks[j] >= y })
	o := d.overlays[v]
	for ; i < len(ks); i++ {
		if o != nil && o.del[ks[i]] {
			continue
		}
		bestKey, bestPayload = ks[i], ps[i]
		break
	}
	if o != nil {
		j := sort.Search(len(o.ins), func(k int) bool { return o.ins[k].key >= y })
		if j < len(o.ins) && o.ins[j].key < bestKey {
			bestKey, bestPayload = o.ins[j].key, o.ins[j].payload
		}
	}
	return bestKey, bestPayload
}
