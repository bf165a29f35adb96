package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder is the always-on per-query flight recorder: a fixed set
// of record slots with a tail-sampling keep policy. Metrics say *that*
// p99 spiked; the recorder says *which* queries did it and why (shard,
// cache outcome, phase step split, error text).
//
// Keep policy, in priority order:
//   - every error (ring of the most recent Errors failures),
//   - the slowest SlowK queries per Window, for the last Windows windows,
//   - a uniform reservoir of Reservoir records over all traffic since
//     boot (Vitter's algorithm R), so the slowlog always shows what
//     *normal* looks like next to the tail.
//
// Record never blocks the query path and allocates nothing in steady
// state: slots are guarded by per-slot mutexes taken with TryLock, and a
// writer that loses the race drops the record (counted in Dropped) rather
// than waiting. Readers take the slot locks outright, so a dump can at
// worst shed a handful of concurrent writes — never stall them. A nil
// *FlightRecorder is a valid disabled recorder: Record is a no-op and
// stays 0-alloc like the rest of obs.
type FlightRecorder struct {
	reservoir []flightSlot
	errs      []flightSlot
	slow      []slowWindow
	windowNS  int64

	total   atomic.Int64
	errored atomic.Int64
	dropped atomic.Int64
	errHead atomic.Uint64
	rng     atomic.Uint64
	now     func() int64
}

// flightSlot is one retained record. ok distinguishes a written slot from
// a zero one; the mutex is per-slot so writers contend only on collisions.
type flightSlot struct {
	mu  sync.Mutex
	ok  bool
	rec FlightRecord
}

// slowWindow retains the slowest-K records of one time window. epochA
// mirrors epoch so the hot path can reject fast queries without the lock:
// floor is the smallest retained wall time once the window is full (-1
// while filling), so a query at or under the floor can't displace anything.
type slowWindow struct {
	mu     sync.Mutex
	epoch  int64
	n      int
	recs   []FlightRecord
	epochA atomic.Int64
	floor  atomic.Int64
}

// FlightRecorderConfig sizes the recorder's retention pools. Zero fields
// take the defaults noted on each.
type FlightRecorderConfig struct {
	Reservoir int           // uniform sample slots (default 1024)
	Errors    int           // most-recent-errors ring (default 256)
	SlowK     int           // slowest records kept per window (default 32)
	Window    time.Duration // slow-window width (default 1m)
	Windows   int           // slow windows retained (default 5)
}

// NewFlightRecorder returns a recorder with the given retention sizes.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	if cfg.Reservoir <= 0 {
		cfg.Reservoir = 1024
	}
	if cfg.Errors <= 0 {
		cfg.Errors = 256
	}
	if cfg.SlowK <= 0 {
		cfg.SlowK = 32
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	if cfg.Windows < 1 {
		cfg.Windows = 5
	}
	r := &FlightRecorder{
		reservoir: make([]flightSlot, cfg.Reservoir),
		errs:      make([]flightSlot, cfg.Errors),
		slow:      make([]slowWindow, cfg.Windows),
		windowNS:  int64(cfg.Window),
		now:       func() int64 { return time.Now().UnixNano() },
	}
	for i := range r.slow {
		r.slow[i].epoch = -1
		r.slow[i].epochA.Store(-1)
		r.slow[i].floor.Store(-1)
		r.slow[i].recs = make([]FlightRecord, cfg.SlowK)
	}
	return r
}

// PhaseCount is one phase's step attribution within a flight record.
type PhaseCount struct {
	Label string `json:"label"`
	Steps int    `json:"steps"`
}

// PhaseList holds a query's per-phase steps without allocating: no engine
// query runs more than three phases (catalog: root-coop, hop-descent,
// seq-tail; spatial: discrim, descent). Unused entries have an empty
// Label and are omitted from JSON.
type PhaseList [3]PhaseCount

// MarshalJSON emits only the used entries as a JSON array.
func (p PhaseList) MarshalJSON() ([]byte, error) {
	used := make([]PhaseCount, 0, len(p))
	for _, pc := range p {
		if pc.Label != "" {
			used = append(used, pc)
		}
	}
	return json.Marshal(used)
}

// FlightRecord is one query's telemetry, the one record the engine builds
// per query and hands to every attached sink. The spans derived from it
// (AppendSpans) carry its ID, so a slowlog entry correlates with /spans
// output and, via RequestID, with the client's request. StepLo is the
// batch's base on the engine's cumulative step clock.
type FlightRecord struct {
	ID        uint64    `json:"id"`
	Batch     uint64    `json:"batch"`
	RequestID string    `json:"request_id,omitempty"`
	Time      int64     `json:"time_unix_ns"`
	Kind      string    `json:"kind"`
	Shard     int       `json:"shard"`
	P         int       `json:"p"`
	Steps     int       `json:"steps"`
	StepLo    uint64    `json:"step_lo"`
	Rounds    int       `json:"rounds,omitempty"`
	WallNS    int64     `json:"wall_ns"`
	Cache     string    `json:"cache,omitempty"`
	Phases    PhaseList `json:"phases"`
	Err       string    `json:"err,omitempty"`
}

// rand is a splitmix64 step over an atomic counter: one uncontended
// atomic add per draw, no locks, no allocation, and statistically fine
// for reservoir victim selection (this is sampling, not cryptography).
func (r *FlightRecorder) rand() uint64 {
	z := r.rng.Add(0x9E3779B97F4A7C15)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// store copies rec into s unless a concurrent reader or writer holds the
// slot, in which case the record is dropped (never block the query path).
func (r *FlightRecorder) store(s *flightSlot, rec *FlightRecord) {
	if !s.mu.TryLock() {
		r.dropped.Add(1)
		return
	}
	s.rec = *rec
	s.ok = true
	s.mu.Unlock()
}

// Record retains rec according to the keep policy (no-op on nil). rec is
// copied; the caller may reuse it. Time is stamped from the recorder's
// clock when zero. Zero allocations, never blocks.
func (r *FlightRecorder) Record(rec *FlightRecord) {
	if r == nil {
		return
	}
	if rec.Time == 0 {
		rec.Time = r.now()
	}
	n := r.total.Add(1)

	// Uniform reservoir (algorithm R): the first len(reservoir) records
	// fill it; afterwards record n replaces a uniform victim with
	// probability len(reservoir)/n.
	size := int64(len(r.reservoir))
	slot := int64(-1)
	if n <= size {
		slot = n - 1
	} else if j := int64(r.rand() % uint64(n)); j < size {
		slot = j
	}
	if slot >= 0 {
		r.store(&r.reservoir[slot], rec)
	}

	if rec.Err != "" {
		r.errored.Add(1)
		i := r.errHead.Add(1) - 1
		r.store(&r.errs[i%uint64(len(r.errs))], rec)
	}

	r.recordSlow(rec)
}

// recordSlow keeps rec if it is among the slowest K of its time window.
func (r *FlightRecorder) recordSlow(rec *FlightRecord) {
	idx := rec.Time / r.windowNS
	w := &r.slow[int(idx%int64(len(r.slow)))]
	if w.epochA.Load() == idx {
		if f := w.floor.Load(); f >= 0 && rec.WallNS <= f {
			return // window full and rec not slower than the floor
		}
	}
	if !w.mu.TryLock() {
		r.dropped.Add(1)
		return
	}
	if w.epoch != idx {
		if w.epoch > idx {
			// A slow writer carrying a stale timestamp lost the window.
			w.mu.Unlock()
			return
		}
		w.epoch = idx
		w.n = 0
		w.epochA.Store(idx)
		w.floor.Store(-1)
	}
	if w.n < len(w.recs) {
		w.recs[w.n] = *rec
		w.n++
		if w.n == len(w.recs) {
			w.floor.Store(minWall(w.recs))
		}
	} else {
		mi := 0
		for i := 1; i < len(w.recs); i++ {
			if w.recs[i].WallNS < w.recs[mi].WallNS {
				mi = i
			}
		}
		if rec.WallNS > w.recs[mi].WallNS {
			w.recs[mi] = *rec
			w.floor.Store(minWall(w.recs))
		}
	}
	w.mu.Unlock()
}

func minWall(recs []FlightRecord) int64 {
	m := recs[0].WallNS
	for _, rec := range recs[1:] {
		if rec.WallNS < m {
			m = rec.WallNS
		}
	}
	return m
}

// FlightStats summarizes recorder volume.
type FlightStats struct {
	// Total and Errored count every Record call (retained or not);
	// Dropped counts records shed on slot contention.
	Total, Errored, Dropped int64
}

// Stats returns volume counters (zero on nil).
func (r *FlightRecorder) Stats() FlightStats {
	if r == nil {
		return FlightStats{}
	}
	return FlightStats{
		Total:   r.total.Load(),
		Errored: r.errored.Load(),
		Dropped: r.dropped.Load(),
	}
}

// Records returns every retained record, deduplicated across the pools
// (a record can sit in the reservoir, the error ring, and a slow window
// at once) and sorted newest-first. The dump path allocates freely — it
// serves debug endpoints, not the query path.
func (r *FlightRecorder) Records() []FlightRecord {
	if r == nil {
		return nil
	}
	type key struct {
		id uint64
		t  int64
	}
	seen := make(map[key]struct{})
	var out []FlightRecord
	add := func(rec FlightRecord) {
		k := key{rec.ID, rec.Time}
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		out = append(out, rec)
	}
	collect := func(slots []flightSlot) {
		for i := range slots {
			s := &slots[i]
			s.mu.Lock()
			if s.ok {
				add(s.rec)
			}
			s.mu.Unlock()
		}
	}
	collect(r.reservoir)
	collect(r.errs)
	for i := range r.slow {
		w := &r.slow[i]
		w.mu.Lock()
		for _, rec := range w.recs[:w.n] {
			add(rec)
		}
		w.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].ID > out[j].ID
	})
	return out
}
