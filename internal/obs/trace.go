package obs

import "sync"

// Span is the read-time view of one query's flight record, the JSON line
// served by coopserve's /spans and written by `plquery -trace`: the query
// identity, the processor share it ran with, its Step-1 root rounds, and
// its position on the engine's cumulative step clock — [StepLo, StepHi)
// is the simulated step range the query occupied within its batch's
// window, so spans of one batch overlap (the queries run concurrently on
// disjoint processor groups) while batches abut.
//
// A query span may be followed by per-phase child spans: Parent carries
// the query span's ID, Phase the phase label ("root-coop", "hop-descent",
// "seq-tail", ...), and [StepLo, StepHi) the phase's sub-range of the
// parent's window. Phase steps of one parent partition the parent's Steps.
// FlightRecord.AppendSpans derives both from the record.
type Span struct {
	// ID is the engine-unique query id; Batch the id of the batch that
	// executed it. Parent is 0 for query spans and the parent query span's
	// ID for per-phase child spans.
	ID     uint64 `json:"id"`
	Batch  uint64 `json:"batch"`
	Parent uint64 `json:"parent,omitempty"`
	// Kind is the query kind ("catalog", "point", "spatial"); Shard the
	// catalog shard (0 otherwise). Phase is empty on query spans and the
	// phase label on child spans.
	Kind  string `json:"kind"`
	Shard int    `json:"shard"`
	Phase string `json:"phase,omitempty"`
	// P is the processor share; Rounds the Step-1 cooperative root-search
	// rounds (catalog queries); Steps the query's simulated parallel time.
	P      int `json:"p"`
	Rounds int `json:"rounds"`
	Steps  int `json:"steps"`
	// StepLo/StepHi locate the query on the engine's cumulative batch step
	// clock: StepHi - StepLo == Steps.
	StepLo uint64 `json:"step_lo"`
	StepHi uint64 `json:"step_hi"`
	// Cache is the entry-cache outcome of a catalog query: "hit", "miss",
	// "stale" (a hit whose hinted position failed O(1) revalidation
	// against the frozen catalog, so the query fell back to the full entry
	// search). Empty for non-catalog and failed queries, phase children,
	// and uncached execution. CacheHit mirrors Cache == "hit".
	Cache    string `json:"cache,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Err is the failure message, "" on success.
	Err string `json:"err,omitempty"`
	// RequestID is the serving-layer correlation id (minted or honored by
	// coopserve, carried through the batch context). Empty when the caller
	// did not attach one — library use, benchmarks, most tests.
	RequestID string `json:"request_id,omitempty"`
}

// AppendSpans appends the query span of rec and one child span per
// recorded phase, in phase order, to dst. The children take ids ID+1, …,
// the ids the engine reserves for them, and partition the query's step
// window.
func (rec *FlightRecord) AppendSpans(dst []Span) []Span {
	dst = append(dst, Span{
		ID:        rec.ID,
		Batch:     rec.Batch,
		Kind:      rec.Kind,
		Shard:     rec.Shard,
		P:         rec.P,
		Rounds:    rec.Rounds,
		Steps:     rec.Steps,
		StepLo:    rec.StepLo,
		StepHi:    rec.StepLo + uint64(rec.Steps),
		Cache:     rec.Cache,
		CacheHit:  rec.Cache == "hit",
		Err:       rec.Err,
		RequestID: rec.RequestID,
	})
	off, id := rec.StepLo, rec.ID
	for _, ph := range rec.Phases {
		if ph.Label == "" {
			continue
		}
		id++
		dst = append(dst, Span{
			ID:        id,
			Batch:     rec.Batch,
			Parent:    rec.ID,
			Kind:      rec.Kind,
			Shard:     rec.Shard,
			Phase:     ph.Label,
			P:         rec.P,
			Steps:     ph.Steps,
			StepLo:    off,
			StepHi:    off + uint64(ph.Steps),
			RequestID: rec.RequestID,
		})
		off += uint64(ph.Steps)
	}
	return dst
}

// Tracer receives each executed query's flight record, the one the engine
// hands its FlightRecorder, by value: a pointer passed through the
// interface would escape to the heap once per query. Implementations must
// be safe for concurrent Emit calls. A nil Tracer disables tracing.
type Tracer interface {
	Emit(FlightRecord)
}

// subscriberBuffer is the capacity of each Subscribe channel: a live tail
// that falls this many records behind drops records rather than stall the
// engine's Emit.
const subscriberBuffer = 256

// Ring is an in-memory ring-buffer Tracer holding the most recent flight
// records, cheap enough to leave attached: tests and the -trace CLI
// surfaces read it after the fact, and live subscribers tail it.
type Ring struct {
	mu   sync.Mutex
	buf  []FlightRecord
	next int
	subs map[chan FlightRecord]struct{}
}

// NewRing returns a ring tracer retaining the last n records (n ≥ 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]FlightRecord, 0, n), subs: make(map[chan FlightRecord]struct{})}
}

// Emit implements Tracer: it retains rec and offers it to every
// subscriber, dropping it for a subscriber whose buffer is full.
func (r *Ring) Emit(rec FlightRecord) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
		r.next = (r.next + 1) % cap(r.buf)
	}
	for ch := range r.subs {
		select {
		case ch <- rec:
		default: // slow subscriber: drop rather than stall the engine
		}
	}
	r.mu.Unlock()
}

// records returns the retained records, oldest first; r.mu must be held.
func (r *Ring) records() []FlightRecord {
	out := make([]FlightRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Records returns the retained records, oldest first.
func (r *Ring) Records() []FlightRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.records()
}

// Spans returns the spans of the retained records, oldest first.
func (r *Ring) Spans() []Span {
	var out []Span
	for _, rec := range r.Records() {
		out = rec.AppendSpans(out)
	}
	return out
}

// Subscribe returns the retained records, oldest first, and a channel that
// receives every record emitted after them: both are taken under one lock,
// so history and tail neither overlap nor leave a gap. A subscriber more
// than subscriberBuffer records behind drops records. cancel unregisters
// the channel; records still buffered in it are discarded.
func (r *Ring) Subscribe() (history []FlightRecord, live <-chan FlightRecord, cancel func()) {
	ch := make(chan FlightRecord, subscriberBuffer)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs[ch] = struct{}{}
	return r.records(), ch, func() {
		r.mu.Lock()
		delete(r.subs, ch)
		r.mu.Unlock()
	}
}
