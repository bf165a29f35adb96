package obs

import (
	"sync/atomic"
	"time"
)

// Rolling-window telemetry: the cumulative Histogram answers "since boot",
// which is useless for paging — a latency spike an hour ago pins p99
// forever. WindowedHistogram keeps a ring of sub-windows (e.g. 12×10s)
// with the same log₂ buckets, so a snapshot aggregates only the last
// ~2 minutes and quantiles track *current* tail latency. SLO embeds one
// and adds an exact good counter to each sub-window, turning the pair into
// multi-window burn rates.
//
// Both are lock-free: Observe is a few atomic adds, rotation is a CAS on
// the slot's epoch. The CAS winner zeroes the slot, so observations racing
// the reset at a sub-window boundary can be lost — a handful per rotation
// at worst, which is fine for monitoring and keeps the hot path free of
// locks and allocations. A nil receiver is a valid disabled instance.

// windowSlot is one sub-window of a WindowedHistogram. epoch holds the
// absolute sub-window index stamped into the slot (-1 = never used) so a
// reader can tell live slots from stale ones left by an idle period.
// good counts the observations within an SLO's threshold; plain windows
// leave it 0.
type windowSlot struct {
	epoch   atomic.Int64
	count   atomic.Int64
	good    atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// reset zeroes the slot's data fields (the epoch is published by the
// caller's CAS before the reset; see Observe for the race contract).
func (w *windowSlot) reset() {
	w.count.Store(0)
	w.good.Store(0)
	w.sum.Store(0)
	w.max.Store(0)
	for i := range w.buckets {
		w.buckets[i].Store(0)
	}
}

// WindowedHistogram is a rolling window of log₂-bucketed sub-histograms.
// A nil *WindowedHistogram is a valid disabled instance: Observe is a
// no-op and Snapshot returns an empty snapshot with NoData quantiles.
type WindowedHistogram struct {
	subNS int64
	slots []windowSlot
	now   func() int64
}

// NewWindowedHistogram returns a histogram covering the last n sub-windows
// of duration sub each (so the visible window is n·sub, and the oldest
// data is at most n·sub old). n < 2 is raised to 2, sub < 1ms to 1ms.
func NewWindowedHistogram(sub time.Duration, n int) *WindowedHistogram {
	if n < 2 {
		n = 2
	}
	if sub < time.Millisecond {
		sub = time.Millisecond
	}
	w := &WindowedHistogram{
		subNS: int64(sub),
		slots: make([]windowSlot, n),
		now:   func() int64 { return time.Now().UnixNano() },
	}
	for i := range w.slots {
		w.slots[i].epoch.Store(-1)
	}
	return w
}

// slot returns the live slot for the current sub-window, rotating (and
// zeroing) it if it still holds an older epoch.
func (w *WindowedHistogram) slot(nowNS int64) *windowSlot {
	idx := nowNS / w.subNS
	s := &w.slots[int(idx%int64(len(w.slots)))]
	for {
		e := s.epoch.Load()
		if e == idx {
			return s
		}
		if e > idx {
			// A racing writer on a newer clock already rotated past us;
			// dump into its window rather than resurrecting a stale one.
			return s
		}
		if s.epoch.CompareAndSwap(e, idx) {
			s.reset()
			return s
		}
	}
}

// Observe records one value into the current sub-window (no-op on nil).
// Zero allocations; never blocks.
func (w *WindowedHistogram) Observe(v int64) {
	if w == nil {
		return
	}
	w.observe(v)
}

// observe records v and returns the sub-window it landed in.
func (w *WindowedHistogram) observe(v int64) *windowSlot {
	s := w.slot(w.now())
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[bucketOf(v)].Add(1)
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			break
		}
	}
	return s
}

// eachLive calls f on each slot holding one of the last k sub-windows
// ending now (k ≤ 0 or past the ring size: all of them), skipping slots
// never used or stale from before an idle gap.
func (w *WindowedHistogram) eachLive(k int, f func(*windowSlot)) {
	if k <= 0 || k > len(w.slots) {
		k = len(w.slots)
	}
	nowIdx := w.now() / w.subNS
	for i := range w.slots {
		if e := w.slots[i].epoch.Load(); e > nowIdx-int64(k) && e <= nowIdx {
			f(&w.slots[i])
		}
	}
}

// Snapshot aggregates the live sub-windows (epochs within the visible
// window ending now) into one HistogramSnapshot. Empty window → zero
// counts and NoData quantiles.
func (w *WindowedHistogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if w != nil {
		w.eachLive(0, func(ws *windowSlot) {
			s.Count += ws.count.Load()
			s.Sum += ws.sum.Load()
			if m := ws.max.Load(); m > s.Max {
				s.Max = m
			}
			for b := range ws.buckets {
				s.Buckets[b] += ws.buckets[b].Load()
			}
		})
	}
	s.P50 = s.quantile(0.50)
	s.P90 = s.quantile(0.90)
	s.P95 = s.quantile(0.95)
	s.P99 = s.quantile(0.99)
	return s
}

// Window returns the total visible duration (0 on nil).
func (w *WindowedHistogram) Window() time.Duration {
	if w == nil {
		return 0
	}
	return time.Duration(w.subNS * int64(len(w.slots)))
}

// SLO tracks a latency objective — "fraction of queries under threshold ≥
// objective" — on its embedded WindowedHistogram, whose Snapshot gives the
// latency quantiles. Each observation also counts as good, in the
// sub-window it landed in, when it is within the threshold (compared per
// observation, not reconstructed from log₂ buckets, so a 250ms threshold
// is not rounded to a power of two). A nil *SLO is a valid disabled
// instance for Observe, GoodTotal, BurnRate, Threshold and Objective.
type SLO struct {
	WindowedHistogram
	thresholdNS int64
	objective   float64
}

// NewSLO returns a tracker for "latency ≤ threshold for at least
// objective (e.g. 0.99) of queries" over n sub-windows of duration sub.
// An objective outside (0, 1) becomes 0.99; Objective reports the value
// in force.
func NewSLO(threshold time.Duration, objective float64, sub time.Duration, n int) *SLO {
	if objective <= 0 || objective >= 1 {
		objective = 0.99
	}
	return &SLO{
		WindowedHistogram: *NewWindowedHistogram(sub, n),
		thresholdNS:       int64(threshold),
		objective:         objective,
	}
}

// Observe records one query latency (no-op on nil). Zero allocations.
func (s *SLO) Observe(latencyNS int64) {
	if s == nil {
		return
	}
	if sl := s.observe(latencyNS); latencyNS <= s.thresholdNS {
		sl.good.Add(1)
	}
}

// GoodTotal sums the good and total counters over the last k live
// sub-windows (k ≤ ring size; k ≤ 0 means the whole ring).
func (s *SLO) GoodTotal(k int) (good, total int64) {
	if s == nil {
		return 0, 0
	}
	s.eachLive(k, func(sl *windowSlot) {
		good += sl.good.Load()
		total += sl.count.Load()
	})
	return good, total
}

// BurnRate returns the error-budget burn rate over the last k sub-windows:
// (bad fraction)/(1 − objective). 1.0 means the budget burns exactly at
// the sustainable rate; 10 means ten times too fast (page); 0 means no
// budget burning. No traffic in the window returns 0 — an idle service is
// not violating its SLO.
func (s *SLO) BurnRate(k int) float64 {
	good, total := s.GoodTotal(k)
	if total == 0 {
		return 0
	}
	bad := float64(total-good) / float64(total)
	return bad / (1 - s.objective)
}

// Threshold returns the latency threshold (0 on nil).
func (s *SLO) Threshold() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.thresholdNS)
}

// Objective returns the target good fraction (0 on nil).
func (s *SLO) Objective() float64 {
	if s == nil {
		return 0
	}
	return s.objective
}
