package obs

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable nanosecond clock for driving window rotation
// deterministically in tests.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

func (c *fakeClock) set(ns int64) {
	c.mu.Lock()
	c.ns = ns
	c.mu.Unlock()
}

// TestHistogramQuantileEdges pins the empty and single-sample quantile
// boundaries: an empty histogram answers NoData (not 0, which would read
// as "instantly fast"), and a single sample answers exactly that sample
// for every quantile (the bucket upper bound is capped at Max).
func TestHistogramQuantileEdges(t *testing.T) {
	cases := []struct {
		name               string
		obs                []int64
		p50, p90, p95, p99 int64
	}{
		{name: "empty", obs: nil, p50: NoData, p90: NoData, p95: NoData, p99: NoData},
		{name: "single", obs: []int64{1500}, p50: 1500, p90: 1500, p95: 1500, p99: 1500},
		{name: "single-zero", obs: []int64{0}, p50: 0, p90: 0, p95: 0, p99: 0},
		// Non-positive values share bucket 0, whose upper bound is 0 — a
		// single negative sample therefore reports 0, not the raw value.
		{name: "single-negative", obs: []int64{-7}, p50: 0, p90: 0, p95: 0, p99: 0},
		{name: "two", obs: []int64{1, 1 << 20}, p50: 1, p90: 1 << 20, p95: 1 << 20, p99: 1 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			for _, v := range tc.obs {
				h.Observe(v)
			}
			s := h.Snapshot()
			if s.P50 != tc.p50 || s.P90 != tc.p90 || s.P95 != tc.p95 || s.P99 != tc.p99 {
				t.Fatalf("quantiles = %d/%d/%d/%d, want %d/%d/%d/%d",
					s.P50, s.P90, s.P95, s.P99, tc.p50, tc.p90, tc.p95, tc.p99)
			}
		})
	}
}

// TestHistogramNilSnapshotNoData checks the disabled histogram agrees
// with the empty one: no data means NoData quantiles either way.
func TestHistogramNilSnapshotNoData(t *testing.T) {
	var h *Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != NoData || s.P99 != NoData {
		t.Fatalf("nil snapshot = %+v, want zero counts with NoData quantiles", s)
	}
}

// TestWindowedHistogramRotation drives the clock across sub-windows and
// checks old observations age out of the snapshot exactly when their
// sub-window leaves the visible range.
func TestWindowedHistogramRotation(t *testing.T) {
	clk := &fakeClock{ns: 1}
	w := NewWindowedHistogram(10*time.Second, 3) // 30s visible
	w.now = clk.now

	w.Observe(100)
	w.Observe(200)
	if s := w.Snapshot(); s.Count != 2 || s.Max != 200 {
		t.Fatalf("fresh window: count=%d max=%d, want 2/200", s.Count, s.Max)
	}

	// Two sub-windows later the observations are still visible.
	clk.set(int64(25 * time.Second))
	w.Observe(400)
	if s := w.Snapshot(); s.Count != 3 || s.Max != 400 {
		t.Fatalf("t=25s: count=%d max=%d, want 3/400", s.Count, s.Max)
	}

	// At t=35s the first sub-window (epoch 0) is outside the 3-window
	// range [idx-2, idx]; only the 400 survives.
	clk.set(int64(35 * time.Second))
	if s := w.Snapshot(); s.Count != 1 || s.Max != 400 {
		t.Fatalf("t=35s: count=%d max=%d, want 1/400", s.Count, s.Max)
	}

	// Far in the future everything is stale: empty snapshot, NoData.
	clk.set(int64(10 * time.Minute))
	if s := w.Snapshot(); s.Count != 0 || s.P99 != NoData {
		t.Fatalf("idle: count=%d p99=%d, want 0/NoData", s.Count, s.P99)
	}

	// Slot reuse after the gap must not resurrect stale bucket counts.
	w.Observe(7)
	if s := w.Snapshot(); s.Count != 1 || s.Max != 7 || s.P99 != 7 {
		t.Fatalf("after reuse: count=%d max=%d p99=%d, want 1/7/7", s.Count, s.Max, s.P99)
	}
}

// TestWindowedHistogramNil checks the disabled path: no-ops and an empty
// NoData snapshot.
func TestWindowedHistogramNil(t *testing.T) {
	var w *WindowedHistogram
	w.Observe(5)
	if s := w.Snapshot(); s.Count != 0 || s.P50 != NoData {
		t.Fatalf("nil snapshot = %+v, want empty with NoData quantiles", s)
	}
	if w.Window() != 0 {
		t.Fatalf("nil Window() = %v, want 0", w.Window())
	}
}

// TestWindowedHistogramConcurrent hammers Observe from many goroutines
// while snapshotting; run under -race this pins the lock-free design, and
// the final snapshot must account for every observation (single window, no
// rotation, so nothing may be lost).
func TestWindowedHistogramConcurrent(t *testing.T) {
	clk := &fakeClock{ns: 1}
	w := NewWindowedHistogram(time.Hour, 4)
	w.now = clk.now
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				w.Snapshot()
			}
		}
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Observe(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if s := w.Snapshot(); s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

// TestSLOBurnRate pins the burn-rate arithmetic: with a 0.99 objective,
// a 10%% bad fraction burns the 1%% budget at 10x.
func TestSLOBurnRate(t *testing.T) {
	clk := &fakeClock{ns: 1}
	s := NewSLO(100*time.Millisecond, 0.99, 10*time.Second, 12)
	s.now = clk.now

	if got := s.BurnRate(0); got != 0 {
		t.Fatalf("idle burn rate = %v, want 0 (no traffic is not a violation)", got)
	}
	for i := 0; i < 90; i++ {
		s.Observe(int64(time.Millisecond))
	}
	for i := 0; i < 10; i++ {
		s.Observe(int64(time.Second))
	}
	if good, total := s.GoodTotal(0); good != 90 || total != 100 {
		t.Fatalf("good/total = %d/%d, want 90/100", good, total)
	}
	if got := s.BurnRate(0); got < 9.99 || got > 10.01 {
		t.Fatalf("burn rate = %v, want 10", got)
	}
	// A short window ending now sees the same single sub-window.
	if got := s.BurnRate(3); got < 9.99 || got > 10.01 {
		t.Fatalf("short burn rate = %v, want 10", got)
	}
	// Once the window ages out, the burn rate recovers to 0.
	clk.set(int64(10 * time.Minute))
	if got := s.BurnRate(0); got != 0 {
		t.Fatalf("aged burn rate = %v, want 0", got)
	}
	if s.Threshold() != 100*time.Millisecond || s.Objective() != 0.99 {
		t.Fatalf("threshold/objective = %v/%v", s.Threshold(), s.Objective())
	}
}

// TestSLOOneWindow pins that the SLO keeps one window: each Observe moves
// the latency snapshot and the good/total counters together, and both age
// out of the same sub-window together.
func TestSLOOneWindow(t *testing.T) {
	clk := &fakeClock{ns: 1}
	s := NewSLO(100*time.Millisecond, 0.99, 10*time.Second, 3)
	s.now = clk.now

	s.Observe(int64(time.Millisecond))
	good, total := s.GoodTotal(0)
	if snap := s.Snapshot(); snap.Count != 1 || good != 1 || total != 1 {
		t.Fatalf("after one good observation: count=%d good/total=%d/%d, want 1 and 1/1", snap.Count, good, total)
	}
	clk.set(int64(15 * time.Second))
	s.Observe(int64(time.Second))
	good, total = s.GoodTotal(0)
	if snap := s.Snapshot(); snap.Count != 2 || snap.Max != int64(time.Second) || good != 1 || total != 2 {
		t.Fatalf("after one bad observation: count=%d max=%d good/total=%d/%d, want 2, 1s and 1/2", snap.Count, snap.Max, good, total)
	}
	// At t=35s the first sub-window (epoch 0) has left the 3-window range:
	// the snapshot and the counters both drop its observation.
	clk.set(int64(35 * time.Second))
	good, total = s.GoodTotal(0)
	if snap := s.Snapshot(); snap.Count != 1 || good != 0 || total != 1 {
		t.Fatalf("t=35s: count=%d good/total=%d/%d, want 1 and 0/1", snap.Count, good, total)
	}
}

// TestSLONil checks the disabled SLO path.
func TestSLONil(t *testing.T) {
	var s *SLO
	s.Observe(1)
	if g, tot := s.GoodTotal(0); g != 0 || tot != 0 {
		t.Fatalf("nil GoodTotal = %d/%d", g, tot)
	}
	if s.BurnRate(0) != 0 || s.Threshold() != 0 || s.Objective() != 0 {
		t.Fatal("nil SLO accessors must return zeros")
	}
}

// TestWindowObserveAllocs pins the hot-path allocation contract for both
// the enabled and the disabled (nil) windowed instruments.
func TestWindowObserveAllocs(t *testing.T) {
	w := NewWindowedHistogram(10*time.Second, 12)
	s := NewSLO(100*time.Millisecond, 0.99, 10*time.Second, 12)
	var nilW *WindowedHistogram
	var nilS *SLO
	if n := testing.AllocsPerRun(1000, func() {
		w.Observe(42)
		s.Observe(42)
	}); n != 0 {
		t.Fatalf("enabled windowed Observe allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		nilW.Observe(42)
		nilS.Observe(42)
	}); n != 0 {
		t.Fatalf("disabled windowed Observe allocates %v/op, want 0", n)
	}
}
