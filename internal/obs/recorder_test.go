package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFlightRecorderKeepPolicy checks the three retention pools: every
// error is kept, the slowest-K of a window are kept, and ordinary traffic
// lands in the reservoir.
func TestFlightRecorderKeepPolicy(t *testing.T) {
	clk := &fakeClock{ns: 1}
	r := NewFlightRecorder(FlightRecorderConfig{
		Reservoir: 8, Errors: 16, SlowK: 3, Window: time.Minute, Windows: 2,
	})
	r.now = clk.now

	// 100 fast queries, 5 very slow ones, 4 errors.
	for i := 0; i < 100; i++ {
		r.Record(&FlightRecord{ID: uint64(i + 1), Kind: "catalog", WallNS: 1000})
	}
	for i := 0; i < 5; i++ {
		r.Record(&FlightRecord{ID: uint64(200 + i), Kind: "catalog", WallNS: int64(1e6 * (i + 1))})
	}
	for i := 0; i < 4; i++ {
		r.Record(&FlightRecord{ID: uint64(300 + i), Kind: "spatial", WallNS: 500, Err: "boom"})
	}

	st := r.Stats()
	if st.Total != 109 || st.Errored != 4 {
		t.Fatalf("stats = %+v, want total 109, errored 4", st)
	}
	recs := r.Records()
	var errs, slow int
	for _, rec := range recs {
		if rec.Err != "" {
			errs++
		}
		if rec.WallNS >= 3e6 {
			slow++
		}
	}
	if errs != 4 {
		t.Fatalf("retained errors = %d, want all 4", errs)
	}
	// The slowest 3 of the window (3ms, 4ms, 5ms) must have been kept by
	// the slow pool regardless of reservoir luck.
	if slow != 3 {
		t.Fatalf("retained slowest = %d, want 3", slow)
	}
	if len(recs) > 8+16+2*3 {
		t.Fatalf("retained %d records, beyond pool capacity", len(recs))
	}
	// Newest-first ordering (all same Time here → by descending ID).
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Time < recs[i].Time {
			t.Fatalf("records not newest-first at %d", i)
		}
	}
}

// TestFlightRecorderSlowWindowRotation checks that slow-pool windows
// rotate with the clock and that a full window rejects fast queries via
// the lock-free floor check.
func TestFlightRecorderSlowWindowRotation(t *testing.T) {
	clk := &fakeClock{ns: 1}
	r := NewFlightRecorder(FlightRecorderConfig{
		Reservoir: 1, Errors: 1, SlowK: 2, Window: time.Minute, Windows: 2,
	})
	r.now = clk.now

	r.Record(&FlightRecord{ID: 1, WallNS: 100})
	r.Record(&FlightRecord{ID: 2, WallNS: 300})
	r.Record(&FlightRecord{ID: 3, WallNS: 200}) // floor is 100 → displaces ID 1
	r.Record(&FlightRecord{ID: 4, WallNS: 50})  // under floor (200) → rejected

	ids := map[uint64]bool{}
	for _, rec := range r.Records() {
		ids[rec.ID] = true
	}
	if !ids[2] || !ids[3] {
		t.Fatalf("slow window should retain IDs 2 and 3, got %v", ids)
	}

	// Next window: slots rotate, old slowest stay retained until reuse.
	clk.set(int64(90 * time.Second))
	r.Record(&FlightRecord{ID: 5, WallNS: 10})
	ids = map[uint64]bool{}
	for _, rec := range r.Records() {
		ids[rec.ID] = true
	}
	if !ids[5] || !ids[2] {
		t.Fatalf("want both windows retained, got %v", ids)
	}
}

// TestFlightRecorderNil checks the disabled recorder: no-ops, empty
// dumps, zero stats.
func TestFlightRecorderNil(t *testing.T) {
	var r *FlightRecorder
	r.Record(&FlightRecord{ID: 1})
	if got := r.Records(); got != nil {
		t.Fatalf("nil Records() = %v, want nil", got)
	}
	if st := r.Stats(); st != (FlightStats{}) {
		t.Fatalf("nil Stats() = %+v, want zeros", st)
	}
}

// TestFlightRecorderAllocs pins the acceptance-criteria allocation
// contract: the enabled steady-state recording path and the nil disabled
// path are both exactly 0 allocs per recorded query.
func TestFlightRecorderAllocs(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderConfig{Reservoir: 64, Errors: 8, SlowK: 4})
	// Prime past the reservoir fill so the measured loop is steady state.
	rec := FlightRecord{
		ID: 1, Kind: "catalog", Shard: 2, P: 64, Steps: 12, WallNS: 1000,
		Cache:  "miss",
		Phases: PhaseList{{Label: "root-coop", Steps: 4}, {Label: "seq-tail", Steps: 8}},
	}
	for i := 0; i < 200; i++ {
		rec.ID++
		r.Record(&rec)
	}
	if n := testing.AllocsPerRun(1000, func() {
		rec.ID++
		rec.WallNS++
		r.Record(&rec)
	}); n != 0 {
		t.Fatalf("enabled steady-state Record allocates %v/op, want 0", n)
	}
	var disabled *FlightRecorder
	if n := testing.AllocsPerRun(1000, func() {
		disabled.Record(&rec)
	}); n != 0 {
		t.Fatalf("disabled Record allocates %v/op, want 0", n)
	}
}

// TestFlightRecorderConcurrent hammers Record from many goroutines while
// a reader dumps — under -race this pins the TryLock slot discipline, and
// total accounting must be exact even when slots are contended.
func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderConfig{Reservoir: 32, Errors: 8, SlowK: 4})
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				r.Records()
				r.Stats()
			}
		}
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := FlightRecord{Kind: "catalog"}
			for i := 0; i < per; i++ {
				rec.ID = uint64(g*per + i + 1)
				rec.WallNS = int64(i)
				if i%251 == 0 {
					rec.Err = "boom"
				} else {
					rec.Err = ""
				}
				r.Record(&rec)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	st := r.Stats()
	if st.Total != workers*per {
		t.Fatalf("total = %d, want %d", st.Total, workers*per)
	}
	if len(r.Records()) == 0 {
		t.Fatal("no records retained")
	}
}

// TestPhaseListJSON pins the wire shape: only used entries appear, and an
// empty list marshals as [].
func TestPhaseListJSON(t *testing.T) {
	p := PhaseList{{Label: "root-coop", Steps: 3}, {Label: "seq-tail", Steps: 9}}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"label":"root-coop","steps":3},{"label":"seq-tail","steps":9}]`
	if string(b) != want {
		t.Fatalf("PhaseList JSON = %s, want %s", b, want)
	}
	if b, _ = json.Marshal(PhaseList{}); string(b) != "[]" {
		t.Fatalf("empty PhaseList JSON = %s, want []", b)
	}
	var rec FlightRecord
	blob, err := json.Marshal(FlightRecord{ID: 7, Kind: "catalog", Phases: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != 7 || rec.Phases[1].Steps != 9 {
		t.Fatalf("round trip = %+v", rec)
	}
	if strings.Contains(string(blob), `"err"`) {
		t.Fatalf("empty error must be omitted: %s", blob)
	}
}
