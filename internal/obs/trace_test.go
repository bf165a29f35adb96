package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRingWrapsOldestFirst(t *testing.T) {
	r := NewRing(3)
	for i := uint64(1); i <= 5; i++ {
		r.Emit(FlightRecord{ID: i})
	}
	got := r.Records()
	if len(got) != 3 || got[0].ID != 3 || got[1].ID != 4 || got[2].ID != 5 {
		t.Fatalf("retained records = %+v, want IDs 3,4,5 oldest-first", got)
	}
}

func TestRingConcurrentEmit(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Emit(FlightRecord{ID: uint64(w*1000 + i)})
			}
		}(w)
	}
	wg.Wait()
	recs := r.Records()
	if len(recs) != 64 {
		t.Fatalf("retained = %d, want capacity 64", len(recs))
	}
	ids := map[uint64]bool{}
	for _, rec := range recs {
		if ids[rec.ID] {
			t.Fatalf("record %d retained twice", rec.ID)
		}
		ids[rec.ID] = true
	}
}

// TestRingSubscribeGapless subscribes mid-traffic while writers emit
// concurrently and a subscriber drains: the history plus the tail must be
// every record emitted, each exactly once, in the ring's emission order.
// Each round subscribes at a different point of the traffic.
func TestRingSubscribeGapless(t *testing.T) {
	for round := 0; round < 300; round++ {
		subscribeMidTraffic(t)
	}
}

// subscribeMidTraffic runs one round of TestRingSubscribeGapless. The
// writers take a credit per record that the subscriber returns per record
// received, so the tail never falls subscriberBuffer records behind and
// nothing may drop.
func subscribeMidTraffic(t *testing.T) {
	t.Helper()
	const writers, perWriter, credits = 8, 32, subscriberBuffer - 56
	r := NewRing(writers * perWriter)
	credit := make(chan struct{}, credits)
	var emitted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				credit <- struct{}{}
				r.Emit(FlightRecord{ID: uint64(w*perWriter + i + 1)})
				emitted.Add(1)
			}
		}(w)
	}

	for emitted.Load() == 0 {
		runtime.Gosched()
	}
	history, live, cancel := r.Subscribe()
	defer cancel()
	for range history {
		<-credit
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	got := append([]FlightRecord(nil), history...)
	for draining := true; draining; {
		select {
		case rec := <-live:
			got = append(got, rec)
			<-credit
		case <-done:
			draining = false
		}
	}
	// Every Emit has returned: the tail's buffer holds the rest.
	for n := len(live); n > 0; n-- {
		got = append(got, <-live)
	}
	want := r.Records()
	if len(got) != len(want) {
		t.Fatalf("history (%d records) plus tail hold %d records, ring emitted %d", len(history), len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("record %d: history (%d records) plus tail has id %d, emission order has %d", i, len(history), got[i].ID, want[i].ID)
		}
	}
}

// TestRingSubscribeStalled hammers the ring with concurrent writers while
// one subscriber never drains: Emit must never block, the draining
// subscriber must see records, and subscribing and cancelling mid-traffic
// must not panic or deadlock. Every cancel removes its subscriber. Run
// under -race this is the hot-path safety proof for the /spans tail.
func TestRingSubscribeStalled(t *testing.T) {
	r := NewRing(128)
	_, fast, cancelFast := r.Subscribe()
	_, _, cancelSlow := r.Subscribe() // never drained: every Emit past its buffer drops

	const writers, perWriter = 8, 500
	var drained sync.WaitGroup
	drained.Add(1)
	received := 0
	done := make(chan struct{})
	go func() {
		defer drained.Done()
		for {
			select {
			case <-fast:
				received++
			case <-done:
				// Drain what is still buffered, then stop.
				for {
					select {
					case <-fast:
						received++
					default:
						return
					}
				}
			}
		}
	}()

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Emit(FlightRecord{ID: uint64(w*perWriter + i + 1)})
			}
		}(w)
	}
	// Churn subscriptions while the writers run.
	for i := 0; i < 50; i++ {
		_, _, cancel := r.Subscribe()
		cancel()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(done)
	drained.Wait()
	cancelFast()
	cancelSlow()

	if received == 0 {
		t.Fatal("draining subscriber received no records")
	}
	if received > writers*perWriter {
		t.Fatalf("received %d records, more than the %d emitted", received, writers*perWriter)
	}
	// The slow subscriber must not have stalled the writers: 4000 emits
	// against a full buffer finish in microseconds when dropping; seconds
	// would mean Emit blocked on it.
	if elapsed > 5*time.Second {
		t.Fatalf("emitting took %v; a slow subscriber stalled the writers", elapsed)
	}
	r.mu.Lock()
	n := len(r.subs)
	r.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d subscribers remain after every cancel", n)
	}
}
