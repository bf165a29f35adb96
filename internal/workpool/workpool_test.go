package workpool

import (
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunCoversEveryIndexOnce: every index of [0, n) runs exactly once,
// for one worker (the inline path) up to more workers than indices, and
// the task counter advances by n per Run.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 32} {
		p := New(workers)
		var total int64
		for _, n := range []int{1, 7, 200} {
			counts := make([]atomic.Int32, n)
			p.Run(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
			total += int64(n)
		}
		if p.Tasks() != total {
			t.Errorf("workers=%d: pool counted %d tasks, want %d", workers, p.Tasks(), total)
		}
	}
}

// TestRunConcurrentCallers: 16 goroutines share one pool, each running
// its own batches; every batch sees each of its indices exactly once.
// Run with -race this checks the batch recycling and helper hand-off.
func TestRunConcurrentCallers(t *testing.T) {
	p := New(4)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				n := 1 + (g*7+round)%64
				counts := make([]int32, n)
				p.Run(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
				for i, c := range counts {
					if c != 1 {
						t.Errorf("caller %d round %d: index %d ran %d times", g, round, i, c)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRunNotStalledByBlockedBatch: while one Run is stuck inside fn, a
// concurrent Run on the same pool still finishes, because its caller
// claims whatever indices no helper takes.
func TestRunNotStalledByBlockedBatch(t *testing.T) {
	p := New(4)
	block := make(chan struct{})
	blocked := make(chan struct{})
	stuck := make(chan struct{})
	go func() {
		defer close(stuck)
		p.Run(4, func(i int) {
			if i == 0 {
				close(blocked)
			}
			<-block
		})
	}()
	<-blocked
	var ran atomic.Int32
	p.Run(64, func(int) { ran.Add(1) })
	if ran.Load() != 64 {
		t.Errorf("concurrent Run ran %d of 64 indices", ran.Load())
	}
	close(block)
	<-stuck
}

// TestRunPanicPropagates: a panic in fn, on the caller or on a helper,
// surfaces on the caller, and the pool keeps working afterwards.
func TestRunPanicPropagates(t *testing.T) {
	p := New(4)
	for _, at := range []int{0, 100, 255} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("panic at %d: recovered %v, want \"boom\"", at, r)
				}
			}()
			p.Run(256, func(i int) {
				if i == at {
					panic("boom")
				}
			})
			t.Fatalf("panic at %d: Run returned without panicking", at)
		}()
	}
	var ran atomic.Int32
	p.Run(32, func(int) { ran.Add(1) })
	if ran.Load() != 32 {
		t.Fatalf("Run after a panic ran %d of 32 indices", ran.Load())
	}
}

// TestRunZeroAllocs: once the helpers exist, a Run whose fn allocates
// nothing allocates nothing.
func TestRunZeroAllocs(t *testing.T) {
	if os.Getenv("FRACCASCADE_GUARD") == "skip" {
		t.Skip("allocation guard skipped via FRACCASCADE_GUARD=skip")
	}
	p := New(4)
	out := make([]int, 64)
	fn := func(i int) { out[i] = i * i }
	for i := 0; i < 8; i++ {
		p.Run(len(out), fn)
	}
	if allocs := testing.AllocsPerRun(200, func() { p.Run(len(out), fn) }); allocs != 0 {
		t.Errorf("Run allocates %.1f per call, want 0", allocs)
	}
}

// TestForEachCoversRange: every index in [0, n) is visited exactly once,
// for a sweep of range sizes, grains, and parallelism values (including
// the inline sequential path and over-subscribed worker counts).
func TestForEachCoversRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(2000)
		grain := rng.Intn(64)
		par := rng.Intn(12) - 2 // includes <= 0 (all cores) and 1 (inline)
		visits := make([]int32, n)
		ForEach(par, n, grain, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("trial %d (n=%d grain=%d par=%d): chunk [%d, %d) outside [0, %d)", trial, n, grain, par, lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, c := range visits {
			if c != 1 {
				t.Fatalf("trial %d (n=%d grain=%d par=%d): index %d visited %d times", trial, n, grain, par, i, c)
			}
		}
	}
}

// TestForEachEmptyAndTiny: degenerate ranges neither call fn out of range
// nor hang.
func TestForEachEmptyAndTiny(t *testing.T) {
	called := 0
	ForEach(4, 0, 8, func(lo, hi int) { called++ })
	ForEach(4, -3, 8, func(lo, hi int) { called++ })
	if called != 0 {
		t.Fatalf("fn called %d times on empty ranges", called)
	}
	ForEach(8, 1, 1, func(lo, hi int) {
		if lo != 0 || hi != 1 {
			t.Fatalf("single-element range gave chunk [%d, %d)", lo, hi)
		}
		called++
	})
	if called != 1 {
		t.Fatalf("single-element range called fn %d times", called)
	}
}

// TestForEachDeterministicOutput: writes confined to owned indices give
// identical output for every parallelism value — the contract the
// construction code builds its determinism guarantee on.
func TestForEachDeterministicOutput(t *testing.T) {
	const n = 4096
	want := make([]int64, n)
	ForEach(1, n, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			want[i] = int64(i*i + 7)
		}
	})
	for _, par := range []int{2, 3, 8, 0, runtime.NumCPU()} {
		got := make([]int64, n)
		ForEach(par, n, 8, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				got[i] = int64(i*i + 7)
			}
		})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("par=%d: output diverged at index %d: %d != %d", par, i, got[i], want[i])
			}
		}
	}
}

// TestForEachPanicPropagates: a panic on a worker surfaces on the caller,
// matching sequential semantics, after all workers drained.
func TestForEachPanicPropagates(t *testing.T) {
	for _, par := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("par=%d: recovered %v, want \"boom\"", par, r)
				}
			}()
			ForEach(par, 256, 1, func(lo, hi int) {
				if lo <= 100 && 100 < hi {
					panic("boom")
				}
			})
			t.Fatalf("par=%d: ForEach returned without panicking", par)
		}()
	}
}

// TestWorkers pins the knob resolution: <= 0 means all cores, positive
// values are literal.
func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-5) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, p := range []int{1, 2, 17} {
		if got := Workers(p); got != p {
			t.Fatalf("Workers(%d) = %d", p, got)
		}
	}
}
