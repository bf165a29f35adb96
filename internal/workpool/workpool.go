// Package workpool is the module's one host executor: engine query
// batches, the parallel preprocessors (ForEach), and E22's wall column all
// claim indices from an atomic counter through the same loop.
//
// The executor is a plain multiplexer. The p-way cost model splits the
// *simulated* processor budget, so simulated cost never depends on which
// goroutine runs an index, and the scheduler needs neither locality nor
// stealing: the caller and any idle helper goroutines claim indices
// [0, n) from one counter until it runs past n. Skewed work balances
// itself, because whoever finishes early claims the next index.
//
// The helpers are process-wide: one set of goroutines, parked on a
// condition variable between batches, grown on demand to the largest
// worker count any caller has asked for and never stopped. A Pool is only
// a cap on how many of them join one Run plus a task counter, so it needs
// no Close and costs nothing to create.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunksPerWorker over-splits a ForEach range so that workers finishing
// cheap chunks early claim the tail of a skewed range; beyond ~4 the
// per-chunk claim overhead outweighs the balance gained on the skewed
// catalog-merge workloads.
const chunksPerWorker = 4

// Workers resolves a parallelism knob to a worker count: values <= 0
// select GOMAXPROCS (all cores), 1 is sequential, anything else is taken
// literally.
func Workers(parallelism int) int {
	if parallelism > 0 {
		return parallelism
	}
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	return w
}

// Pool runs index loops on the shared helpers with at most Workers
// goroutines per Run, the caller included. Construct with New. All
// methods are safe for concurrent use.
type Pool struct {
	workers int
	tasks   atomic.Int64
}

// New returns a pool of the given worker count (<= 0 selects GOMAXPROCS).
func New(workers int) *Pool { return &Pool{workers: Workers(workers)} }

// Workers returns the per-Run worker cap.
func (p *Pool) Workers() int { return p.workers }

// Tasks returns the cumulative number of indices run, counted once per Run.
func (p *Pool) Tasks() int64 { return p.tasks.Load() }

// Run calls fn(i) for every i in [0, n) and returns once every call has
// finished. The caller claims indices itself, joined by up to Workers()-1
// idle helpers; with one worker, or n == 1, the loop runs inline in index
// order. Concurrent Runs are safe, and a Run never waits on another Run's
// work: helpers busy elsewhere simply leave more indices to the caller.
// A panic in fn is re-raised on the caller once the helpers inside this
// Run have left it. A steady-state Run allocates nothing.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	p.tasks.Add(int64(n))
	helpers := min(p.workers, n) - 1
	if helpers <= 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	b := sched.start(helpers, n, fn)
	b.claim()
	sched.finish(b)
}

// ForEach partitions [0, n) into contiguous chunks of at least grain
// elements and runs fn over them on min(parallelism, chunks) workers.
// parallelism <= 0 selects GOMAXPROCS; 1 (or a range small enough for a
// single chunk) runs fn(0, n) inline with no goroutines and no
// allocations. fn must confine its writes to state owned by indices in
// [lo, hi) — under that contract the result is identical for every
// parallelism value, which the construction code relies on for its
// deterministic-output guarantee. A panic in fn is re-raised on the
// caller, as Run does.
func ForEach(parallelism, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := Workers(parallelism)
	maxChunks := (n + grain - 1) / grain
	if workers > maxChunks {
		workers = maxChunks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	per := (n + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
	if per < grain {
		per = grain
	}
	p := Pool{workers: workers}
	p.Run((n+per-1)/per, func(c int) {
		lo := c * per
		fn(lo, min(lo+per, n))
	})
}

// batch is one Run in flight. Batches are recycled through sched.free, so
// a steady-state Run allocates nothing; a batch goes back on the free list
// only after its caller has waited out every helper that joined it.
type batch struct {
	fn   func(int)
	n    int64
	next atomic.Int64 // next unclaimed index

	// Guarded by sched.mu: the helper cap and how many have joined.
	helpers, joined int
	// Helpers inside the claim loop; Add happens under sched.mu while the
	// batch is open, so every Add precedes the caller's Wait.
	inside sync.WaitGroup

	panicMu  sync.Mutex
	panicked any
}

// claim runs fn over indices claimed from the counter until it passes n.
// A panic stops this participant's loop and is kept for the caller.
func (b *batch) claim() {
	defer func() {
		if r := recover(); r != nil {
			b.panicMu.Lock()
			if b.panicked == nil {
				b.panicked = r
			}
			b.panicMu.Unlock()
		}
	}()
	for {
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		b.fn(int(i))
	}
}

// executor owns the process-wide helper goroutines.
type executor struct {
	mu      sync.Mutex
	wake    sync.Cond // helpers park here while no open batch wants them
	open    []*batch  // batches that helpers may still join, oldest first
	free    []*batch
	spawned int
}

// sched is the process-wide executor every Pool and ForEach shares; its
// helpers live as long as the process, like the runtime's own threads.
var sched = func() *executor {
	s := &executor{}
	s.wake.L = &s.mu
	return s
}()

// start opens a batch to helpers, spawning helpers up to the cap on first
// demand, and wakes as many parked helpers as the batch can take.
func (s *executor) start(helpers, n int, fn func(int)) *batch {
	s.mu.Lock()
	var b *batch
	if k := len(s.free); k > 0 {
		b = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		b = new(batch)
	}
	b.fn, b.n, b.helpers, b.joined = fn, int64(n), helpers, 0
	b.next.Store(0)
	s.open = append(s.open, b)
	for s.spawned < helpers {
		s.spawned++
		go s.helper()
	}
	s.mu.Unlock()
	for i := 0; i < helpers; i++ {
		s.wake.Signal()
	}
	return b
}

// finish closes b to new helpers, waits for the ones inside, recycles b,
// and re-raises the first panic any participant recovered.
func (s *executor) finish(b *batch) {
	s.mu.Lock()
	for i, o := range s.open {
		if o == b {
			last := len(s.open) - 1
			copy(s.open[i:], s.open[i+1:])
			s.open[last] = nil
			s.open = s.open[:last]
			break
		}
	}
	s.mu.Unlock()
	b.inside.Wait()
	r := b.panicked
	b.fn, b.panicked = nil, nil
	s.mu.Lock()
	s.free = append(s.free, b)
	s.mu.Unlock()
	if r != nil {
		panic(r)
	}
}

// helper joins the oldest open batch that has unclaimed indices and room
// for another helper, and parks when there is none.
func (s *executor) helper() {
	s.mu.Lock()
	for {
		var b *batch
		for _, o := range s.open {
			if o.joined < o.helpers && o.next.Load() < o.n {
				b = o
				break
			}
		}
		if b == nil {
			s.wake.Wait()
			continue
		}
		b.joined++
		b.inside.Add(1)
		s.mu.Unlock()
		b.claim()
		b.inside.Done()
		s.mu.Lock()
	}
}
