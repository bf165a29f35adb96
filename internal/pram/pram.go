// Package pram implements a synchronous PRAM (Parallel Random Access
// Machine) execution layer used as the substrate for the cooperative
// search algorithms of Tamassia and Vitter.
//
// The package models the three classic memory-access disciplines:
//
//   - EREW: exclusive read, exclusive write
//   - CREW: concurrent read, exclusive write
//   - CRCW: concurrent read, concurrent write (Common and Arbitrary variants)
//
// A computation is a sequence of synchronous steps. In each step every
// active processor (1) reads any number of shared-memory words, (2) computes
// locally, and (3) buffers writes; all writes commit atomically at the end of
// the step. Access conflicts are detected against the declared model and
// reported as errors, which lets tests mechanically verify, for example,
// that a preprocessing phase claimed to be EREW really never issues a
// concurrent read.
//
// Cost accounting follows the standard PRAM conventions: Time is the number
// of steps executed, and Work is the sum over steps of the number of active
// processors. These are exactly the quantities bounded by the paper's
// theorems, independent of host hardware.
//
// PRAM programs are written once against the Executor interface and run on
// any of three interchangeable executors:
//
//   - Machine: the goroutine-barrier executor. Processors within a step can
//     run on real goroutines (SetConcurrent), which exercises the program
//     under the race detector.
//   - VirtualMachine: a virtual-time executor that replays processors in a
//     deterministic sequential loop per step — no goroutines, allocation-
//     light, with conflict detection and fault-hook semantics identical to
//     Machine (the differential tests in this package and internal/parallel
//     assert bit-identical steps, work, memory, verdicts, and skip counts).
//   - Uncosted: a result-only executor that skips access tracing for pure
//     computation uses where only the final memory state matters.
//
// All executors produce identical memory states because writes are buffered
// per processor and committed in processor-ID order with model-dependent
// conflict resolution.
package pram

import (
	"fmt"
	"slices"

	"fraccascade/internal/obs"
)

// Model selects the memory-access discipline enforced by an Executor.
type Model int

const (
	// EREW forbids both concurrent reads and concurrent writes to the
	// same address within one step.
	EREW Model = iota
	// CREW allows concurrent reads but forbids concurrent writes.
	CREW
	// CRCWCommon allows concurrent writes only if all writers write the
	// same value.
	CRCWCommon
	// CRCWArbitrary allows concurrent writes; the lowest-numbered
	// processor wins (a deterministic refinement of "arbitrary").
	CRCWArbitrary
)

// String returns the conventional name of the model.
func (m Model) String() string {
	switch m {
	case EREW:
		return "EREW"
	case CREW:
		return "CREW"
	case CRCWCommon:
		return "CRCW-Common"
	case CRCWArbitrary:
		return "CRCW-Arbitrary"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// AllowsConcurrentRead reports whether the model permits two processors to
// read the same address in one step.
func (m Model) AllowsConcurrentRead() bool { return m != EREW }

// AllowsConcurrentWrite reports whether the model permits two processors to
// write the same address in one step (subject to the variant's value rule).
func (m Model) AllowsConcurrentWrite() bool { return m == CRCWCommon || m == CRCWArbitrary }

// A FaultHook injects processor failures and read perturbations into an
// executor's run. Hooks are consulted inside Step: a processor for which
// ProcLive returns false skips the step entirely (its body does not run, so
// its reads and buffered writes never happen — the behaviour of a processor
// that died or stalled before the barrier), and every Read by a live
// processor passes through PerturbRead.
//
// Implementations must be safe for concurrent calls: on the goroutine-
// barrier Machine in Concurrent mode the hook is invoked from multiple
// goroutines within one step. Plans that are immutable during execution
// (such as faults.Plan) satisfy this trivially.
type FaultHook interface {
	// ProcLive reports whether processor proc participates in step.
	ProcLive(step, proc int) bool
	// PerturbRead maps the true value v read from addr by proc at step to
	// the value the processor observes.
	PerturbRead(step, proc, addr int, v int64) int64
}

// A ConflictError reports a memory-access violation of the executor's model.
type ConflictError struct {
	Model Model  // model in force
	Kind  string // "read" or "write"
	Addr  int    // conflicting address
	Step  int    // step index (0-based) at which the conflict occurred
	ProcA int    // first involved processor
	ProcB int    // second involved processor
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("pram: concurrent %s of address %d by processors %d and %d at step %d violates %s",
		e.Kind, e.Addr, e.ProcA, e.ProcB, e.Step, e.Model)
}

// Executor is the synchronous step/memory/conflict contract that PRAM
// programs are written against. All three implementations — Machine
// (goroutine barrier), VirtualMachine (deterministic sequential replay),
// and Uncosted (no access tracing) — share the same memory layout, cost
// accounting, fault-hook semantics, and host staging API, so a program is
// written once and the executor is chosen at the call site.
type Executor interface {
	// Model returns the executor's memory-access model.
	Model() Model
	// Procs returns the processor budget.
	Procs() int
	// Time returns the number of synchronous steps executed so far.
	Time() int
	// Work returns the cumulative processor-steps charged.
	Work() int64
	// Skipped returns the processor-steps lost to the fault hook.
	Skipped() int64
	// PeakActive returns the largest per-step live processor count.
	PeakActive() int
	// ResetCost zeroes the time/work counters without touching memory.
	ResetCost()
	// Alloc reserves n fresh zeroed words and returns their base address.
	Alloc(n int) int
	// Load reads a word outside of any step (host access, not charged).
	Load(addr int) int64
	// Store writes a word outside of any step (host access, not charged).
	Store(addr int, v int64)
	// LoadSlice copies n words starting at base (host access, not charged).
	LoadSlice(base, n int) []int64
	// StoreSlice stages src into memory at base (host access, not charged).
	StoreSlice(base int, src []int64)
	// MemWords returns the current shared-memory size in words.
	MemWords() int
	// SetFaultHook installs (or, with nil, removes) a fault hook.
	SetFaultHook(h FaultHook)
	// FaultHookInstalled reports whether a fault hook is active.
	FaultHookInstalled() bool
	// SetMetrics attaches (or, with nil, detaches) an obs registry.
	SetMetrics(r *obs.Registry)
	// SetProfile attaches (or, with nil, detaches) a phase-attributed
	// cost profile; see Profile.
	SetProfile(p *Profile)
	// Profile returns the attached profile (nil when none).
	Profile() *Profile
	// Phase marks the start of an algorithm phase: every subsequently
	// charged step is attributed to label in the attached profile. With no
	// profile attached Phase is a free no-op (zero allocations), so
	// programs label phases unconditionally.
	Phase(label string)
	// Step runs one synchronous step with active processors executing body.
	Step(active int, body func(p *Proc)) error
	// Run executes body repeatedly until it returns false, propagating any
	// conflict error.
	Run(body func() (more bool, err error)) error
}

type writeOp struct {
	addr int
	val  int64
	proc int32
}

// base carries the state and mechanics shared by every executor: shared
// memory, cost counters, fault hook, observability handles, and the
// conflict-detection/commit passes. Keeping detection and commit here — as
// code shared by value, not behaviour re-implemented per executor — is what
// makes the differential guarantees cheap: Machine and VirtualMachine cannot
// drift on verdicts or metrics because they run the same passes.
type base struct {
	model      Model
	procs      int
	mem        []int64
	steps      int
	work       int64
	peakActive int
	faults     FaultHook
	skipped    int64
	profile    *Profile

	// Observability handles (nil when no registry is attached; every use
	// is nil-safe, so the disabled hot path is a nil check — see
	// SetMetrics and internal/obs).
	obsSteps      *obs.Counter
	obsWork       *obs.Counter
	obsSkipped    *obs.Counter
	obsPeakActive *obs.Gauge
	obsReadConf   *obs.Counter
	obsWriteConf  *obs.Counter

	// Per-step conflict scratch, reused across steps. The logs are dense
	// arrays indexed by address; each entry packs the owning processor with
	// an epoch stamp (entry = proc<<32 | epoch) and belongs to the current
	// step iff its stamp equals epoch, so beginStep is O(1) instead of
	// clearing per-address state and the admission passes touch one cache
	// line per access instead of map buckets. The arrays lazily track the
	// memory size in beginStep.
	writeBuf []writeOp
	rlog     []uint64 // addr -> last reader this step (EREW checking)
	wlog     []uint64 // addr -> first writer this step
	firstVal []int64  // addr -> latest admitted value (CRCW-Common rule)
	epoch    uint32
}

// logEntry packs a processor id and the current epoch into one log word.
func (b *base) logEntry(proc int32) uint64 {
	return uint64(uint32(proc))<<32 | uint64(b.epoch)
}

func newBase(model Model, procs int) (base, error) {
	if procs < 1 {
		return base{}, fmt.Errorf("pram: processor count must be positive, got %d", procs)
	}
	return base{model: model, procs: procs}, nil
}

// SetFaultHook installs (or, with nil, removes) a fault-injection hook.
// Every subsequent Step consults it; see FaultHook. The executor never
// mutates the hook, so one plan can drive many executors.
func (b *base) SetFaultHook(h FaultHook) { b.faults = h }

// FaultHookInstalled reports whether a fault hook is active.
func (b *base) FaultHookInstalled() bool { return b.faults != nil }

// SetMetrics attaches (or, with nil, detaches) an observability registry.
// Subsequent Steps mirror the executor's cost accounting into it:
//
//	pram.steps                      synchronous steps executed
//	pram.work                       processor-steps charged
//	pram.fault.skipped              processor-steps lost to the fault hook
//	pram.peak_active                largest per-step live processor count
//	pram.conflicts.<model>.read     detected read conflicts, per model
//	pram.conflicts.<model>.write    detected write conflicts, per model
//
// Names are registry-global and identical across executors, so machines
// sharing a registry aggregate — the view a metrics snapshot wants — while
// the executor's own Time/Work/Skipped accessors remain the per-machine
// ground truth. With no registry attached every mirror write is a
// nil-handle no-op: the hot path stays allocation-free and the simulated
// step counts are bit-identical (verified by obs_test.go and the engine's
// invariance test).
func (b *base) SetMetrics(r *obs.Registry) {
	if r == nil {
		b.obsSteps, b.obsWork, b.obsSkipped = nil, nil, nil
		b.obsPeakActive, b.obsReadConf, b.obsWriteConf = nil, nil, nil
		return
	}
	b.obsSteps = r.Counter("pram.steps")
	b.obsWork = r.Counter("pram.work")
	b.obsSkipped = r.Counter("pram.fault.skipped")
	b.obsPeakActive = r.Gauge("pram.peak_active")
	b.obsReadConf = r.Counter("pram.conflicts." + b.model.String() + ".read")
	b.obsWriteConf = r.Counter("pram.conflicts." + b.model.String() + ".write")
}

// SetProfile attaches (or, with nil, detaches) a phase-attributed cost
// profile. Attribution happens in the shared charge/conflict passes, so
// the resulting profile is executor-independent; the whole-machine
// accessors (Time, Work, ...) are unaffected. ResetCost does not touch
// the profile — detach or Reset it explicitly.
func (b *base) SetProfile(p *Profile) { b.profile = p }

// Profile returns the attached profile (nil when none).
func (b *base) Profile() *Profile { return b.profile }

// Phase marks the start of an algorithm phase; see Executor.Phase.
func (b *base) Phase(label string) {
	if b.profile != nil {
		b.profile.enter(label)
	}
}

// Skipped returns the cumulative number of processor-steps lost to the
// fault hook (processors scheduled in a step but reported dead or stalled).
func (b *base) Skipped() int64 { return b.skipped }

// Model returns the executor's memory-access model.
func (b *base) Model() Model { return b.model }

// Procs returns the executor's processor budget.
func (b *base) Procs() int { return b.procs }

// Time returns the number of synchronous steps executed so far.
func (b *base) Time() int { return b.steps }

// Work returns the cumulative processor-steps (sum of active processors
// over all steps).
func (b *base) Work() int64 { return b.work }

// PeakActive returns the largest number of processors active in any step.
func (b *base) PeakActive() int { return b.peakActive }

// ResetCost zeroes the time/work counters without touching memory.
func (b *base) ResetCost() {
	b.steps = 0
	b.work = 0
	b.peakActive = 0
}

// Alloc reserves n fresh words of shared memory, zero-initialised, and
// returns the base address of the block.
func (b *base) Alloc(n int) int {
	base := len(b.mem)
	b.mem = append(b.mem, make([]int64, n)...)
	return base
}

// Load reads a word outside of any step (host access, not charged).
func (b *base) Load(addr int) int64 { return b.mem[addr] }

// Store writes a word outside of any step (host access, not charged).
// It is intended for input staging before a computation begins.
func (b *base) Store(addr int, v int64) { b.mem[addr] = v }

// LoadSlice copies n words starting at base into a fresh slice
// (host access, not charged).
func (b *base) LoadSlice(base, n int) []int64 {
	out := make([]int64, n)
	copy(out, b.mem[base:base+n])
	return out
}

// StoreSlice stages the words of src into memory starting at base
// (host access, not charged).
func (b *base) StoreSlice(base int, src []int64) {
	copy(b.mem[base:base+len(src)], src)
}

// MemWords returns the current shared-memory size in words.
func (b *base) MemWords() int { return len(b.mem) }

// Run executes body repeatedly until it returns false, propagating any
// conflict error. It is a convenience for loop-shaped kernels where the
// host-side control flow is considered free (the standard PRAM convention
// for uniform control).
func (b *base) Run(body func() (more bool, err error)) error {
	for {
		more, err := body()
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

// beginStep advances the scratch epoch (invalidating all prior log entries
// in O(1)) and sizes the logs to the current memory.
func (b *base) beginStep() {
	if n := len(b.mem); len(b.wlog) < n {
		grow := n - len(b.wlog)
		b.wlog = append(b.wlog, make([]uint64, grow)...)
		b.firstVal = append(b.firstVal, make([]int64, grow)...)
		if !b.model.AllowsConcurrentRead() {
			b.rlog = append(b.rlog, make([]uint64, grow)...)
		}
	}
	b.epoch++
	if b.epoch == 0 {
		// Stamp wrap (once per 2^32 steps): flush stale stamps for real.
		clear(b.rlog)
		clear(b.wlog)
		b.epoch = 1
	}
	b.writeBuf = b.writeBuf[:0]
}

// checkReads validates one processor's traced reads against the EREW rule.
// Callers invoke it in ascending processor order, which — together with the
// issue order preserved inside each trace — makes the reported conflict the
// same pair regardless of executor.
func (b *base) checkReads(proc int, reads []int) error {
	for _, a := range reads {
		if e := b.rlog[a]; uint32(e) == b.epoch && int32(e>>32) != int32(proc) {
			b.obsReadConf.Inc()
			if p := b.profile; p != nil {
				p.current().ReadConflicts++
			}
			return &ConflictError{Model: b.model, Kind: "read", Addr: a, Step: b.steps, ProcA: int(int32(e >> 32)), ProcB: proc}
		}
		b.rlog[a] = b.logEntry(int32(proc))
	}
	return nil
}

// admitOne applies the model's write rule to one buffered write, reporting
// whether it wins. Duplicate writes by the same processor are allowed under
// every model and the last one wins; concurrent writes by distinct
// processors resolve per model: CRCW-Common keeps the first value and
// requires all later ones to match, CRCW-Arbitrary keeps the lowest
// processor's value, and the exclusive-write models report a conflict.
// Callers feed writes in ascending processor order (issue order within a
// processor), which makes the verdict executor-independent.
func (b *base) admitOne(w writeOp) (bool, error) {
	if e := b.wlog[w.addr]; uint32(e) == b.epoch && int32(e>>32) != w.proc {
		switch b.model {
		case CRCWCommon:
			if b.firstVal[w.addr] != w.val {
				b.obsWriteConf.Inc()
				if p := b.profile; p != nil {
					p.current().WriteConflicts++
				}
				return false, &ConflictError{Model: b.model, Kind: "write", Addr: w.addr, Step: b.steps, ProcA: int(int32(e >> 32)), ProcB: int(w.proc)}
			}
			return false, nil // same value: drop duplicate
		case CRCWArbitrary:
			return false, nil // lowest processor already recorded wins
		default:
			b.obsWriteConf.Inc()
			if p := b.profile; p != nil {
				p.current().WriteConflicts++
			}
			return false, &ConflictError{Model: b.model, Kind: "write", Addr: w.addr, Step: b.steps, ProcA: int(int32(e >> 32)), ProcB: int(w.proc)}
		}
	}
	b.wlog[w.addr] = b.logEntry(w.proc)
	b.firstVal[w.addr] = w.val
	return true, nil
}

// admitWrites admits a run of buffered writes, appending the winners to
// writeBuf (used by Machine, which admits one processor's buffer at a
// time into the step-wide winner list).
func (b *base) admitWrites(writes []writeOp) error {
	// Reserve up front: admission appends at most len(writes) winners, and a
	// single exact grow avoids the copy-doubling that otherwise dominates
	// large steps.
	b.writeBuf = slices.Grow(b.writeBuf, len(writes))
	for _, w := range writes {
		keep, err := b.admitOne(w)
		if err != nil {
			return err
		}
		if keep {
			b.writeBuf = append(b.writeBuf, w)
		}
	}
	return nil
}

// admitWritesInPlace admits a whole step's writes at once, compacting the
// winners into the input slice (used by the sequential executors, whose
// single step-wide buffer makes the extra winner list unnecessary).
// Memory is untouched either way.
func (b *base) admitWritesInPlace(writes []writeOp) ([]writeOp, error) {
	kept := writes[:0]
	for _, w := range writes {
		keep, err := b.admitOne(w)
		if err != nil {
			return nil, err
		}
		if keep {
			kept = append(kept, w)
		}
	}
	return kept, nil
}

// commitWrites applies admitted writes to shared memory.
func (b *base) commitWrites(writes []writeOp) {
	for _, w := range writes {
		b.mem[w.addr] = w.val
	}
}

// chargeStep updates the cost counters and their obs mirrors for a
// completed step with the given scheduled and skipped processor counts.
func (b *base) chargeStep(active, skippedNow int) {
	b.steps++
	live := active - skippedNow
	b.work += int64(live)
	b.skipped += int64(skippedNow)
	if live > b.peakActive {
		b.peakActive = live
	}
	b.obsSteps.Inc()
	b.obsWork.Add(int64(live))
	if skippedNow > 0 {
		b.obsSkipped.Add(int64(skippedNow))
	}
	b.obsPeakActive.Max(int64(live))
	if p := b.profile; p != nil {
		p.current().add(live, skippedNow)
	}
}

// checkActive validates a Step's processor request against the budget.
// The negative-active panic is an internal invariant check, not input
// validation: active counts are computed by this module's callers from
// validated structures, so a negative value means a bug in the calling
// algorithm. Invalid *caller input* (a request exceeding the processor
// budget) is an error, per the package-wide convention.
func (b *base) checkActive(active int) error {
	if active < 0 {
		panic("pram: negative active processor count")
	}
	if active > b.procs {
		return fmt.Errorf("pram: step requests %d processors but machine has %d", active, b.procs)
	}
	return nil
}

// Proc is the view a single processor has of the executor during one step.
// Reads observe the memory state at the beginning of the step; writes are
// buffered and commit when the step ends. The same Proc type serves every
// executor, which is what lets a PRAM program be written once as a
// func(*Proc) body and run anywhere.
type Proc struct {
	// ID is the processor index in [0, active).
	ID int

	b          *base
	traceReads bool
	reads      []int
	writes     []writeOp
	halted     bool
}

// Read returns the word at addr as of the start of the current step. With
// a fault hook installed, the observed value may be a transient corruption
// of the stored one; the memory cell itself is never altered.
func (p *Proc) Read(addr int) int64 {
	if p.traceReads {
		p.reads = append(p.reads, addr)
	}
	v := p.b.mem[addr]
	if h := p.b.faults; h != nil {
		v = h.PerturbRead(p.b.steps, p.ID, addr, v)
	}
	return v
}

// Write buffers a write of v to addr; it becomes visible after the step.
func (p *Proc) Write(addr int, v int64) {
	p.writes = append(p.writes, writeOp{addr: addr, val: v, proc: int32(p.ID)})
}

// ExecutorKind names a concrete Executor implementation for construction
// from a command-line flag or config string.
type ExecutorKind int

const (
	// KindBarrier is the goroutine-barrier Machine with concurrent
	// processor execution enabled.
	KindBarrier ExecutorKind = iota
	// KindVirtual is the sequential virtual-time VirtualMachine.
	KindVirtual
	// KindUncosted is the tracing-free Uncosted executor.
	KindUncosted
	// KindWall is the native wall-clock executor over the flat layout
	// (internal/workpool.Pool running flat searches): real goroutines,
	// host nanoseconds instead of simulated steps. It parses like the
	// simulated kinds so front ends (coopbench -executor wall) can select
	// it, but it is not a simulated PRAM — NewExecutor rejects it; callers
	// run their searches through workpool.Pool.Run directly.
	KindWall
)

// String returns the flag spelling of the kind.
func (k ExecutorKind) String() string {
	switch k {
	case KindBarrier:
		return "barrier"
	case KindVirtual:
		return "virtual"
	case KindUncosted:
		return "uncosted"
	case KindWall:
		return "wall"
	default:
		return fmt.Sprintf("ExecutorKind(%d)", int(k))
	}
}

// ParseExecutorKind maps a flag value ("barrier", "virtual", "uncosted",
// "wall") to its ExecutorKind.
func ParseExecutorKind(s string) (ExecutorKind, error) {
	switch s {
	case "barrier":
		return KindBarrier, nil
	case "virtual":
		return KindVirtual, nil
	case "uncosted":
		return KindUncosted, nil
	case "wall":
		return KindWall, nil
	default:
		return 0, fmt.Errorf("pram: unknown executor %q (want barrier, virtual, uncosted, or wall)", s)
	}
}

// NewExecutor constructs an executor of the given kind. KindBarrier
// returns a Machine with goroutine execution enabled (the configuration
// the -executor=barrier flags select); use New directly for a sequential
// in-order Machine.
func NewExecutor(kind ExecutorKind, model Model, procs int) (Executor, error) {
	switch kind {
	case KindBarrier:
		m, err := New(model, procs)
		if err != nil {
			return nil, err
		}
		m.SetConcurrent(true)
		return m, nil
	case KindVirtual:
		return NewVirtual(model, procs)
	case KindUncosted:
		return NewUncosted(model, procs)
	case KindWall:
		return nil, fmt.Errorf("pram: the wall executor is native, not a simulated PRAM; run the searches through workpool.Pool.Run directly")
	default:
		return nil, fmt.Errorf("pram: unknown executor kind %d", int(kind))
	}
}

// MustNewExecutor is NewExecutor that panics on error.
func MustNewExecutor(kind ExecutorKind, model Model, procs int) Executor {
	e, err := NewExecutor(kind, model, procs)
	if err != nil {
		panic(err)
	}
	return e
}
