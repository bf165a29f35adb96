package pram

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fraccascade/internal/faults"
	"fraccascade/internal/obs"
)

// stepOp is one processor's pre-generated accesses for one step. Programs
// are generated up front so the bodies are pure table lookups: no shared
// rng is touched inside a body, which keeps them legal under Machine's
// concurrent (goroutine) mode.
type stepOp struct {
	reads  []int
	writes []struct {
		addr int
		val  int64
	}
}

// randProgram is a deterministic random step program: program[s][p] holds
// processor p's accesses in step s. Values written mix in the sum of the
// processor's reads so memory contents depend on execution semantics, not
// just on the final write table.
type randProgram struct {
	procs int
	words int
	steps [][]stepOp
}

func genProgram(rng *rand.Rand, procs, words, steps, maxOps int) randProgram {
	prog := randProgram{procs: procs, words: words}
	for s := 0; s < steps; s++ {
		ops := make([]stepOp, procs)
		for p := range ops {
			nr := rng.Intn(maxOps + 1)
			for i := 0; i < nr; i++ {
				ops[p].reads = append(ops[p].reads, rng.Intn(words))
			}
			nw := rng.Intn(maxOps + 1)
			for i := 0; i < nw; i++ {
				ops[p].writes = append(ops[p].writes, struct {
					addr int
					val  int64
				}{rng.Intn(words), int64(rng.Intn(1000))})
			}
		}
		prog.steps = append(prog.steps, ops)
	}
	return prog
}

// run executes the program on x until completion or first error, returning
// the error (nil on success). Steps are labelled in blocks of three so the
// phase profiler sees multiple phases and phase switches on every program.
func (prog randProgram) run(x Executor) error {
	base := x.Alloc(prog.words)
	for i := 0; i < prog.words; i++ {
		x.Store(base+i, int64(7*i+1))
	}
	for s := range prog.steps {
		x.Phase("phase-" + itoa(int64(s/3)))
		ops := prog.steps[s]
		err := x.Step(prog.procs, func(p *Proc) {
			op := ops[p.ID]
			var sum int64
			for _, a := range op.reads {
				sum += p.Read(base + a)
			}
			for _, w := range op.writes {
				p.Write(base+w.addr, w.val+sum%17)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// execState snapshots everything observable about an executor after a run.
type execState struct {
	err        error
	mem        []int64
	time       int
	work       int64
	skipped    int64
	peakActive int
	metrics    string
	profile    string
}

func snapshot(x Executor, err error, reg *obs.Registry) execState {
	st := execState{
		err:        err,
		mem:        x.LoadSlice(0, x.MemWords()),
		time:       x.Time(),
		work:       x.Work(),
		skipped:    x.Skipped(),
		peakActive: x.PeakActive(),
	}
	if reg != nil {
		st.metrics = metricsText(reg)
	}
	if p := x.Profile(); p != nil {
		st.profile = p.String()
		if err == nil && p.TotalSteps() != x.Time() {
			panic("profile steps do not sum to Time on a legal run")
		}
	}
	return st
}

func metricsText(reg *obs.Registry) string {
	var sb stringsBuilder
	if err := reg.WriteText(&sb); err != nil {
		panic(err)
	}
	return sb.String()
}

// stringsBuilder avoids importing strings just for a Builder in this file.
type stringsBuilder struct{ buf []byte }

func (b *stringsBuilder) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}
func (b *stringsBuilder) String() string { return string(b.buf) }

func sameConflict(t *testing.T, label string, a, b error) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: error mismatch: %v vs %v", label, a, b)
	}
	if a == nil {
		return
	}
	var ca, cb *ConflictError
	if !errors.As(a, &ca) || !errors.As(b, &cb) {
		t.Fatalf("%s: non-conflict errors: %v vs %v", label, a, b)
	}
	if *ca != *cb {
		t.Fatalf("%s: conflict verdicts differ: %+v vs %+v", label, *ca, *cb)
	}
}

func diffStates(t *testing.T, label string, a, b execState) {
	t.Helper()
	sameConflict(t, label, a.err, b.err)
	if a.time != b.time || a.work != b.work || a.skipped != b.skipped || a.peakActive != b.peakActive {
		t.Fatalf("%s: cost mismatch: time %d/%d work %d/%d skipped %d/%d peak %d/%d",
			label, a.time, b.time, a.work, b.work, a.skipped, b.skipped, a.peakActive, b.peakActive)
	}
	if len(a.mem) != len(b.mem) {
		t.Fatalf("%s: memory size mismatch: %d vs %d", label, len(a.mem), len(b.mem))
	}
	for i := range a.mem {
		if a.mem[i] != b.mem[i] {
			t.Fatalf("%s: memory differs at word %d: %d vs %d", label, i, a.mem[i], b.mem[i])
		}
	}
	if a.metrics != b.metrics {
		t.Fatalf("%s: metrics snapshots differ:\n%s\nvs\n%s", label, a.metrics, b.metrics)
	}
	if a.profile != b.profile {
		t.Fatalf("%s: phase profiles differ:\n%s\nvs\n%s", label, a.profile, b.profile)
	}
}

// TestExecutorDifferentialRandomPrograms replays seeded random step
// programs — across all four models, with and without fault plans — on the
// sequential Machine, the concurrent (goroutine-barrier) Machine, and the
// VirtualMachine, asserting identical memory, cost counters, metric
// snapshots, and conflict verdicts. This is the core guarantee that lets
// experiments default to the virtual executor: any drift between the
// executors' semantics fails here.
func TestExecutorDifferentialRandomPrograms(t *testing.T) {
	models := []Model{EREW, CREW, CRCWCommon, CRCWArbitrary}
	const seeds = 40
	for _, model := range models {
		for seed := int64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			procs := 1 + rng.Intn(8)
			words := 1 + rng.Intn(12)
			steps := 1 + rng.Intn(10)
			prog := genProgram(rng, procs, words, steps, 3)

			var plan *faults.Plan
			if seed%2 == 0 {
				var err error
				plan, err = faults.Random(seed, procs, faults.Options{
					CrashRate:     0.15,
					StragglerRate: 0.2,
					MaxStall:      4,
					CorruptRate:   0.1,
					Horizon:       steps + 2,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}

			run := func(x Executor) execState {
				reg := obs.NewRegistry()
				x.SetMetrics(reg)
				x.SetProfile(NewProfile())
				if plan != nil {
					x.SetFaultHook(plan)
				}
				return snapshot(x, prog.run(x), reg)
			}

			seq := run(MustNew(model, procs))
			conc := MustNew(model, procs)
			conc.SetConcurrent(true)
			concSt := run(conc)
			virt := run(MustNewVirtual(model, procs))

			label := func(pair string) string {
				return model.String() + "/seed=" + itoa(seed) + "/" + pair
			}
			diffStates(t, label("seq-vs-conc"), seq, concSt)
			diffStates(t, label("seq-vs-virtual"), seq, virt)

			// Uncosted matches on result and cost whenever the program is
			// legal (no conflict): it cannot report verdicts by design.
			if seq.err == nil {
				unc := run(MustNewUncosted(model, procs))
				if unc.err != nil {
					t.Fatalf("%s: uncosted errored on legal program: %v", label("uncosted"), unc.err)
				}
				// Conflict counters are never incremented on a legal run,
				// so the full metric snapshot comparison applies too.
				diffStates(t, label("seq-vs-uncosted"), seq, unc)
			}
			if t.Failed() {
				t.Logf("reproduce with seed=%d model=%s", seed, model)
				return
			}
		}
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestVirtualMatchesMachineOnContractCases mirrors the hand-written
// contract cases from pram_test.go on the VirtualMachine: the verdict
// kinds, the memory-untouched-on-conflict rule, and the not-charged rule.
func TestVirtualMatchesMachineOnContractCases(t *testing.T) {
	// EREW concurrent read -> read conflict.
	vm := MustNewVirtual(EREW, 4)
	a := vm.Alloc(1)
	err := vm.Step(2, func(p *Proc) { p.Read(a) })
	var ce *ConflictError
	if !errors.As(err, &ce) || ce.Kind != "read" || ce.Addr != a {
		t.Fatalf("EREW read conflict: got %v", err)
	}
	if vm.Time() != 0 {
		t.Fatalf("conflicting step was charged: Time=%d", vm.Time())
	}

	// CREW write conflict leaves memory unchanged.
	vm = MustNewVirtual(CREW, 4)
	a = vm.Alloc(1)
	vm.Store(a, 42)
	err = vm.Step(2, func(p *Proc) { p.Write(a, int64(p.ID)) })
	if !errors.As(err, &ce) || ce.Kind != "write" {
		t.Fatalf("CREW write conflict: got %v", err)
	}
	if got := vm.Load(a); got != 42 {
		t.Fatalf("memory changed on conflict: %d", got)
	}

	// CRCW-Arbitrary: lowest processor wins.
	vm = MustNewVirtual(CRCWArbitrary, 8)
	a = vm.Alloc(1)
	if err := vm.Step(8, func(p *Proc) { p.Write(a, int64(100+p.ID)) }); err != nil {
		t.Fatal(err)
	}
	if got := vm.Load(a); got != 100 {
		t.Fatalf("CRCW-Arbitrary winner: got %d, want 100", got)
	}

	// CRCW-Common: same value ok, different values conflict.
	vm = MustNewVirtual(CRCWCommon, 4)
	a = vm.Alloc(1)
	if err := vm.Step(4, func(p *Proc) { p.Write(a, 9) }); err != nil {
		t.Fatal(err)
	}
	err = vm.Step(4, func(p *Proc) { p.Write(a, int64(p.ID)) })
	if !errors.As(err, &ce) || ce.Kind != "write" {
		t.Fatalf("CRCW-Common differing values: got %v", err)
	}
}

// TestUncostedPriorityWriteSemantics pins the Uncosted executor to the
// same write-resolution rules as the tracing executors: first processor
// wins across processors, last write wins within a processor.
func TestUncostedPriorityWriteSemantics(t *testing.T) {
	u := MustNewUncosted(CRCWArbitrary, 8)
	a := u.Alloc(1)
	if err := u.Step(8, func(p *Proc) { p.Write(a, int64(100+p.ID)) }); err != nil {
		t.Fatal(err)
	}
	if got := u.Load(a); got != 100 {
		t.Fatalf("cross-processor priority: got %d, want 100", got)
	}
	b := u.Alloc(1)
	if err := u.Step(1, func(p *Proc) { p.Write(b, 1); p.Write(b, 2) }); err != nil {
		t.Fatal(err)
	}
	if got := u.Load(b); got != 2 {
		t.Fatalf("same-processor overwrite: got %d, want 2", got)
	}
}

// TestVirtualMachineReentrantStepPanics is the deterministic half of the
// concurrent-use guard: calling Step from inside a running Step must
// panic rather than corrupt the shared scratch.
func TestVirtualMachineReentrantStepPanics(t *testing.T) {
	vm := MustNewVirtual(CREW, 2)
	vm.Alloc(1)
	defer func() {
		if recover() == nil {
			t.Fatal("reentrant Step did not panic")
		}
	}()
	_ = vm.Step(1, func(p *Proc) {
		_ = vm.Step(1, func(p *Proc) {})
	})
}

// TestVirtualMachineConcurrentUseGuard drives two goroutines into Step at
// once and requires that at least one of them panics with the guard
// message. It runs under `make race` (internal/pram is in the race
// target), so the guard itself is also checked for data races.
func TestVirtualMachineConcurrentUseGuard(t *testing.T) {
	vm := MustNewVirtual(CREW, 2)
	addr := vm.Alloc(1)
	start := make(chan struct{})
	inside := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan bool, 2)

	// First goroutine parks inside a Step body; the second then calls
	// Step and must hit the CAS guard.
	go func() {
		defer func() { panicked <- recover() != nil }()
		<-start
		_ = vm.Step(1, func(p *Proc) {
			close(inside)
			<-release
			p.Write(addr, 1)
		})
	}()
	go func() {
		defer func() { panicked <- recover() != nil }()
		<-start
		<-inside
		defer close(release)
		_ = vm.Step(1, func(p *Proc) {})
	}()
	close(start)
	a, b := <-panicked, <-panicked
	if !a && !b {
		t.Fatal("concurrent Step calls did not trip the guard")
	}
}

// TestExecutorKindRoundTrip covers the flag plumbing used by
// cmd/coopbench and cmd/plquery: every kind with a flag spelling parses
// back to itself and builds, so no accepted -executor value can reach
// MustNewExecutor only to panic there.
func TestExecutorKindRoundTrip(t *testing.T) {
	var names []string
	for k := ExecutorKind(0); !strings.HasPrefix(k.String(), "ExecutorKind("); k++ {
		name := k.String()
		names = append(names, name)
		got, err := ParseExecutorKind(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Fatalf("round trip: %v -> %q -> %v", k, name, got)
		}
		x, err := NewExecutor(k, CREW, 4)
		if err != nil {
			t.Fatalf("ParseExecutorKind accepts %q but NewExecutor refuses it: %v", name, err)
		}
		if x.Procs() != 4 || x.Model() != CREW {
			t.Fatalf("NewExecutor(%v) misconfigured: procs=%d model=%v", k, x.Procs(), x.Model())
		}
	}
	if want := []string{"barrier", "virtual", "uncosted"}; !slices.Equal(names, want) {
		t.Fatalf("executor names %v, want %v", names, want)
	}
	// "wall" names no simulated machine: the parser rejects it and says
	// which names it takes.
	if _, err := ParseExecutorKind("wall"); err == nil {
		t.Fatal(`ParseExecutorKind accepted "wall"`)
	} else {
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not list executor %q", err, name)
			}
		}
	}
	if _, err := ParseExecutorKind("warp"); err == nil {
		t.Fatal("unknown executor name accepted")
	}
	if _, err := NewExecutor(KindVirtual, CREW, 0); err == nil {
		t.Fatal("NewExecutor accepted zero processors")
	}
}
