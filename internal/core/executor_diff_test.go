package core

import (
	"fmt"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/faults"
	"fraccascade/internal/pram"
	"fraccascade/internal/tree"
)

// pramOutcome captures everything observable about one SearchExplicitPRAM
// run for cross-executor comparison, including a host-side panic (possible
// under fault injection when a hop window loses its winner), so that both
// executors can be required to fail identically, not just succeed
// identically.
type pramOutcome struct {
	results  []string // Key/Payload per path node, "" when errored
	report   PRAMSearchReport
	err      string
	panicMsg string
	time     int
	work     int64
	skipped  int64
	peak     int
	profile  string
	phases   map[string]pram.PhaseStats
}

func runSearchPRAM(st *Structure, x pram.Executor, hook pram.FaultHook, y catalog.Key, path []tree.NodeID, p int) (out pramOutcome) {
	if hook != nil {
		x.SetFaultHook(hook)
	}
	prof := pram.NewProfile()
	x.SetProfile(prof)
	func() {
		defer func() {
			if r := recover(); r != nil {
				out.panicMsg = fmt.Sprint(r)
			}
		}()
		results, rep, err := st.SearchExplicitPRAM(x, y, path, p)
		out.report = rep
		if err != nil {
			out.err = err.Error()
			return
		}
		for _, r := range results {
			out.results = append(out.results, fmt.Sprintf("%d/%d/%d", r.Node, r.Key, r.Payload))
		}
	}()
	out.time = x.Time()
	out.work = x.Work()
	out.skipped = x.Skipped()
	out.peak = x.PeakActive()
	out.profile = prof.String()
	out.phases = make(map[string]pram.PhaseStats)
	for _, pr := range prof.Phases() {
		out.phases[pr.Label] = pr.PhaseStats
	}
	return out
}

func compareOutcomes(t *testing.T, label string, a, b pramOutcome) {
	t.Helper()
	if a.err != b.err || a.panicMsg != b.panicMsg {
		t.Fatalf("%s: failure mismatch: err %q/%q panic %q/%q", label, a.err, b.err, a.panicMsg, b.panicMsg)
	}
	if a.time != b.time || a.work != b.work || a.skipped != b.skipped || a.peak != b.peak {
		t.Fatalf("%s: cost mismatch: time %d/%d work %d/%d skipped %d/%d peak %d/%d",
			label, a.time, b.time, a.work, b.work, a.skipped, b.skipped, a.peak, b.peak)
	}
	if a.report != b.report {
		t.Fatalf("%s: report mismatch: %+v vs %+v", label, a.report, b.report)
	}
	if len(a.results) != len(b.results) {
		t.Fatalf("%s: result lengths %d vs %d", label, len(a.results), len(b.results))
	}
	for i := range a.results {
		if a.results[i] != b.results[i] {
			t.Fatalf("%s: result %d differs: %s vs %s", label, i, a.results[i], b.results[i])
		}
	}
	if a.profile != b.profile {
		t.Fatalf("%s: phase profiles differ:\n%s\nvs\n%s", label, a.profile, b.profile)
	}
}

// checkPhaseDecomposition ties the profiler to the search's own step
// report: the sum of phase steps is exactly the machine's Time(), and each
// phase equals the corresponding report component.
func checkPhaseDecomposition(t *testing.T, label string, o pramOutcome) {
	t.Helper()
	sum := 0
	for _, ps := range o.phases {
		sum += ps.Steps
	}
	if sum != o.time {
		t.Fatalf("%s: phase steps sum to %d, Time is %d:\n%s", label, sum, o.time, o.profile)
	}
	if got := o.phases["root-coop"].Steps; got != o.report.RootSteps {
		t.Fatalf("%s: root-coop phase %d != RootSteps %d", label, got, o.report.RootSteps)
	}
	if got := o.phases["hop-descent"].Steps; got != o.report.HopSteps {
		t.Fatalf("%s: hop-descent phase %d != HopSteps %d", label, got, o.report.HopSteps)
	}
	if got := o.phases["seq-tail"].Steps; got != o.report.SeqSteps {
		t.Fatalf("%s: seq-tail phase %d != SeqSteps %d", label, got, o.report.SeqSteps)
	}
}

// TestSearchExplicitPRAMExecutorDifferential is the end-to-end half of the
// executor harness: complete cooperative searches must produce identical
// results, step reports, work, and peak processor counts on the sequential
// Machine, the goroutine-barrier Machine, and the VirtualMachine. With
// this in place the E17 experiment numbers are executor-invariant by
// construction and the benchmarks can default to the fast virtual
// executor.
func TestSearchExplicitPRAMExecutorDifferential(t *testing.T) {
	st, _, rng := buildStructure(t, 1<<5, 1500, 430, Config{})
	tr := st.Tree()
	oracle := st.Cascade()
	for _, p := range []int{1, 4, 17, 300} {
		for q := 0; q < 8; q++ {
			leaf := tree.NodeID(tr.N() - 1 - rng.Intn(1<<5))
			path := tr.RootPath(leaf)
			y := catalog.Key(rng.Intn(8000))
			label := fmt.Sprintf("p=%d q=%d y=%d", p, q, y)

			seq := runSearchPRAM(st, pram.MustNew(pram.CREW, 1<<20), nil, y, path, p)
			barrier := pram.MustNew(pram.CREW, 1<<20)
			barrier.SetConcurrent(true)
			conc := runSearchPRAM(st, barrier, nil, y, path, p)
			virt := runSearchPRAM(st, pram.MustNewVirtual(pram.CREW, 1<<20), nil, y, path, p)

			compareOutcomes(t, label+"/seq-vs-barrier", seq, conc)
			compareOutcomes(t, label+"/seq-vs-virtual", seq, virt)
			if seq.err != "" || seq.panicMsg != "" {
				t.Fatalf("%s: fault-free search failed: err=%q panic=%q", label, seq.err, seq.panicMsg)
			}
			checkPhaseDecomposition(t, label, seq)
			// And the shared answer must be the true one.
			want, err := oracle.SearchPath(y, path)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				got := fmt.Sprintf("%d/%d/%d", w.Node, w.Key, w.Payload)
				if seq.results[i] != got {
					t.Fatalf("%s: node %d: executors agree on %s but oracle says %s", label, path[i], seq.results[i], got)
				}
			}
		}
	}
}

// TestSearchExplicitPRAMFaultExecutorDifferential replays seeded fault
// plans through end-to-end machine searches on both the barrier and the
// virtual executor: the hook must fire at the same (step, processor)
// points on both, so Skipped(), the step report, and the outcome — answers
// when the search survives, the identical error or host failure when it
// does not — must match exactly. Plans here are stall-only: a stalled
// processor misses steps exactly like a crashed one, but the probe
// addresses the search derives from read-back values stay in range, so
// the differential is well-defined for every seed.
//
// Alongside each plan the analytic degraded search runs under the same
// census; it plans around the failures instead of replaying them, so its
// answers must equal the fault-free oracle whenever one processor
// survives — tying the machine-level skip accounting to the
// degraded-search outcome for the same fault plan.
func TestSearchExplicitPRAMFaultExecutorDifferential(t *testing.T) {
	st, _, rng := buildStructure(t, 1<<5, 1500, 431, Config{})
	tr := st.Tree()
	oracle := st.Cascade()
	var totalSkipped int64
	for seed := int64(1); seed <= 12; seed++ {
		p := []int{4, 16, 64}[int(seed)%3]
		plan, err := faults.Random(seed, p, faults.Options{
			StragglerRate: 0.3,
			MaxStall:      4,
			Horizon:       40,
		})
		if err != nil {
			t.Fatal(err)
		}
		leaf := tree.NodeID(tr.N() - 1 - rng.Intn(1<<5))
		path := tr.RootPath(leaf)
		y := catalog.Key(rng.Intn(8000))
		label := fmt.Sprintf("seed=%d p=%d y=%d", seed, p, y)
		t.Logf("%s", label)

		barrier := pram.MustNew(pram.CREW, 1<<20)
		barrier.SetConcurrent(true)
		conc := runSearchPRAM(st, barrier, plan, y, path, p)
		virt := runSearchPRAM(st, pram.MustNewVirtual(pram.CREW, 1<<20), plan, y, path, p)
		compareOutcomes(t, label, conc, virt)
		totalSkipped += virt.skipped

		// Degraded search under the same plan-as-census: answers equal the
		// fault-free oracle as long as a processor survives.
		if plan.MinLive(40) >= 1 {
			got, _, err := st.SearchExplicitDegraded(y, path, p, plan)
			if err != nil {
				t.Fatalf("%s: degraded search: %v", label, err)
			}
			want, err := oracle.SearchPath(y, path)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i].Key != want[i].Key || got[i].Payload != want[i].Payload {
					t.Fatalf("%s: degraded result %d = (%d,%d), oracle (%d,%d)",
						label, i, got[i].Key, got[i].Payload, want[i].Key, want[i].Payload)
				}
			}
		}
	}
	if totalSkipped == 0 {
		t.Fatal("no processor-steps were skipped across any seed: the fault plans never fired and the differential is vacuous")
	}
}
