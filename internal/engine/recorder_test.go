package engine

import (
	"context"
	"testing"
	"time"

	"fraccascade/internal/obs"
)

// TestFlightRecorderPropagation pins the correlation chain: a request id
// attached to the batch context must surface on every Answer, on every
// span (query and phase children), and on every flight record, with the
// record sharing the query span's id; records must carry the host wall
// time and the phase step split.
func TestFlightRecorderPropagation(t *testing.T) {
	fx := buildFixture(t, 31, 1<<4, 1500)
	rec := obs.NewFlightRecorder(obs.FlightRecorderConfig{Reservoir: 256})
	ring := obs.NewRing(4096)
	e := fx.newEngine(t, Config{Procs: 1024, Tracer: ring, Recorder: rec})

	ctx := obs.WithRequestID(context.Background(), "req-abc123")
	rng := seededRNG(t, 32)
	qs := make([]Query, 16)
	for i := range qs {
		qs[i] = fx.randomQuery(rng)
	}
	answers, rep, err := e.ExecuteBatchContext(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("unexpected errors: %+v", rep)
	}
	for i, a := range answers {
		if a.RequestID != "req-abc123" {
			t.Fatalf("answer %d request id = %q", i, a.RequestID)
		}
		if a.WallNS <= 0 {
			t.Fatalf("answer %d wall ns = %d, want > 0 with a recorder attached", i, a.WallNS)
		}
	}

	spanIDs := map[uint64]bool{}
	for _, s := range ring.Spans() {
		if s.RequestID != "req-abc123" {
			t.Fatalf("span %d request id = %q", s.ID, s.RequestID)
		}
		if s.Parent == 0 {
			spanIDs[s.ID] = true
		}
	}
	recs := rec.Records()
	if len(recs) != len(qs) {
		t.Fatalf("retained %d records, want %d", len(recs), len(qs))
	}
	for _, r := range recs {
		if !spanIDs[r.ID] {
			t.Fatalf("record id %d has no matching query span", r.ID)
		}
		if r.RequestID != "req-abc123" || r.Batch == 0 || r.Kind == "" {
			t.Fatalf("record incomplete: %+v", r)
		}
		if r.WallNS <= 0 || r.Time == 0 {
			t.Fatalf("record %d missing wall/time: %+v", r.ID, r)
		}
		if r.Err == "" && r.Steps > 0 {
			sum := 0
			for _, p := range r.Phases {
				sum += p.Steps
			}
			if sum != r.Steps {
				t.Fatalf("record %d phase steps sum %d != steps %d", r.ID, sum, r.Steps)
			}
		}
	}

	// Without a context request id, nothing is stamped.
	answers, _, err = e.ExecuteBatch(qs[:4])
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		if a.RequestID != "" {
			t.Fatalf("answer %d request id = %q without a context id", i, a.RequestID)
		}
	}
}

// TestFlightRecorderErrorAgreement pins the failure-count contract the
// serving layer relies on: the batch report, the recorder's error pool,
// and the spans' error attributes must all count the same failures, with
// identical error text on each surface.
func TestFlightRecorderErrorAgreement(t *testing.T) {
	fx := buildFixture(t, 35, 1<<4, 1000)
	rec := obs.NewFlightRecorder(obs.FlightRecorderConfig{Reservoir: 64})
	ring := obs.NewRing(1024)
	e := fx.newEngine(t, Config{Procs: 256, Tracer: ring, Recorder: rec})

	rng := seededRNG(t, 36)
	qs := []Query{
		fx.randomQuery(rng),
		{Kind: KindCatalog, Shard: 99, Key: 1, Path: randomPath(fx.trees[0], rng)}, // shard out of range
		{Kind: Kind(42)}, // unknown kind
		fx.randomQuery(rng),
	}
	_, rep, err := e.ExecuteBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 2 {
		t.Fatalf("report errors = %d, want 2", rep.Errors)
	}
	spanErrs := map[string]bool{}
	n := 0
	for _, s := range ring.Spans() {
		if s.Parent == 0 && s.Err != "" {
			spanErrs[s.Err] = true
			n++
		}
	}
	if n != 2 {
		t.Fatalf("spans carry %d errors, want 2", n)
	}
	if st := rec.Stats(); st.Errored != 2 {
		t.Fatalf("recorder errored = %d, want 2", st.Errored)
	}
	recErrs := 0
	for _, r := range rec.Records() {
		if r.Err != "" {
			recErrs++
			if !spanErrs[r.Err] {
				t.Fatalf("record error %q not present on any span", r.Err)
			}
		}
	}
	if recErrs != 2 {
		t.Fatalf("retained %d error records, want 2", recErrs)
	}

	// Context-cancelled batches surface the same way on every surface.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, rep, err = e.ExecuteBatchContext(ctx, qs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 2 {
		t.Fatalf("cancelled batch report errors = %d, want 2", rep.Errors)
	}
	if st := rec.Stats(); st.Errored != 4 {
		t.Fatalf("recorder errored = %d after cancelled batch, want 4", st.Errored)
	}
}
