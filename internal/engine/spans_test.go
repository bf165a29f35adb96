package engine

import (
	"context"
	"testing"

	"fraccascade/internal/obs"
)

// spanCollector gathers the spans the reference loop emits.
type spanCollector struct{ spans []obs.Span }

func (c *spanCollector) Emit(s obs.Span) { c.spans = append(c.spans, s) }

// referenceEmitter carries the engine state the old span loop read.
type referenceEmitter struct {
	tracer   *spanCollector
	qid, bid uint64
}

// observe is the span emission loop observeBatch ran when it emitted an
// obs.Span and its phase child spans per query, kept (apart from the
// flight-record branch and plain counters for the atomic ones) as the
// reference the spans derived from flight records must equal.
func (e *referenceEmitter) observe(answers []Answer, stepBase uint64) {
	e.bid++
	bid := e.bid
	for i := range answers {
		a := &answers[i]
		e.qid++
		qid := e.qid
		var cacheOutcome, errText string
		if a.Query.Kind == KindCatalog && a.Err == nil {
			switch {
			case a.CacheHit:
				cacheOutcome = "hit"
			case a.CacheStale:
				cacheOutcome = "stale"
			default:
				cacheOutcome = "miss"
			}
		}
		if a.Err != nil {
			errText = a.Err.Error()
		}
		s := obs.Span{
			ID:        qid,
			Batch:     bid,
			Kind:      a.Query.Kind.String(),
			Shard:     a.Query.Shard,
			P:         a.P,
			Rounds:    a.Rounds,
			Steps:     a.Steps,
			StepLo:    stepBase,
			StepHi:    stepBase + uint64(a.Steps),
			Cache:     cacheOutcome,
			CacheHit:  a.CacheHit,
			Err:       errText,
			RequestID: a.RequestID,
		}
		e.tracer.Emit(s)
		// Per-phase child spans partition the parent's window in the fixed
		// phase order, each carrying the parent's id.
		off := s.StepLo
		for slot, label := range PhaseLabels {
			n := a.PhaseSteps[slot]
			if n == 0 {
				continue
			}
			e.qid++
			e.tracer.Emit(obs.Span{
				ID:        e.qid,
				Batch:     bid,
				Parent:    s.ID,
				Kind:      s.Kind,
				Shard:     s.Shard,
				Phase:     label,
				P:         a.P,
				Steps:     n,
				StepLo:    off,
				StepHi:    off + uint64(n),
				RequestID: a.RequestID,
			})
			off += uint64(n)
		}
	}
}

// TestDerivedSpansMatchReference runs 1024 seeded queries on one worker —
// catalog hits and misses, point and spatial queries, and
// every 7th batch on a cancelled context — and checks that the spans the
// record ring derives equal, field for field and in order, the spans the
// reference loop emits for the same answers.
func TestDerivedSpansMatchReference(t *testing.T) {
	fx := buildFixture(t, 61, 1<<5, 3000)
	ring := obs.NewRing(1 << 12)
	e := fx.newEngine(t, Config{Procs: 1024, Workers: 1, CacheSize: 16, Tracer: ring})
	ref := &referenceEmitter{tracer: &spanCollector{}}
	cancelled, cancel := context.WithCancel(obs.WithRequestID(context.Background(), "ref-cancelled"))
	cancel()
	live := obs.WithRequestID(context.Background(), "ref-live")

	rng := seededRNG(t, 62)
	var stepBase uint64
	seen := map[string]int{}
	for b := 0; b < 64; b++ {
		qs := make([]Query, 16)
		for i := range qs {
			qs[i] = fx.randomQuery(rng)
		}
		ctx := live
		if b%7 == 6 {
			ctx = cancelled
		} else if b%3 == 0 {
			ctx = nil // no request id
		}
		answers, rep, err := e.execute(ctx, qs)
		if err != nil {
			t.Fatal(err)
		}
		ref.observe(answers, stepBase)
		stepBase += uint64(rep.Steps)
		for _, a := range answers {
			switch {
			case a.Err != nil:
				seen["error"]++
			case a.CacheHit:
				seen["hit"]++
			case a.Query.Kind == KindCatalog:
				seen["miss"]++
			default:
				seen[a.Query.Kind.String()]++
			}
		}
	}
	for _, k := range []string{"error", "hit", "miss", "point", "spatial"} {
		if seen[k] == 0 {
			t.Fatalf("workload has no %s queries (%v); the comparison would not cover them", k, seen)
		}
	}

	got, want := ring.Spans(), ref.tracer.spans
	if len(got) != len(want) {
		t.Fatalf("ring derives %d spans, reference emits %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d differs:\n derived   %+v\n reference %+v", i, got[i], want[i])
		}
	}
	t.Logf("%d spans from 1024 queries equal the reference (%v)", len(got), seen)
}
