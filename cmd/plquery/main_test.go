package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"fraccascade/internal/core"
	"fraccascade/internal/obs"
	"fraccascade/internal/pointloc"
	"fraccascade/internal/subdivision"
)

// TestRunBatchedTraceJSONLRoundTrip drives the batched path with a trace
// writer and decodes every JSONL line back into an obs.Span: query spans and
// their per-phase children must survive the encode/decode round trip with
// ids, phase labels, step windows, and processor shares intact.
func TestRunBatchedTraceJSONLRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, err := subdivision.Generate(32, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := pointloc.Build(s, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	runBatched(s, loc, rng, 256, 48, 8, obs.NewRegistry(), &buf)

	var spans []obs.Span
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var sp obs.Span
		if err := dec.Decode(&sp); err != nil {
			t.Fatalf("decoding span %d: %v", len(spans), err)
		}
		spans = append(spans, sp)
	}

	parents := map[uint64]obs.Span{}
	var queries, children int
	for _, sp := range spans {
		if sp.StepHi-sp.StepLo != uint64(sp.Steps) {
			t.Fatalf("span %d: window [%d,%d) inconsistent with steps=%d", sp.ID, sp.StepLo, sp.StepHi, sp.Steps)
		}
		if sp.Parent == 0 {
			queries++
			if sp.Kind != "point" || sp.P < 1 || sp.Phase != "" {
				t.Fatalf("query span malformed: %+v", sp)
			}
			parents[sp.ID] = sp
		} else {
			children++
			if sp.Phase == "" {
				t.Fatalf("child span %d lost its phase label: %+v", sp.ID, sp)
			}
		}
	}
	// 48 batched queries plus the one-at-a-time baseline's absence: the
	// sequential path emits no spans, so exactly the batched queries trace.
	if queries != 48 {
		t.Fatalf("query spans = %d, want 48", queries)
	}
	if children == 0 {
		t.Fatal("no per-phase child spans were traced")
	}
	// Children reference existing parents and partition their windows.
	phased := map[uint64]int{}
	for _, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		par, ok := parents[sp.Parent]
		if !ok {
			t.Fatalf("child %d references unknown parent %d", sp.ID, sp.Parent)
		}
		if sp.StepLo < par.StepLo || sp.StepHi > par.StepHi {
			t.Fatalf("child %d window [%d,%d) escapes parent [%d,%d)",
				sp.ID, sp.StepLo, sp.StepHi, par.StepLo, par.StepHi)
		}
		phased[sp.Parent] += sp.Steps
	}
	for id, sum := range phased {
		if sum != parents[id].Steps {
			t.Fatalf("parent %d: children sum to %d steps, parent has %d", id, sum, parents[id].Steps)
		}
	}
}
