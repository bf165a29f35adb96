package pointloc

import (
	"testing"

	"fraccascade/internal/core"
	"fraccascade/internal/faults"
)

func TestLocateCoopDegradedMatchesBrute(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		l, s, rng := buildLocator(t, 16+int(seed), 10+int(seed), seed, core.Config{})
		p := 4 + rng.Intn(250)
		plan, err := faults.Random(seed*31, p, faults.Options{
			CrashRate:     0.35,
			StragglerRate: 0.35,
			MaxStall:      4,
			Horizon:       48,
		})
		if err != nil {
			t.Fatal(err)
		}
		if plan.MinLive(96) < 1 {
			continue
		}
		for q := 0; q < 40; q++ {
			pt, want := s.RandomInteriorPoint(rng)
			got, ds, err := l.LocateCoopDegraded(pt, p, plan)
			if err != nil {
				t.Fatalf("seed %d q %v: %v\nplan: %v", seed, pt, err, plan.Events())
			}
			if got != want {
				t.Fatalf("seed %d q %v: degraded region %d != brute %d\nplan: %v",
					seed, pt, got, want, plan.Events())
			}
			if ds.StartP != p || ds.MinLiveP < 1 || ds.MinLiveP > p {
				t.Fatalf("seed %d: degraded stats %+v inconsistent with p=%d", seed, ds, p)
			}
		}
	}
}

func TestLocateCoopDegradedNoFaultsMatchesPlain(t *testing.T) {
	l, s, rng := buildLocator(t, 24, 14, 77, core.Config{})
	plan, err := faults.NewPlan(64)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 30; q++ {
		pt, _ := s.RandomInteriorPoint(rng)
		plain, ps, err := l.LocateCoop(pt, 64)
		if err != nil {
			t.Fatal(err)
		}
		got, ds, err := l.LocateCoopDegraded(pt, 64, plan)
		if err != nil {
			t.Fatal(err)
		}
		if got != plain || ds.Stats != ps || ds.Redrives != 0 {
			t.Fatalf("fault-free degraded (%d, %+v) != plain (%d, %+v)", got, ds, plain, ps)
		}
	}
}

func TestLocateCoopDegradedAllDead(t *testing.T) {
	l, s, rng := buildLocator(t, 16, 10, 79, core.Config{})
	p := 8
	plan, err := faults.NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < p; proc++ {
		if err := plan.Crash(proc, 0); err != nil {
			t.Fatal(err)
		}
	}
	pt, _ := s.RandomInteriorPoint(rng)
	if _, _, err := l.LocateCoopDegraded(pt, p, plan); err == nil {
		t.Error("locate with zero live processors should fail")
	}
}
