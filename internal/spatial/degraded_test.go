package spatial

import (
	"math/rand"
	"testing"

	"fraccascade/internal/faults"
)

func TestLocateCoopDegradedMatchesBrute(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := mustGen(t, 20+int(seed)*5, 4, rng)
		l, err := NewLocator(c)
		if err != nil {
			t.Fatal(err)
		}
		p := 4 + rng.Intn(500)
		plan, err := faults.Random(seed*17, p, faults.Options{
			CrashRate:     0.35,
			StragglerRate: 0.35,
			MaxStall:      4,
			Horizon:       64,
		})
		if err != nil {
			t.Fatal(err)
		}
		if plan.MinLive(128) < 1 {
			continue
		}
		for q := 0; q < 30; q++ {
			x, y, z, want := c.RandomInteriorPoint(rng)
			got, ds, err := l.LocateCoopDegraded(x, y, z, p, plan)
			if err != nil {
				t.Fatalf("seed %d (%d,%d,%d): %v\nplan: %v", seed, x, y, z, err, plan.Events())
			}
			if got != want {
				t.Fatalf("seed %d (%d,%d,%d): degraded cell %d != brute %d\nplan: %v",
					seed, x, y, z, got, want, plan.Events())
			}
			if ds.StartP != p || ds.MinLiveP < 1 || ds.MinLiveP > p {
				t.Fatalf("seed %d: degraded stats %+v inconsistent with p=%d", seed, ds, p)
			}
		}
	}
}

func TestLocateCoopDegradedNoFaultsMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	c := mustGen(t, 40, 5, rng)
	l, err := NewLocator(c)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.NewPlan(128)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 30; q++ {
		x, y, z, _ := c.RandomInteriorPoint(rng)
		plain, ps, err := l.LocateCoop(x, y, z, 128)
		if err != nil {
			t.Fatal(err)
		}
		got, ds, err := l.LocateCoopDegraded(x, y, z, 128, plan)
		if err != nil {
			t.Fatal(err)
		}
		if got != plain || ds.Stats != ps || ds.Redrives != 0 {
			t.Fatalf("fault-free degraded (%d, %+v) != plain (%d, %+v)", got, ds, plain, ps)
		}
	}
}
