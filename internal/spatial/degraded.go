package spatial

import "fmt"

// Census reports how many processor slots are live at a synchronous step.
// It is declared consumer-side (this package does not import internal/core)
// so that faults.Plan — or any fault schedule — satisfies it structurally.
type Census interface {
	LiveAt(step int) int
}

// DegradedStats extends Stats with graceful-degradation accounting.
type DegradedStats struct {
	Stats
	// StartP is the processor budget the search was launched with.
	StartP int
	// MinLiveP is the smallest live processor count planned for.
	MinLiveP int
	// Redrives counts hop-geometry re-derivations: iterations at which the
	// surviving count changed the hop height or per-node processor share.
	Redrives int
}

// LocateCoopDegraded is LocateCoop under processor failures: the census is
// consulted between hops; when the surviving count p′ < p changes the hop
// geometry, the hop height Θ(log p′) and the per-surface processor share
// are re-derived and the search continues, preserving the located cell.
// A nil census reproduces LocateCoop exactly.
func (l *Locator) LocateCoopDegraded(x, y, z int64, p int, census Census) (int, DegradedStats, error) {
	var ds DegradedStats
	if err := l.checkQuery(x, y, z); err != nil {
		return 0, ds, err
	}
	if p < 1 {
		p = 1
	}
	ds.StartP = p
	if census != nil {
		live := census.LiveAt(0)
		if live < 1 {
			return 0, ds, fmt.Errorf("spatial: no live processors at step 0")
		}
		if live < p {
			p = live
		}
	}
	ds.MinLiveP = p
	if l.r == 1 {
		return 1, ds, nil
	}
	stats := &ds.Stats
	h := l.hopHeight(p)
	br := bracket{maxEL: 0, minER: int32(l.r)}
	v := l.t.Root()
	for !l.t.IsLeaf(v) {
		if census != nil {
			live := census.LiveAt(stats.Steps)
			if live < 1 {
				return 0, ds, fmt.Errorf("spatial: no live processors at step %d", stats.Steps)
			}
			if live < ds.MinLiveP {
				ds.MinLiveP = live
			}
			if live != p {
				if nh := l.hopHeight(live); nh != h {
					h = nh
					ds.Redrives++
				}
				p = live
			}
		}
		var err error
		v, err = l.locateStep(v, x, y, z, p, h, &br, stats)
		if err != nil {
			return 0, ds, err
		}
	}
	cell := int(l.cell[v])
	if cell > l.r {
		return 0, ds, fmt.Errorf("spatial: query landed in dummy cell %d", cell)
	}
	return cell, ds, nil
}
