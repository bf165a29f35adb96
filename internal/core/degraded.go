package core

import (
	"fmt"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/tree"
)

// Census reports how many processor slots are still live at a given
// synchronous step. It is the analytic-side view of a fault plan: the
// cost-model searches do not execute on a pram.Machine, so instead of
// skipping dead processors write by write they consult the census between
// hops and re-plan for the survivors. faults.Plan satisfies Census.
type Census interface {
	// LiveAt returns the number of processors able to act at the given
	// step. Implementations may count transiently stalled processors as
	// dead for the steps they miss.
	LiveAt(step int) int
}

// DegradedStats extends Stats with graceful-degradation accounting.
type DegradedStats struct {
	Stats
	// StartP is the processor budget the search was launched with.
	StartP int
	// MinLiveP is the smallest live processor count the search planned
	// for at any point; the Theorem 1 shape degrades to
	// O((log n)/log MinLiveP) steps.
	MinLiveP int
	// Redrives counts substructure re-derivations: hops at which the
	// surviving processor count selected a different T_i than the one the
	// search was running in, forcing new window widths, skeleton stride,
	// and truncation depth.
	Redrives int
}

// searchControl carries the census threaded through the explicit search
// loop by SearchExplicitDegraded. A nil control — or a nil census —
// reproduces the plain SearchExplicit behaviour exactly.
type searchControl struct {
	census Census
	ds     *DegradedStats
}

// check runs between hops (and before the first): it consults the census
// and re-derives the substructure for the surviving processor count. It
// returns the possibly-switched substructure and the live processor count
// to plan the next hop with.
func (ctl *searchControl) check(st *Structure, sub *Substructure, p int, stats *Stats) (*Substructure, int, error) {
	if ctl.census == nil {
		return sub, p, nil
	}
	live := ctl.census.LiveAt(stats.Steps)
	if live < 1 {
		return sub, p, fmt.Errorf("core: no live processors at step %d", stats.Steps)
	}
	if live < ctl.ds.MinLiveP {
		ctl.ds.MinLiveP = live
	}
	if live != p {
		si := st.SelectSub(live)
		if st.subs[si] != sub {
			// The current node need not be a block root of the new
			// T_i; BlockAt then returns nil and the loop descends
			// sequentially until it realigns on a block boundary.
			sub = st.subs[si]
			stats.Sub = si
			ctl.ds.Redrives++
		}
		p = live
	}
	return sub, p, nil
}

// SearchExplicitDegraded is SearchExplicit under processor failures: the
// census is consulted between hops, and whenever the surviving count p′
// has left the current substructure's service range the search re-derives
// the substructure index, window widths, and truncation depth for p′ and
// continues. Answers are identical to the fault-free search as long as at
// least one processor survives; the step count degrades gracefully to the
// Theorem 1 shape for the smallest surviving count.
func (st *Structure) SearchExplicitDegraded(y catalog.Key, path []tree.NodeID, p int, census Census) ([]cascade.Result, DegradedStats, error) {
	if err := st.t.ValidatePath(path); err != nil {
		return nil, DegradedStats{}, err
	}
	if path[0] != st.t.Root() {
		return nil, DegradedStats{}, fmt.Errorf("core: path must start at the root")
	}
	if p < 1 {
		p = 1
	}
	start := p
	if census != nil {
		live := census.LiveAt(0)
		if live < 1 {
			return nil, DegradedStats{StartP: start}, fmt.Errorf("core: no live processors at step 0")
		}
		if live < p {
			p = live
		}
	}
	ds := DegradedStats{StartP: start, MinLiveP: p}
	si := st.SelectSub(p)
	sub := st.subs[si]
	ds.Stats = Stats{Sub: si, P: start}
	ctl := &searchControl{census: census, ds: &ds}
	results, err := st.searchSegmentCtl(sub, y, path, p, &ds.Stats, ctl)
	if err != nil {
		return nil, ds, err
	}
	return results, ds, nil
}
