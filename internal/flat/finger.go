package flat

import (
	"fmt"

	"fraccascade/internal/cascade"
	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/parallel"
	"fraccascade/internal/tree"
)

// succFromFinger is catalog.SuccFromFinger on node v's flat catalog slice:
// the gallop and bracket binary search follow the identical probe sequence,
// so positions and probe counts — and therefore the Stats charged by
// SearchExplicitFromFinger — are bit-identical to the pointer path's.
func (f *Structure) succFromFinger(v tree.NodeID, y catalog.Key, finger int) (pos, probes int) {
	base := int(f.catStart[v])
	n := f.catLen(v)
	keys := f.keys[base : base+n]
	if finger < 0 {
		finger = 0
	} else if finger >= n {
		finger = n - 1
	}
	var lo, hi int
	probes = 1
	if keys[finger] >= y {
		hi = finger
		step := 1
		for {
			i := finger - step
			if i < 0 {
				lo = -1
				break
			}
			probes++
			if keys[i] < y {
				lo = i
				break
			}
			hi = i
			step <<= 1
		}
	} else {
		lo = finger
		step := 1
		for {
			i := finger + step
			if i >= n-1 {
				// The +∞ terminal always satisfies Key >= y.
				hi = n - 1
				break
			}
			probes++
			if keys[i] >= y {
				hi = i
				break
			}
			lo = i
			step <<= 1
		}
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		probes++
		if keys[mid] >= y {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, probes
}

// SearchExplicitFromFinger mirrors core.SearchExplicitFromFinger on the
// flat layout: the entry position is located by galloping from the finger
// in O(log d) probes for key-distance d, charged as entry rounds; the
// descent below is the ordinary flat machinery, so results are always
// oracle-exact. An out-of-range finger falls back to the full Step-1
// search (used = false).
func (f *Structure) SearchExplicitFromFinger(y catalog.Key, path []tree.NodeID, p, finger int) ([]cascade.Result, core.Stats, bool, error) {
	if err := f.validatePath(path); err != nil {
		return nil, core.Stats{}, false, err
	}
	if path[0] != f.root {
		return nil, core.Stats{}, false, fmt.Errorf("flat: path must start at the root")
	}
	if p < 1 {
		p = 1
	}
	si := f.SelectSub(p)
	stats := core.Stats{Sub: si, P: p}
	out := make([]cascade.Result, len(path))
	if finger < 0 || finger >= f.catLen(path[0]) {
		pos := f.succ(path[0], y)
		rounds := parallel.CoopSearchSteps(f.catLen(path[0]), p)
		stats.RootRounds += rounds
		stats.Steps += rounds
		if err := f.descendFrom(si, y, path, pos, &stats, out); err != nil {
			return nil, stats, false, err
		}
		return out, stats, false, nil
	}
	pos, probes := f.succFromFinger(path[0], y, finger)
	stats.RootRounds += probes
	stats.Steps += probes
	if err := f.descendFrom(si, y, path, pos, &stats, out); err != nil {
		return nil, stats, true, err
	}
	return out, stats, true, nil
}
