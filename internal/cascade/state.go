package cascade

import (
	"fmt"
	"sync"

	"fraccascade/internal/catalog"
	"fraccascade/internal/tree"
	"fraccascade/internal/workpool"
)

// Parts is the complete built state of a Structure, exposed for
// serialization (see internal/snapshot). The slices alias the structure's
// own backing arrays; callers must treat them as read-only. BuildStats are
// deliberately absent: FromParts recomputes them, so they cannot drift from
// the catalogs they describe.
type Parts struct {
	// Stride is the sampling stride the structure was built with.
	Stride int
	// Bidirectional reports whether the top-down merge pass ran.
	Bidirectional bool
	// Native[v] is node v's native catalog.
	Native []catalog.Catalog
	// Aug[v] is node v's augmented catalog.
	Aug []catalog.Catalog
	// Bridges[v][ci][j] is the position in child ci's augmented catalog of
	// the smallest entry with key >= Aug[v].Key(j); nil at leaves.
	Bridges [][][]int32
}

// ExportParts returns the structure's built state for serialization.
func (s *Structure) ExportParts() Parts {
	return Parts{
		Stride:        s.stride,
		Bidirectional: s.bidir,
		Native:        s.native,
		Aug:           s.aug,
		Bridges:       s.bridges,
	}
}

// FromParts reassembles a Structure over tree t from previously exported
// parts, without re-running the cascade merge. Every invariant a search
// relies on is validated — catalog terminals, bridge array shapes, bridge
// monotonicity (property 3), and bridge range — so corrupted or mismatched
// parts are reported as an error, never as a later panic or a silently
// wrong answer. Build statistics are recomputed from the catalogs.
func FromParts(t *tree.Tree, p Parts) (*Structure, error) {
	return FromPartsParallel(t, p, 1)
}

// FromPartsParallel is FromParts with the per-node invariant validation
// fanned out over parallelism host workers (0 = all cores). Validation is
// read-only per node, so the outcome is identical for every parallelism
// value; when several nodes are invalid, the error for the lowest node
// index is reported, matching the sequential scan.
func FromPartsParallel(t *tree.Tree, p Parts, parallelism int) (*Structure, error) {
	if t == nil {
		return nil, fmt.Errorf("cascade: nil tree")
	}
	n := t.N()
	if len(p.Native) != n || len(p.Aug) != n || len(p.Bridges) != n {
		return nil, fmt.Errorf("cascade: parts for %d/%d/%d nodes, tree has %d",
			len(p.Native), len(p.Aug), len(p.Bridges), n)
	}
	if p.Stride < 2 {
		return nil, fmt.Errorf("cascade: stride %d < 2", p.Stride)
	}
	s := &Structure{
		t:       t,
		native:  p.Native,
		aug:     p.Aug,
		bridges: p.Bridges,
		b:       p.Stride - 1,
		stride:  p.Stride,
		bidir:   p.Bidirectional,
	}
	var (
		errMu   sync.Mutex
		errNode = n
		errVal  error
	)
	report := func(v int, err error) {
		errMu.Lock()
		if v < errNode {
			errNode, errVal = v, err
		}
		errMu.Unlock()
	}
	workpool.ForEach(parallelism, n, 64, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if err := validateNode(t, p, v); err != nil {
				report(v, err)
				return
			}
		}
	})
	if errVal != nil {
		return nil, errVal
	}
	// Recompute statistics; Rounds mirrors the Build schedule (height+1
	// bottom-up rounds, height top-down rounds when bidirectional, one
	// bridge round).
	s.stats.Rounds = t.Height() + 2
	if s.bidir {
		s.stats.Rounds += t.Height()
	}
	for v := 0; v < n; v++ {
		s.stats.NativeEntries += int64(p.Native[v].Len())
		a := int64(p.Aug[v].Len())
		s.stats.AugEntries += a
		s.stats.Work += a
	}
	return s, nil
}

// validateNode checks every search-bearing invariant of node v in isolation:
// catalog terminals, bridge array shapes, bridge monotonicity (property 3),
// and bridge range. It reads only v's own parts plus the lengths of its
// children's catalogs, so nodes validate independently.
func validateNode(t *tree.Tree, p Parts, v int) error {
	for _, c := range []catalog.Catalog{p.Native[v], p.Aug[v]} {
		if c.Len() == 0 {
			return fmt.Errorf("cascade: node %d: empty catalog", v)
		}
		if last := c.At(c.Len() - 1); last.Key != catalog.PlusInf || !last.Native {
			return fmt.Errorf("cascade: node %d: catalog missing native +inf terminal", v)
		}
	}
	ch := t.Children(tree.NodeID(v))
	if len(ch) == 0 {
		if len(p.Bridges[v]) != 0 {
			return fmt.Errorf("cascade: leaf %d has %d bridge arrays", v, len(p.Bridges[v]))
		}
		return nil
	}
	if len(p.Bridges[v]) != len(ch) {
		return fmt.Errorf("cascade: node %d: %d bridge arrays for %d children", v, len(p.Bridges[v]), len(ch))
	}
	avLen := p.Aug[v].Len()
	for ci, c := range ch {
		br := p.Bridges[v][ci]
		if len(br) != avLen {
			return fmt.Errorf("cascade: node %d child %d: %d bridges for %d entries", v, ci, len(br), avLen)
		}
		limit := int32(p.Aug[c].Len())
		prev := int32(0)
		for j, b := range br {
			if b < prev || b >= limit {
				return fmt.Errorf("cascade: node %d child %d pos %d: bridge %d outside [%d, %d)", v, ci, j, b, prev, limit)
			}
			prev = b
		}
	}
	return nil
}
