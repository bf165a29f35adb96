package cascade

import (
	"math/rand"
	"reflect"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/tree"
)

// TestPartsRoundTrip pins the round trip a snapshot load makes at this
// layer: the parts a Structure reports as its inputs — the tree, each
// node's native catalog, the stride and the bidirectional flag — build a
// structure equal to it, at any parallelism, for default and explicit
// strides on binary and degree-3 trees. A Build that aliased or rewrote a
// native catalog, or a default stride that did not survive being stored
// explicitly, would break it.
func TestPartsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	binary, err := tree.NewBalancedBinary(16)
	if err != nil {
		t.Fatal(err)
	}
	ternary, err := tree.NewRandom(40, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, bt := range []*tree.Tree{binary, ternary} {
		cats := randCatalogs(bt, 600, rng)
		for _, opts := range []Options{{}, {Bidirectional: true}, {Stride: 8, Bidirectional: true}} {
			s, err := Build(bt, cats, opts)
			if err != nil {
				t.Fatal(err)
			}
			native := make([]catalog.Catalog, bt.N())
			for v := range native {
				native[v] = s.Native(tree.NodeID(v))
			}
			for _, par := range []int{1, 0} {
				got, err := Build(s.Tree(), native, Options{Stride: s.Stride(), Bidirectional: s.Bidirectional(), Parallelism: par})
				if err != nil {
					t.Fatalf("degree %d %+v par %d: rebuild: %v", bt.MaxDegree(), opts, par, err)
				}
				if !reflect.DeepEqual(got, s) {
					t.Fatalf("degree %d %+v par %d: rebuild from parts differs", bt.MaxDegree(), opts, par)
				}
			}
		}
	}
}
