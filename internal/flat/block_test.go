package flat

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fraccascade/internal/catalog"
	"fraccascade/internal/core"
	"fraccascade/internal/tree"
)

// TestWindowHoldsMatchesSearch: OpenBlock's O(1) window check holds
// exactly when a search of the window (succInWindow, whose landing
// hopExplicit checks the same way) lands at or before both the window's
// end and the catalog's. Catalogs are random, empty ones
// included; windows lie inside, across either end of, or wholly outside
// the catalog; y sits on, between, below and above the keys.
func TestWindowHoldsMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0F1A7_5000))
	for c := 0; c < 3000; c++ {
		n := rng.Intn(12)
		keys := make([]catalog.Key, n)
		k := catalog.Key(rng.Intn(5))
		for i := range keys {
			k += 2 + 2*catalog.Key(rng.Intn(3)) // even keys: odd y falls between
			keys[i] = k
		}
		f := &Structure{catStart: []int32{0, int32(n)}, keys: keys}
		for q := 0; q < 16; q++ {
			var y catalog.Key
			switch {
			case n == 0 || q%4 == 0:
				y = catalog.Key(rng.Intn(int(k) + 8)) // anywhere, past both ends
			case q%4 == 1:
				y = keys[rng.Intn(n)]
			case q%4 == 2:
				y = keys[rng.Intn(n)] - 1
			default:
				y = []catalog.Key{keys[0] - 1, keys[n-1] + 1, catalog.MinusInf, catalog.PlusInf}[rng.Intn(4)]
			}
			hi := rng.Intn(n+10) - 5
			lo := hi - rng.Intn(n+6)
			found := f.succInWindow(0, y, lo, hi)
			if got, want := f.windowHolds(0, y, lo, hi), !(found > hi || found >= n); got != want {
				t.Fatalf("keys %v, y=%d, window [%d,%d]: windowHolds %v, search lands at %d", keys, y, lo, hi, got, found)
			}
		}
	}
}

// TestOpenBlockChecksEveryWindow: lowering any one non-root node's anchor
// below its find(y, ·) makes that node's window miss, and OpenBlock must
// report it with the Lemma 3 error whether or not a caller would ever
// visit the node. A primitive that checked windows only where it searched
// them would open the block without error.
func TestOpenBlockChecksEveryWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0F1A7_5001))
	bt, err := tree.NewBalancedBinary(64)
	if err != nil {
		t.Fatal(err)
	}
	cats := make([]catalog.Catalog, bt.N())
	for v := range cats {
		keys := make([]catalog.Key, 0, 40)
		for k := catalog.Key(rng.Intn(8)); len(keys) < cap(keys); k += 1 + catalog.Key(rng.Intn(8)) {
			keys = append(keys, k)
		}
		cats[v] = catalog.MustFromKeys(keys, nil)
	}
	st, err := core.Build(bt, cats, core.Config{HOverride: func(int) int { return 2 }})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Freeze(st)
	if err != nil {
		t.Fatal(err)
	}
	var b Block
	checked := 0
	for si := range f.subs {
		sub := &f.subs[si]
		for v := tree.NodeID(0); v < f.n; v++ {
			bi := sub.blockOf[v]
			if bi < 0 {
				continue
			}
			y := catalog.Key(rng.Intn(200))
			pos := f.succ(v, y)
			if _, err := f.OpenBlock(si, v, y, pos, &b); err != nil {
				t.Fatalf("sub %d, block %d, y=%d: %v", si, v, y, err)
			}
			kpRow, _ := sub.sample(bi, pos)
			nodes := append([]tree.NodeID(nil), b.Nodes...)
			finds := make([]int, len(nodes))
			for z := range nodes {
				finds[z] = f.FindInBlock(&b, int32(z))
			}
			for z := 1; z < len(nodes); z++ {
				anchor := &sub.keyPos[kpRow+z]
				saved := *anchor
				*anchor = int32(finds[z] - 1)
				_, err := f.OpenBlock(si, v, y, pos, &b)
				*anchor = saved
				want := fmt.Sprintf(",%d] missed find(y,%d) (y=%d)", finds[z]-1, nodes[z], y)
				if err == nil || !strings.HasPrefix(err.Error(), "flat: Lemma 3 window [") || !strings.HasSuffix(err.Error(), want) {
					t.Fatalf("sub %d, block %d, local %d anchor lowered to %d: err %v, want the Lemma 3 window error ending %q",
						si, v, z, finds[z]-1, err, want)
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d block nodes checked", checked)
	}
}
