package snapshot

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fraccascade/internal/core"
	"fraccascade/internal/tree"
)

// buildStaticParallel is buildStatic with an explicit build parallelism.
func buildStaticParallel(tb testing.TB, leaves, perNode int, seed int64, parallelism int) *core.Structure {
	tb.Helper()
	t, err := tree.NewBalancedBinary(leaves)
	if err != nil {
		tb.Fatalf("tree: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	st, err := core.Build(t, randomCatalogs(tb, t, perNode, rng), core.Config{Parallelism: parallelism})
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	return st
}

// TestEncodeBitIdenticalAcrossBuildParallelism: structures built at any
// parallelism save byte-identical snapshots and freeze to byte-identical
// T′. The snapshot holds only inputs, so its bytes pin that the encoder
// reads nothing a parallel build could order differently — two build
// boots of a server must write the same file — while the frozen bytes pin
// the build itself.
func TestEncodeBitIdenticalAcrossBuildParallelism(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seq := buildStaticParallel(t, 16, 24, seed, 1)
		seqBytes, seqFrozen := encodeOne(t, seq), frozenBytes(t, seq)
		for _, par := range []int{2, 8, 0, runtime.NumCPU()} {
			st := buildStaticParallel(t, 16, 24, seed, par)
			if parBytes := encodeOne(t, st); !bytes.Equal(seqBytes, parBytes) {
				t.Fatalf("seed %d: snapshot of build with parallelism %d differs from sequential (%d vs %d bytes)",
					seed, par, len(parBytes), len(seqBytes))
			}
			if !bytes.Equal(frozenBytes(t, st), seqFrozen) {
				t.Fatalf("seed %d: T' built with parallelism %d freezes to other bytes than sequential", seed, par)
			}
		}
	}
}

func encodeOne(tb testing.TB, st *core.Structure) []byte {
	tb.Helper()
	data, err := Encode(&Store{Shards: []Shard{{Kind: KindStatic, Static: st}}})
	if err != nil {
		tb.Fatalf("encode: %v", err)
	}
	return data
}

// TestDecodeParallelDeterministic pins the parallel load: decoding the
// same snapshot at any parallelism builds a shard whose cascade equals the
// sequential decode's, whose T′ freezes to the same bytes, which
// re-encodes to the original snapshot, and which answers like the
// original structure.
func TestDecodeParallelDeterministic(t *testing.T) {
	st := buildStatic(t, 16, 24, 7)
	data := encodeOne(t, st)
	seq, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	seqStatic := seq.Shards[0].Static
	seqBytes := frozenBytes(t, seqStatic)
	for _, par := range []int{2, 8, 0, runtime.NumCPU()} {
		got, err := DecodeParallel(data, par)
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		gotStatic := got.Shards[0].Static
		if !reflect.DeepEqual(gotStatic.Cascade(), seqStatic.Cascade()) {
			t.Fatalf("DecodeParallel(par=%d) cascade differs from sequential decode", par)
		}
		if !bytes.Equal(frozenBytes(t, gotStatic), seqBytes) {
			t.Fatalf("DecodeParallel(par=%d) T' freezes to other bytes than sequential decode", par)
		}
		if !bytes.Equal(encodeOne(t, gotStatic), data) {
			t.Fatalf("DecodeParallel(par=%d) re-encode differs from the original snapshot", par)
		}
		assertSameAnswers(t, st, gotStatic, 7)
	}
}
