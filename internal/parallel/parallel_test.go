package parallel

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fraccascade/internal/pram"
)

func TestCeilLog2(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := CeilLog2(c.in); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFloorLog2(t *testing.T) {
	cases := []struct{ in, want int }{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}}
	for _, c := range cases {
		if got := FloorLog2(c.in); got != c.want {
			t.Errorf("FloorLog2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("FloorLog2(0) should panic")
		}
	}()
	FloorLog2(0)
}

func sortedKeys(rng *rand.Rand, n int) []int64 {
	keys := make([]int64, n)
	v := int64(0)
	for i := range keys {
		v += 1 + rng.Int63n(10)
		keys[i] = v
	}
	return keys
}

func refSucc(keys []int64, y int64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= y })
}

func TestCoopSearchMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		p := 1 + rng.Intn(64)
		keys := sortedKeys(rng, n)
		for q := 0; q < 20; q++ {
			y := rng.Int63n(keys[n-1] + 10)
			want := refSucc(keys, y)
			got, _ := CoopSearch(keys, y, p)
			if got != want {
				t.Fatalf("n=%d p=%d y=%d: CoopSearch = %d, want %d", n, p, y, got, want)
			}
		}
	}
}

func TestCoopSearchEdgeCases(t *testing.T) {
	keys := []int64{10, 20, 30}
	if got, _ := CoopSearch(keys, 5, 4); got != 0 {
		t.Errorf("below min: got %d, want 0", got)
	}
	if got, _ := CoopSearch(keys, 30, 4); got != 2 {
		t.Errorf("equal max: got %d, want 2", got)
	}
	if got, _ := CoopSearch(keys, 31, 4); got != 3 {
		t.Errorf("above max: got %d, want len", got)
	}
	if got, _ := CoopSearch(nil, 1, 4); got != 0 {
		t.Errorf("empty: got %d, want 0", got)
	}
	if got, _ := CoopSearch(keys, 20, 0); got != 1 {
		t.Errorf("p=0 clamps to 1: got %d, want 1", got)
	}
}

func TestCoopSearchRoundBound(t *testing.T) {
	// Rounds must be O(log n / log p): allow the analytic bound + 2 slack
	// for the final-comparison round.
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{10, 100, 1000, 100000} {
		keys := sortedKeys(rng, n)
		for _, p := range []int{1, 2, 4, 16, 64, 256} {
			bound := CoopSearchSteps(n, p) + 2
			for q := 0; q < 10; q++ {
				y := rng.Int63n(keys[n-1] + 2)
				_, rounds := CoopSearch(keys, y, p)
				if rounds > bound {
					t.Errorf("n=%d p=%d: rounds %d exceeds bound %d", n, p, rounds, bound)
				}
			}
		}
	}
}

func TestCoopSearchStepsShape(t *testing.T) {
	// More processors must never need more rounds; and p = n finishes in O(1).
	n := 1 << 16
	prev := CoopSearchSteps(n, 1)
	for p := 2; p <= n; p *= 4 {
		cur := CoopSearchSteps(n, p)
		if cur > prev {
			t.Errorf("steps increased from %d to %d as p grew to %d", prev, cur, p)
		}
		prev = cur
	}
	if s := CoopSearchSteps(n, n); s > 2 {
		t.Errorf("p = n should give O(1) rounds, got %d", s)
	}
	if s := CoopSearchSteps(n, 1); s < 16 {
		t.Errorf("p = 1 should give ~log n rounds, got %d", s)
	}
}

// ceilDivSteps is the ceil-division form of CoopSearchSteps, exact while
// n + p + 1 does not overflow: the reference for TestCoopSearchStepsExact.
func ceilDivSteps(n, p int) int {
	if n <= 0 {
		return 0
	}
	if p < 1 {
		p = 1
	}
	r := 0
	for remaining := n + 1; remaining > 1; r++ {
		remaining = (remaining + p) / (p + 1)
	}
	return r
}

// TestCoopSearchStepsExact pins the division-free round count to the
// ceil-division reference on a dense small grid and on random (n, p) of
// every magnitude, and checks the edges where the reference overflows.
func TestCoopSearchStepsExact(t *testing.T) {
	for n := -2; n < 5000; n++ {
		for p := -1; p < 600; p++ {
			if got, want := CoopSearchSteps(n, p), ceilDivSteps(n, p); got != want {
				t.Fatalf("CoopSearchSteps(%d, %d) = %d, want %d", n, p, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 100000; i++ {
		n := int(rng.Uint64() >> uint(1+rng.Intn(63)))
		p := int(rng.Uint64() >> uint(1+rng.Intn(63)))
		if n > math.MaxInt-1-p {
			n = math.MaxInt - 1 - p
		}
		if got, want := CoopSearchSteps(n, p), ceilDivSteps(n, p); got != want {
			t.Fatalf("CoopSearchSteps(%d, %d) = %d, want %d", n, p, got, want)
		}
	}
	for _, c := range []struct{ n, p, want int }{
		{math.MaxInt - 1, 1, 63},
		{math.MaxInt - 1, 128, 9},
		{math.MaxInt, 1, 63},
		{math.MaxInt, math.MaxInt, 1},
	} {
		if got := CoopSearchSteps(c.n, c.p); got != c.want {
			t.Errorf("CoopSearchSteps(%d, %d) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestCoopSearchPRAMMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		p := 1 + rng.Intn(16)
		keys := sortedKeys(rng, n)
		m := pram.MustNew(pram.CREW, p)
		keysBase := m.Alloc(n)
		for i, k := range keys {
			m.Store(keysBase+i, k)
		}
		scratch := m.Alloc(p + 2)
		result := m.Alloc(1)
		y := rng.Int63n(keys[n-1] + 5)
		if err := CoopSearchPRAM(m, keysBase, n, y, p, scratch, result); err != nil {
			t.Fatalf("n=%d p=%d: %v", n, p, err)
		}
		want := refSucc(keys, y)
		if got := int(m.Load(result)); got != want {
			t.Fatalf("n=%d p=%d y=%d: PRAM search = %d, want %d", n, p, y, got, want)
		}
	}
}

func TestCoopSearchPRAMNeedsCREW(t *testing.T) {
	// On an EREW machine the concurrent probe reads of shared state are a
	// model violation: the algorithm is inherently CREW, as the paper notes.
	keys := sortedKeys(rand.New(rand.NewSource(4)), 100)
	m := pram.MustNew(pram.EREW, 8)
	keysBase := m.Alloc(len(keys))
	for i, k := range keys {
		m.Store(keysBase+i, k)
	}
	scratch := m.Alloc(10)
	result := m.Alloc(1)
	err := CoopSearchPRAM(m, keysBase, len(keys), keys[50], 8, scratch, result)
	if err == nil {
		t.Skip("no concurrent read occurred in this instance")
	}
}

func TestCoopSearchPRAMStepCount(t *testing.T) {
	n, p := 1<<12, 15
	keys := sortedKeys(rand.New(rand.NewSource(5)), n)
	m := pram.MustNew(pram.CREW, p)
	keysBase := m.Alloc(n)
	for i, k := range keys {
		m.Store(keysBase+i, k)
	}
	scratch := m.Alloc(p + 2)
	result := m.Alloc(1)
	if err := CoopSearchPRAM(m, keysBase, n, keys[n/3], p, scratch, result); err != nil {
		t.Fatal(err)
	}
	// Each narrowing round costs 2 machine steps.
	bound := 2 * (CoopSearchSteps(n, p) + 2)
	if m.Time() > bound {
		t.Errorf("PRAM steps %d exceed bound %d", m.Time(), bound)
	}
}

func TestScanExclusive(t *testing.T) {
	src := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	out, total, steps := ScanExclusive(src)
	want := []int64{0, 3, 4, 8, 9, 14, 23, 25}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	if total != 31 {
		t.Errorf("total = %d, want 31", total)
	}
	if steps != 6 {
		t.Errorf("steps = %d, want 2*log2(8) = 6", steps)
	}
}

func TestScanExclusiveEmpty(t *testing.T) {
	out, total, steps := ScanExclusive(nil)
	if len(out) != 0 || total != 0 || steps != 0 {
		t.Errorf("empty scan = (%v, %d, %d)", out, total, steps)
	}
}

func TestScanExclusivePRAMMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 3, 7, 8, 31, 64, 100} {
		src := make([]int64, n)
		for i := range src {
			src[i] = rng.Int63n(100)
		}
		size := 1 << CeilLog2(n)
		if size < 1 {
			size = 1
		}
		m := pram.MustNew(pram.EREW, size)
		base := m.Alloc(size)
		for i, v := range src {
			m.Store(base+i, v)
		}
		if err := ScanExclusivePRAM(m, base, n); err != nil {
			t.Fatalf("n=%d: %v (scan must be EREW-legal)", n, err)
		}
		want, _, _ := ScanExclusive(src)
		for i := 0; i < n; i++ {
			if got := m.Load(base + i); got != want[i] {
				t.Fatalf("n=%d: prefix[%d] = %d, want %d", n, i, got, want[i])
			}
		}
	}
}

func TestScanExclusivePRAMStepCount(t *testing.T) {
	n := 1 << 10
	m := pram.MustNew(pram.EREW, n)
	base := m.Alloc(n)
	for i := 0; i < n; i++ {
		m.Store(base+i, 1)
	}
	if err := ScanExclusivePRAM(m, base, n); err != nil {
		t.Fatal(err)
	}
	if m.Time() != 2*CeilLog2(n) {
		t.Errorf("steps = %d, want %d", m.Time(), 2*CeilLog2(n))
	}
}

func TestReduceMaxPRAM(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 16, 33, 100} {
		src := make([]int64, n)
		var want int64 = -1 << 62
		for i := range src {
			src[i] = rng.Int63n(1000) - 500
			if src[i] > want {
				want = src[i]
			}
		}
		m := pram.MustNew(pram.EREW, n)
		base := m.Alloc(n)
		for i, v := range src {
			m.Store(base+i, v)
		}
		res := m.Alloc(1)
		if err := ReduceMaxPRAM(m, base, n, res); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := m.Load(res); got != want {
			t.Errorf("n=%d: max = %d, want %d", n, got, want)
		}
	}
}

func TestQuickCoopSearchAgainstSort(t *testing.T) {
	f := func(raw []uint16, yRaw uint16, pRaw uint8) bool {
		keys := make([]int64, len(raw))
		for i, r := range raw {
			keys[i] = int64(r)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		// Dedupe: catalogs hold distinct keys.
		out := keys[:0]
		var prev int64 = -1
		for _, k := range keys {
			if k != prev {
				out = append(out, k)
				prev = k
			}
		}
		keys = out
		p := int(pRaw)%32 + 1
		got, _ := CoopSearch(keys, int64(yRaw), p)
		return got == refSucc(keys, int64(yRaw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
