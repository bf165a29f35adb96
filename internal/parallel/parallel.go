// Package parallel provides the PRAM building blocks used by the
// preprocessing and query algorithms: prefix sums, reductions, and the
// cooperative p-ary search of a sorted array (the Step-1 primitive of the
// explicit cooperative search, optimal by Snir's lower bound).
//
// Each primitive is written exactly once, as a program against the
// pram.Executor interface. The executor chosen at the call site decides
// the cost model: the goroutine-barrier pram.Machine and the sequential
// pram.VirtualMachine trace every access for step counts and memory-model
// legality (and are differentially tested to agree bit-for-bit), while
// pram.Uncosted runs the same program without tracing for pure-result
// uses. The plain slice-in/slice-out convenience functions (CoopSearch,
// ScanExclusive, MergeByRanking) are thin adapters that stage their input
// on an Uncosted executor and run the single program — there is no second
// implementation to drift from.
package parallel

import (
	"math/bits"

	"fraccascade/internal/pram"
)

// CeilLog2 returns ⌈log₂ x⌉ for x ≥ 1, and 0 for x ≤ 1.
func CeilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// FloorLog2 returns ⌊log₂ x⌋ for x ≥ 1; it panics for x < 1.
func FloorLog2(x int) int {
	if x < 1 {
		panic("parallel: FloorLog2 of non-positive value")
	}
	return bits.Len(uint(x)) - 1
}

// CoopSearchSteps returns the number of synchronous rounds a p-processor
// CREW cooperative search needs on a sorted array of n keys:
// ⌈log(n+1) / log(p+1)⌉. This is Θ((log n)/log p), optimal by Snir's
// lower bound for parallel comparison search. A non-positive p counts as 1.
func CoopSearchSteps(n, p int) int {
	if n <= 0 {
		return 0
	}
	if p <= 1 {
		return bits.Len(uint(n)) // the smallest r with 2^r ≥ n+1
	}
	// The smallest r with (p+1)^r > n: multiply up until the power passes
	// n, or passes 2^64 and with it every int.
	base := uint64(p) + 1
	r, pow := 1, base
	for pow <= uint64(n) {
		hi, lo := bits.Mul64(pow, base)
		if hi != 0 {
			return r + 1
		}
		r, pow = r+1, lo
	}
	return r
}

// A CoopSearcher stages a sorted key array on an executor once and answers
// repeated successor queries with the cooperative p-ary search program.
// Use it instead of CoopSearch when querying the same array many times:
// the keys are copied into PRAM memory only at construction.
type CoopSearcher struct {
	x        pram.Executor
	n, p     int
	keysBase int
	scratch  int
	result   int
}

// NewCoopSearcher stages keys for p-processor cooperative searches on an
// uncosted executor. A non-positive p is clamped to 1, matching the
// clamping of CoopSearch.
func NewCoopSearcher(keys []int64, p int) *CoopSearcher {
	if p < 1 {
		p = 1
	}
	x := pram.MustNewUncosted(pram.CREW, p)
	s := &CoopSearcher{x: x, n: len(keys), p: p}
	s.keysBase = x.Alloc(len(keys))
	x.StoreSlice(s.keysBase, keys)
	s.scratch = x.Alloc(p + 2)
	s.result = x.Alloc(1)
	return s
}

// Search returns the smallest index i with keys[i] >= y (len(keys) if
// none) and the number of synchronous narrowing rounds used (each round
// is two executor steps: probe, then narrow).
func (s *CoopSearcher) Search(y int64) (idx, rounds int) {
	s.x.ResetCost()
	if err := CoopSearchPRAM(s.x, s.keysBase, s.n, y, s.p, s.scratch, s.result); err != nil {
		// The uncosted executor reports no conflicts and the budget is
		// sized at construction, so an error here is a package bug.
		panic("parallel: cooperative search failed on uncosted executor: " + err.Error())
	}
	return int(s.x.Load(s.result)), s.x.Time() / 2
}

// CoopSearch finds the smallest index i in the sorted slice keys with
// keys[i] >= y, running the p-processor cooperative search program on an
// uncosted executor. It returns len(keys) if no such index exists,
// together with the number of synchronous rounds the search used.
//
// Each round narrows the candidate interval by a factor p+1 using p
// simultaneous probes, exactly as in the CREW search of Section 2.2 Step 1.
// The call stages the keys in PRAM memory; callers issuing many queries
// against one array should hold a CoopSearcher instead.
func CoopSearch(keys []int64, y int64, p int) (idx, rounds int) {
	return NewCoopSearcher(keys, p).Search(y)
}

// CoopSearchPRAM runs the p-processor cooperative search on an executor.
// The sorted keys occupy memory [keysBase, keysBase+n); the result index is
// written to resultAddr. It requires a CREW (or stronger) model because
// every processor reads the shared interval bounds each round.
//
// Layout of scratch (allocated by the caller via Alloc(p + 2)):
// scratch[0] = lo, scratch[1] = hi, scratch[2..2+p) = probe flags.
func CoopSearchPRAM(m pram.Executor, keysBase, n int, y int64, p, scratch, resultAddr int) error {
	if p < 1 {
		p = 1
	}
	m.Phase("root-coop")
	loA, hiA, flags := scratch, scratch+1, scratch+2
	m.Store(loA, 0)
	m.Store(hiA, int64(n))
	for {
		lo, hi := int(m.Load(loA)), int(m.Load(hiA))
		if lo >= hi {
			m.Store(resultAddr, int64(lo))
			return nil
		}
		span := hi - lo
		// Round part 1: p probes write monotone flags.
		err := m.Step(p, func(pr *pram.Proc) {
			pos := lo + (span*(pr.ID+1))/(p+1)
			if pos >= hi {
				pos = hi - 1
			}
			v := pr.Read(keysBase + pos)
			if v >= y {
				pr.Write(flags+pr.ID, int64(pos+1)) // flag>0 encodes "probe >= y", stores pos+1
			} else {
				pr.Write(flags+pr.ID, -int64(pos+1)) // negative encodes "probe < y"
			}
		})
		if err != nil {
			return err
		}
		// Round part 2: the unique boundary processor narrows [lo, hi].
		err = m.Step(p, func(pr *pram.Proc) {
			cur := pr.Read(flags + pr.ID)
			var prev int64 = -int64(lo) // sentinel: position lo-1 compared < y
			if pr.ID > 0 {
				prev = pr.Read(flags + pr.ID - 1)
			}
			curGE := cur > 0
			prevGE := prev > 0
			curPos := int(cur)
			if curPos < 0 {
				curPos = -curPos
			}
			curPos-- // back to 0-based probe position
			prevPos := int(prev)
			if prevPos < 0 {
				prevPos = -prevPos
			}
			prevPos--
			if curGE && !prevGE {
				// Transition probe: answer in (prevPos, curPos].
				pr.Write(loA, int64(prevPos+1))
				pr.Write(hiA, int64(curPos))
			} else if pr.ID == p-1 && !curGE {
				// All probes < y: answer in (curPos, hi].
				pr.Write(loA, int64(curPos+1))
			}
		})
		if err != nil {
			return err
		}
		nlo, nhi := int(m.Load(loA)), int(m.Load(hiA))
		if nlo == nhi {
			m.Store(resultAddr, int64(nlo))
			return nil
		}
		if nlo == lo && nhi == hi {
			// Degenerate split made no progress (tiny span vs p);
			// finish with one scalar comparison per remaining element.
			for i := nlo; i < nhi; i++ {
				kv := m.Load(keysBase + i)
				if kv >= y {
					m.Store(resultAddr, int64(i))
					return nil
				}
			}
			m.Store(resultAddr, int64(nhi))
			return nil
		}
	}
}

// ScanExclusive computes the exclusive prefix sums of src into a new slice:
// out[i] = src[0] + ... + src[i-1], by running the Blelloch scan program on
// an uncosted executor. It also returns the total and the EREW step count
// of the scan (2·⌈log₂ n⌉ rounds).
func ScanExclusive(src []int64) (out []int64, total int64, steps int) {
	n := len(src)
	if n == 0 {
		return []int64{}, 0, 0
	}
	size := 1 << CeilLog2(n)
	procs := size / 2
	if procs < 1 {
		procs = 1
	}
	x := pram.MustNewUncosted(pram.EREW, procs)
	base := x.Alloc(size) // padding words beyond n stay zero
	x.StoreSlice(base, src)
	if err := ScanExclusivePRAM(x, base, n); err != nil {
		panic("parallel: scan failed on uncosted executor: " + err.Error())
	}
	out = x.LoadSlice(base, n)
	return out, out[n-1] + src[n-1], x.Time()
}

// ScanExclusivePRAM computes exclusive prefix sums in place over the memory
// block [base, base+n) using the Blelloch up-sweep/down-sweep algorithm on
// an EREW-legal program. n is padded internally to a power of two by the
// caller's allocation contract: the block must have capacity for the next
// power of two of n, with the padding words zeroed.
func ScanExclusivePRAM(m pram.Executor, base, n int) error {
	if n <= 1 {
		if n == 1 {
			m.Store(base, 0)
		}
		return nil
	}
	size := 1 << CeilLog2(n)
	m.Phase("scan")
	// Up-sweep.
	for d := 1; d < size; d <<= 1 {
		pairs := size / (2 * d)
		stride := 2 * d
		err := m.Step(pairs, func(p *pram.Proc) {
			right := base + p.ID*stride + stride - 1
			left := right - d
			a := p.Read(left)
			b := p.Read(right)
			p.Write(right, a+b)
		})
		if err != nil {
			return err
		}
	}
	m.Store(base+size-1, 0)
	// Down-sweep.
	for d := size / 2; d >= 1; d >>= 1 {
		pairs := size / (2 * d)
		stride := 2 * d
		err := m.Step(pairs, func(p *pram.Proc) {
			right := base + p.ID*stride + stride - 1
			left := right - d
			a := p.Read(left)
			b := p.Read(right)
			p.Write(left, b)
			p.Write(right, a+b)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ReduceMaxPRAM computes the maximum of memory block [base, base+n) with an
// EREW-legal program, writing it to resultAddr. The block is consumed as
// scratch.
func ReduceMaxPRAM(m pram.Executor, base, n, resultAddr int) error {
	m.Phase("reduce")
	for span := n; span > 1; {
		half := (span + 1) / 2
		err := m.Step(span/2, func(p *pram.Proc) {
			a := p.Read(base + p.ID)
			b := p.Read(base + half + p.ID)
			if b > a {
				p.Write(base+p.ID, b)
			}
		})
		if err != nil {
			return err
		}
		span = half
	}
	m.Store(resultAddr, m.Load(base))
	return nil
}
