package vm

// Parallel helpers shared by the kernels and examples: SPMD utilities in
// the style threaded HPC codes use on top of Pthreads.

// BlockRange splits n items across p workers in contiguous blocks and
// returns worker id's half-open range [lo, hi). Remainder items go to
// the lowest-numbered workers, so block sizes differ by at most one.
func BlockRange(n, p, id int) (lo, hi int) {
	chunk := n / p
	rem := n % p
	lo = id*chunk + min(id, rem)
	hi = lo + chunk
	if id < rem {
		hi++
	}
	return lo, hi
}

// ForBlock runs body over this thread's block of [0, n): the canonical
// owner-computes loop. Call it from every thread of the run.
func ForBlock(t Thread, n int, body func(i int)) {
	lo, hi := BlockRange(n, t.P(), t.ID())
	for i := lo; i < hi; i++ {
		body(i)
	}
}

// ReduceF64 combines one float64 per thread into a single value using a
// mutex-protected accumulator cell in shared memory, then returns the
// total (valid after the barrier it performs). The reduction operator
// is addition; cell must be a zeroed shared address all threads pass
// identically, and bar must be a barrier sized to the run.
//
// The accumulation happens inside a consistency region, so under
// Samhita it travels as a fine-grained record — this helper is the
// idiomatic replacement for the LOCK/sum/UNLOCK/BARRIER tail of the
// paper's micro-benchmark kernel.
func ReduceF64(t Thread, mu Mutex, bar Barrier, cell Addr, local float64) float64 {
	mu.Lock(t)
	t.WriteFloat64(cell, t.ReadFloat64(cell)+local)
	mu.Unlock(t)
	bar.Wait(t)
	return t.ReadFloat64(cell)
}
