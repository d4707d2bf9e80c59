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
