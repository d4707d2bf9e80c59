package kernels

import (
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/vm"
)

// StreamParams parameterizes an out-of-core STREAM-triad kernel. The
// paper's introduction motivates virtual shared memory with exactly
// this situation: "the amount of memory per core in coprocessors is
// typically low", so treating the coprocessor as a mini-cluster "limits
// the size of problems that can be solved", while Samhita lets threads
// work on data backed by the much larger host memory, with the card's
// memory acting only as a cache. This kernel makes that concrete:
// three arrays sized well past the cache capacity are streamed through
// it, exercising demand paging, anticipatory prefetch and the
// dirty-biased eviction policy on every pass.
type StreamParams struct {
	// Elements is the length of each of the three arrays (a, b, c).
	Elements int
	// Iters is the number of triad passes (a[i] = b[i] + alpha*c[i],
	// rotating the roles each pass).
	Iters int
	// Alpha is the triad scalar.
	Alpha float64
}

// DefaultStreamParams sizes the arrays at a few MB.
func DefaultStreamParams() StreamParams {
	return StreamParams{Elements: 1 << 18, Iters: 3, Alpha: 3.0}
}

// StreamResult reports the outcome.
type StreamResult struct {
	// Checksum is the sum of the final destination array.
	Checksum float64
	// Run carries per-thread measurements.
	Run *stats.Run
}

// RunStream executes the kernel on p threads: block-partitioned triad
// passes with a barrier between passes. Each pass reads two arrays and
// rewrites the third, so a cache smaller than the working set must
// stream lines in and evict written pages continuously.
func RunStream(v vm.VM, p int, prm StreamParams) (*StreamResult, error) {
	if prm.Elements == 0 {
		prm = DefaultStreamParams()
	}
	n := prm.Elements
	arrBytes := n * 8

	bar := v.NewBarrier(p)
	var base atomic.Uint64
	var out StreamResult

	run, err := v.Run(p, func(t vm.Thread) {
		if t.ID() == 0 {
			base.Store(uint64(t.GlobalAlloc(3 * arrBytes)))
		}
		bar.Wait(t)
		arrays := [3]vm.Addr{
			vm.Addr(base.Load()),
			vm.Addr(base.Load()) + vm.Addr(arrBytes),
			vm.Addr(base.Load()) + vm.Addr(2*arrBytes),
		}
		lo, hi := blockRange(n, p, t.ID())

		// Seed b and c with nonzero data (owner-computes).
		const chunk = 512
		buf := newRowBuf(chunk)
		seed := make([]float64, chunk)
		for start := lo; start < hi; start += chunk {
			m := min(chunk, hi-start)
			for k := 0; k < m; k++ {
				seed[k] = float64((start+k)%97) + 1
			}
			buf.store(t, arrays[1]+vm.Addr(8*start), seed[:m])
			for k := 0; k < m; k++ {
				seed[k] = float64((start+k)%89) + 1
			}
			buf.store(t, arrays[2]+vm.Addr(8*start), seed[:m])
		}
		bar.Wait(t)
		t.ResetMeasurement()

		srcB, srcC, dst := 1, 2, 0
		bufB, bufC, bufD := newRowBuf(chunk), newRowBuf(chunk), newRowBuf(chunk)
		for it := 0; it < prm.Iters; it++ {
			for start := lo; start < hi; start += chunk {
				m := min(chunk, hi-start)
				bs := bufB.load(t, arrays[srcB]+vm.Addr(8*start), m)
				cs := bufC.load(t, arrays[srcC]+vm.Addr(8*start), m)
				ds := bufD.vals[:m]
				for k := 0; k < m; k++ {
					ds[k] = bs[k] + prm.Alpha*cs[k]
				}
				t.Compute(2 * m)
				bufD.store(t, arrays[dst]+vm.Addr(8*start), ds)
			}
			bar.Wait(t)
			// Rotate roles: the freshly written array becomes a source.
			srcB, srcC, dst = dst, srcB, srcC
		}
		t.StopMeasurement()

		if t.ID() == 0 {
			// After Iters passes the last-written array is the previous
			// dst, which rotation moved into srcB.
			final := arrays[srcB]
			sum := 0.0
			rb := newRowBuf(chunk)
			for start := 0; start < n; start += chunk {
				m := min(chunk, n-start)
				for _, x := range rb.load(t, final+vm.Addr(8*start), m) {
					sum += x
				}
			}
			out.Checksum = sum
		}
	})
	if err != nil {
		return nil, err
	}
	out.Run = run
	return &out, nil
}
