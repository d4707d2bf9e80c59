package kernels

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/vm"
)

// AllocMode selects the micro-benchmark's memory allocation and work
// distribution strategy (Section III). The three modes differ only in
// where each thread's S rows of B doubles live, which controls how much
// false sharing the runs exhibit.
type AllocMode int

const (
	// AllocLocal: each thread allocates its own data (thread-local
	// arenas; the Samhita allocator guarantees no false sharing).
	AllocLocal AllocMode = iota
	// AllocGlobal: one thread makes a single large shared allocation and
	// each thread works on its own contiguous share (block row
	// distribution) — some risk of false sharing at share boundaries.
	AllocGlobal
	// AllocStrided: the single shared allocation is accessed with rows
	// interleaved round-robin across threads — the highest false
	// sharing of the three.
	AllocStrided
	// AllocRandom: the single shared allocation's rows are assigned to
	// threads by a fixed pseudo-random permutation. Beyond the paper's
	// three strategies: consecutive rows (and therefore cache lines and
	// home-server shards) land on unrelated threads, which makes every
	// release interval touch pages scattered across the whole space —
	// the worst case for server-side shard contention.
	AllocRandom
)

// String names the mode as the figures do.
func (m AllocMode) String() string {
	switch m {
	case AllocLocal:
		return "local"
	case AllocGlobal:
		return "global"
	case AllocStrided:
		return "strided"
	case AllocRandom:
		return "random"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// AllModes lists the three strategies in figure order.
var AllModes = []AllocMode{AllocLocal, AllocGlobal, AllocStrided}

// MicroParams parameterizes the Figure-2 kernel. The paper fixes N=10
// and B=256 for all reported experiments and sweeps M, S, the mode and
// the thread count.
type MicroParams struct {
	N    int       // outer iterations (barrier rounds)
	M    int       // inner compute iterations between synchronizations
	S    int       // rows of doubles per thread
	B    int       // doubles per row
	R    float64   // multiplier applied to each element
	Mode AllocMode // allocation / distribution strategy

	// UseSpans recasts the row loop onto the bulk span accessors
	// (ReadFloat64s/WriteFloat64s): whole rows move through one cache
	// access, and on Samhita each release publishes the rows' written
	// extents so falsely-sharing peers invalidate partially instead of
	// refetching whole pages. The arithmetic is identical; only the data
	// plane changes.
	UseSpans bool
	// WideGsum widens the global accumulator to this many contiguous
	// slots; under the mutex each thread folds its per-interval sum into
	// EVERY slot, making the consistency region a W-element contiguous
	// store burst (the record-plane stressor: element stores coalesce
	// into one record per burst, spans log one record outright). 0 or 1
	// is the legacy single-slot accumulator; slot 0 always carries the
	// legacy GSum value.
	WideGsum int
}

func (p MicroParams) withDefaults() MicroParams {
	if p.N == 0 {
		p.N = 10
	}
	if p.M == 0 {
		p.M = 10
	}
	if p.S == 0 {
		p.S = 2
	}
	if p.B == 0 {
		p.B = 256
	}
	if p.R == 0 {
		p.R = 0.999999
	}
	return p
}

// MicroResult is the outcome of one micro-benchmark run.
type MicroResult struct {
	// GSum is the lock-protected global accumulator after the run; it
	// checks that both backends compute the same thing.
	GSum float64
	// Expected is the analytically computed value of GSum (the kernel is
	// deterministic up to floating-point summation order).
	Expected float64
	// Run carries the per-thread measurements.
	Run *stats.Run
}

// RunMicro executes the Figure-2 kernel on p threads of the given
// backend.
//
// The kernel (Figure 2): every outer iteration, each thread performs M
// passes over its S rows of B doubles, multiplying every element by R
// and accumulating a running sum; it then adds pi times the row sums
// into a global sum under a mutex and waits at a barrier. Work per
// element per pass is two flops.
func RunMicro(v vm.VM, p int, prm MicroParams) (*MicroResult, error) {
	prm = prm.withDefaults()
	mu := v.NewMutex()
	bar := v.NewBarrier(p)
	var sharedBase, gsumBase atomic.Uint64
	gsums := make([]float64, p)

	run, err := v.Run(p, func(t vm.Thread) {
		// --- Allocation phase (the heart of the three strategies).
		var rowAddr func(k int) vm.Addr
		rowBytes := 8 * prm.B
		switch prm.Mode {
		case AllocLocal:
			base := t.Malloc(prm.S * rowBytes)
			rowAddr = func(k int) vm.Addr { return base + vm.Addr(k*rowBytes) }
		case AllocGlobal:
			if t.ID() == 0 {
				sharedBase.Store(uint64(t.GlobalAlloc(p * prm.S * rowBytes)))
			}
		case AllocStrided:
			if t.ID() == 0 {
				sharedBase.Store(uint64(t.GlobalAlloc(p * prm.S * rowBytes)))
			}
		case AllocRandom:
			if t.ID() == 0 {
				sharedBase.Store(uint64(t.GlobalAlloc(p * prm.S * rowBytes)))
			}
		}
		W := prm.WideGsum
		if W < 1 {
			W = 1
		}
		if t.ID() == 0 {
			gsumBase.Store(uint64(t.GlobalAlloc(8 * W)))
		}
		bar.Wait(t)
		base := vm.Addr(sharedBase.Load())
		switch prm.Mode {
		case AllocGlobal:
			// Thread t's rows are contiguous: rows [t*S, (t+1)*S).
			rowAddr = func(k int) vm.Addr {
				return base + vm.Addr((t.ID()*prm.S+k)*rowBytes)
			}
		case AllocStrided:
			// Rows are interleaved round-robin: thread t owns rows
			// k*P + t.
			rowAddr = func(k int) vm.Addr {
				return base + vm.Addr((k*t.P()+t.ID())*rowBytes)
			}
		case AllocRandom:
			// Rows are scattered by a fixed permutation every thread
			// computes identically, so the assignment is deterministic
			// and needs no coordination.
			perm := rowPerm(p * prm.S)
			rowAddr = func(k int) vm.Addr {
				return base + vm.Addr(perm[k*t.P()+t.ID()]*rowBytes)
			}
		}
		gsum := vm.F64{Base: vm.Addr(gsumBase.Load())}

		// --- Seed phase: every element starts at 1.0 so the multiply
		// chain changes real bytes every pass (a zero array would never
		// produce diffs and would under-model the consistency traffic).
		buf := newRowBuf(prm.B)
		if prm.UseSpans {
			buf = newSpanRowBuf(prm.B)
		}
		var wide []float64
		if W > 1 && prm.UseSpans {
			wide = make([]float64, W)
		}
		ones := make([]float64, prm.B)
		for l := range ones {
			ones[l] = 1.0
		}
		for k := 0; k < prm.S; k++ {
			buf.store(t, rowAddr(k), ones)
		}
		bar.Wait(t)
		// The timed region begins warm: initialization already touched
		// the data, exactly as in the paper's runs.
		t.ResetMeasurement()

		// --- The measured kernel.
		for i := 0; i < prm.N; i++ {
			sum := 0.0
			for j := 0; j < prm.M; j++ {
				for k := 0; k < prm.S; k++ {
					a := rowAddr(k)
					row := buf.load(t, a, prm.B)
					rsum := 0.0
					for l := 0; l < prm.B; l++ {
						row[l] = prm.R * row[l]
						rsum += row[l]
					}
					// Two flops per element plus the am(k,l) address
					// arithmetic and load/store of the scalar loop.
					t.Compute(4 * prm.B)
					buf.store(t, a, row)
					sum += math.Pi * rsum
					t.Compute(2)
				}
			}
			mu.Lock(t)
			switch {
			case W == 1:
				gsum.Add(t, 0, sum)
			case prm.UseSpans:
				// One span read + one span write: a single store record
				// for the whole W-slot burst.
				gsum.ReadSlice(t, 0, wide)
				for w := range wide {
					wide[w] += sum
				}
				gsum.WriteSlice(t, 0, wide)
			default:
				// W fused element adds: adjacent records, always
				// coalesced at append time into one.
				for w := 0; w < W; w++ {
					gsum.Add(t, w, sum)
				}
			}
			mu.Unlock(t)
			bar.Wait(t)
		}
		t.StopMeasurement()
		gsums[t.ID()] = gsum.At(t, 0)
	})
	if err != nil {
		return nil, err
	}
	return &MicroResult{
		GSum:     gsums[0],
		Expected: expectedGSum(p, prm),
		Run:      run,
	}, nil
}

// rowPerm returns a fixed pseudo-random permutation of [0, n): a
// Fisher-Yates shuffle driven by splitmix64 from a constant seed. It is
// a pure function of n, so every thread (and every run) computes the
// identical assignment — the scatter is adversarial but deterministic.
func rowPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// expectedGSum computes the analytic value of the global sum. Every
// element starts at 1.0 and is multiplied by R once per (i,j) pass, so
// the row sum in pass m (1-based, m = i*M+j+1) is B*R^m and each of the
// P threads contributes S*pi*B*R^m for every pass:
//
//	GSum = P * S * pi * B * sum_{m=1}^{N*M} R^m
//
// Floating-point summation order differs between the kernel and this
// closed form (and between threads), so comparisons use a relative
// tolerance.
func expectedGSum(p int, prm MicroParams) float64 {
	var geom float64
	rm := 1.0
	for m := 1; m <= prm.N*prm.M; m++ {
		rm *= prm.R
		geom += rm
	}
	return float64(p) * float64(prm.S) * math.Pi * float64(prm.B) * geom
}
