package kernels

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/scl"
	"repro/internal/stats"
)

// The clean-simulation leg of the determinism regression: the strided
// micro kernel run twice on identical configurations must produce
// bit-identical virtual times and event counters in every thread. The
// simulated fabric sequences message delivery by virtual arrival time
// (simnet.Sequencer), so any reappearance of real-scheduling
// sensitivity — a map-order fan-out, a racy clock fold, an unsequenced
// wakeup — shows up here as a counter or time mismatch.
func TestMicroDeterministicOnSimFabric(t *testing.T) {
	// The sharded variants exercise the dispatcher split/join paths:
	// determinism must survive requests being split across per-shard
	// calendars and rejoined —
	// page shards on the servers, lock/barrier homes on the manager
	// (which also switch the lock path to peer-to-peer handoff).
	//
	// The program result must not depend on sharding at all: every
	// configuration's GSum is checked against the unsharded baseline.
	var baseGSum float64
	for _, sh := range []struct{ srv, mgr int }{{1, 1}, {4, 1}, {1, 4}, {4, 4}} {
		sh := sh
		t.Run(fmt.Sprintf("srv=%d/mgr=%d", sh.srv, sh.mgr), func(t *testing.T) {
			run := func() (float64, *stats.Run) {
				cfg := core.DefaultConfig()
				cfg.CacheLines = 256
				cfg.Geo.NumServers = 2
				cfg.ServerShards = sh.srv
				cfg.ManagerShards = sh.mgr
				rt, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				res, err := RunMicro(rt, 8, MicroParams{N: 4, M: 4, S: 2, B: 64, Mode: AllocStrided})
				if err != nil {
					t.Fatal(err)
				}
				return res.GSum, res.Run
			}
			g1, r1 := run()
			g2, r2 := run()
			if g1 != g2 {
				t.Errorf("gsum differs between identical runs: %v vs %v", g1, g2)
			}
			if sh.srv == 1 && sh.mgr == 1 {
				baseGSum = g1
			} else if g1 != baseGSum {
				t.Errorf("gsum differs from unsharded run: %v vs %v", g1, baseGSum)
			}
			if len(r1.Threads) != len(r2.Threads) {
				t.Fatalf("thread counts differ: %d vs %d", len(r1.Threads), len(r2.Threads))
			}
			// stats.Thread is a flat struct of scalars, so == compares every
			// virtual time and every event counter at once.
			for i := range r1.Threads {
				if r1.Threads[i] != r2.Threads[i] {
					t.Errorf("thread %d stats differ:\n run1: %+v\n run2: %+v",
						i, r1.Threads[i], r2.Threads[i])
				}
			}
			if r1.MaxSyncTime() == 0 || r1.MaxComputeTime() == 0 {
				t.Fatalf("degenerate run: compute=%v sync=%v", r1.MaxComputeTime(), r1.MaxSyncTime())
			}
		})
	}
}

// The span-data-plane leg: the same strided kernel recast onto the
// bulk span accessors must stay deterministic (the extent words ride
// the same sequenced notices) AND compute the identical global sum as
// the per-element plane — on every sharding, including the sh=4/mgr=4
// configuration CI benches.
func TestMicroSpanDeterministicAndMatchesElement(t *testing.T) {
	for _, sh := range []struct{ srv, mgr int }{{1, 1}, {4, 4}} {
		sh := sh
		t.Run(fmt.Sprintf("srv=%d/mgr=%d", sh.srv, sh.mgr), func(t *testing.T) {
			run := func(spans bool, wide int) (float64, *stats.Run) {
				cfg := core.DefaultConfig()
				cfg.CacheLines = 256
				cfg.Geo.NumServers = 2
				cfg.ServerShards = sh.srv
				cfg.ManagerShards = sh.mgr
				rt, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				res, err := RunMicro(rt, 8, MicroParams{
					N: 4, M: 4, S: 2, B: 64, Mode: AllocStrided,
					UseSpans: spans, WideGsum: wide,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.GSum, res.Run
			}
			g1, r1 := run(true, 0)
			g2, r2 := run(true, 0)
			if g1 != g2 {
				t.Errorf("span gsum differs between identical runs: %v vs %v", g1, g2)
			}
			for i := range r1.Threads {
				if r1.Threads[i] != r2.Threads[i] {
					t.Errorf("span thread %d stats differ:\n run1: %+v\n run2: %+v",
						i, r1.Threads[i], r2.Threads[i])
				}
			}
			if ge, _ := run(false, 0); ge != g1 {
				t.Errorf("span gsum %v != element gsum %v", g1, ge)
			}
			// The wide accumulator folds the same sums in the same order
			// into slot 0, so both record planes must agree with the
			// single-slot run bit for bit.
			if gw, _ := run(false, 8); gw != g1 {
				t.Errorf("wide-element gsum %v != baseline %v", gw, g1)
			}
			if gw, _ := run(true, 8); gw != g1 {
				t.Errorf("wide-span gsum %v != baseline %v", gw, g1)
			}
		})
	}
}

// The faults-on leg. Fault injection is driven by real time (injected
// delays, retry timeouts), so virtual times are NOT reproducible and
// the fabric stays unsequenced; what must still hold per seed is the
// program outcome. With one thread the global sum has a single addend
// order, so it is bit-identical run to run; with several threads the
// mutex acquisition order (and hence float summation order) may vary,
// so the multi-thread check is analytic correctness plus the
// scheduling-independent operation counts.
func TestMicroFaultsSameSeedSameOutcome(t *testing.T) {
	run := func(seed int64, p int) *MicroResult {
		cfg := core.DefaultConfig()
		cfg.CacheLines = 256
		cfg.Faults = faultnet.New(faultnet.Config{
			Seed:      seed,
			DropProb:  0.05,
			DelayProb: 0.02,
			MaxDelay:  100 * time.Microsecond,
			DupProb:   0.01,
		})
		pol := scl.DefaultRetryPolicy
		cfg.Retry = &pol
		rt, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		res, err := RunMicro(rt, p, MicroParams{N: 3, M: 3, S: 1, B: 64, Mode: AllocStrided})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, seed := range []int64{1, 42} {
		a := run(seed, 1)
		b := run(seed, 1)
		if a.GSum != b.GSum {
			t.Errorf("seed %d, p=1: gsum %v vs %v", seed, a.GSum, b.GSum)
		}
		if !relClose(a.GSum, a.Expected, 1e-9) {
			t.Errorf("seed %d, p=1: gsum %v, analytic %v", seed, a.GSum, a.Expected)
		}
	}
	c := run(7, 4)
	d := run(7, 4)
	if !relClose(c.GSum, c.Expected, 1e-9) || !relClose(d.GSum, d.Expected, 1e-9) {
		t.Errorf("p=4 faulted runs diverge from analytic: %v / %v vs %v",
			c.GSum, d.GSum, c.Expected)
	}
	ct, dt := c.Run.Totals(), d.Run.Totals()
	if ct.BarrierOps != dt.BarrierOps || ct.LockOps != dt.LockOps || ct.Releases != dt.Releases {
		t.Errorf("p=4 same-seed op counts differ: barriers %d/%d locks %d/%d releases %d/%d",
			ct.BarrierOps, dt.BarrierOps, ct.LockOps, dt.LockOps, ct.Releases, dt.Releases)
	}
}
