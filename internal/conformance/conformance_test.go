package conformance

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/pthreads"
	"repro/internal/scl"
	"repro/internal/stats"
	"repro/internal/vm"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

func TestModelSelfConsistency(t *testing.T) {
	p := Generate(1)
	// The model's slot values must be stable and half-aware.
	if p.Slots%2 != 0 {
		t.Fatal("odd slot count")
	}
	for s := 0; s < p.Slots; s++ {
		if p.expectedSlot(s) != p.expectedSlot(s) {
			t.Fatal("nondeterministic model")
		}
	}
	if p.expectedAccum(0) == 0 {
		t.Fatal("degenerate accumulator model")
	}
	for s := 0; s < p.Slots; s++ {
		for r := 0; r < p.Rounds; r++ {
			w := p.writer(s, r)
			if w < 0 || w >= p.Threads {
				t.Fatalf("writer(%d,%d) = %d", s, r, w)
			}
		}
	}
}

func TestMalformedProgramRejected(t *testing.T) {
	pth := pthreads.New(pthreads.Config{})
	if _, err := Run(pth, Program{Threads: 0}); err == nil {
		t.Fatal("zero-thread program accepted")
	}
	if _, err := Run(pth, Program{Threads: 1, Rounds: 1, Slots: 3}); err == nil {
		t.Fatal("odd slot count accepted")
	}
}

// The baseline must pass trivially: it IS sequentially consistent
// hardware.
func TestPthreadsBackendConforms(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := Generate(seed)
		pth := pthreads.New(pthreads.Config{MaxCores: p.Threads})
		viols, err := Run(pth, p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(viols) > 0 {
			t.Fatalf("seed %d: baseline violated SC: %v", seed, viols[0])
		}
	}
}

// The headline check: the Samhita DSM must give data-race-free programs
// sequentially consistent results under every randomized configuration.
func TestSamhitaConformsUnderRandomConfigs(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			p := Generate(seed)
			cfg := RandomConfig(seed * 31)
			rt, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			viols, err := Run(rt, p)
			if err != nil {
				t.Fatalf("seed %d (%+v, cfg lines=%d cache=%d srv=%d): %v",
					seed, p, cfg.Geo.LinePages, cfg.CacheLines, cfg.Geo.NumServers, err)
			}
			for _, viol := range viols {
				t.Errorf("seed %d (cfg lines=%d cache=%d srv=%d prefetch=%v): %s",
					seed, cfg.Geo.LinePages, cfg.CacheLines, cfg.Geo.NumServers, cfg.Prefetch, viol)
			}
		})
	}
}

// The chaos check: with the fault injector dropping, delaying and
// duplicating transport messages — and partitioning a memory server for
// a window — the retry layer must mask every fault and the DSM must
// still produce sequentially consistent results with zero data-value
// divergence.
//
// The retry policy deliberately has NO per-attempt timeout: protocol
// calls park legitimately (barriers, lock queues, tag-parked fetches),
// and retrying a parked call would corrupt protocol state. Drops are
// injected pre-send, so a retried attempt reaches the server exactly
// once.
func TestSamhitaConformsUnderFaultInjection(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			p := Generate(seed)
			cfg := RandomConfig(seed * 31)
			cfg.Retry = &scl.RetryPolicy{
				MaxAttempts: 10,
				Backoff:     50 * time.Microsecond,
				BackoffCap:  2 * time.Millisecond,
			}
			inj := faultnet.New(faultnet.Config{
				Seed:      seed*101 + 7,
				DropProb:  0.15,
				DelayProb: 0.05,
				MaxDelay:  200 * time.Microsecond,
				DupProb:   0.05,
				// Cut off the first memory server briefly mid-run.
				Partitions: []faultnet.Partition{{Node: 10, After: 20, Len: 5}},
			})
			cfg.Faults = inj
			rt, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			viols, err := Run(rt, p)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, viol := range viols {
				t.Errorf("seed %d: divergence under faults: %s", seed, viol)
			}
			nst := rt.NetStats()
			if nst == nil {
				t.Fatal("runtime has no net stats though faults were configured")
			}
			if nst.InjectedDrops.Load() == 0 {
				t.Error("fault injector never dropped anything — chaos test is vacuous")
			}
			if nst.Retries.Load() == 0 {
				t.Error("retry layer never retried though drops were injected")
			}
		})
	}
}

// TestSamhitaConformsAtEveryHomeCount runs the default configuration at
// one, two and four manager homes. Its large cache keeps stale copies
// resident, so a page shipped with a lock grant lands next to them: the
// install must refuse a copy that may lack a write the successor knows
// of (thread 0 read back its own round-0 store as 0 at seed 205 with two
// homes).
func TestSamhitaConformsAtEveryHomeCount(t *testing.T) {
	seeds := 300
	switch {
	case raceEnabled:
		seeds = 10 // the sweep hunts protocol bugs; a few runs give -race its goroutines
	case testing.Short():
		seeds = 60
	}
	for _, homes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("homes=%d", homes), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < int64(seeds); seed++ {
				cfg := core.DefaultConfig()
				cfg.ManagerShards = homes
				rt, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				viols, err := Run(rt, Generate(seed))
				rt.Close()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(viols) > 0 {
					t.Errorf("seed %d: %d violations, e.g. %s", seed, len(viols), viols[0])
				}
			}
		})
	}
}

// The clean sweep's configurations (lines of 1 to 8 pages, caches of 2
// to 1,024 lines) exercise page fills: on half the seeds the program
// spreads its slots one to a page, so a thread uses the lines it pulls
// sparsely and its cache turns to filling them page by page. Close
// checks each record's fill counters (stats.Thread.CheckFills).
func TestCleanSweepTakesPageFills(t *testing.T) {
	seeds := 200
	if raceEnabled {
		seeds = 20
	}
	var fills stats.Thread
	for seed := int64(0); seed < int64(seeds); seed++ {
		rt, err := core.New(RandomConfig(seed * 31))
		if err != nil {
			t.Fatal(err)
		}
		viols, run, err := RunStats(rt, Generate(seed))
		if cerr := rt.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(viols) > 0 {
			t.Errorf("seed %d: %d violations, e.g. %s", seed, len(viols), viols[0])
		}
		tot := run.Totals()
		fills.PageFills += tot.PageFills
		fills.SectorFills += tot.SectorFills
	}
	if fills.PageFills == 0 || fills.SectorFills == 0 {
		t.Fatalf("%d seeds: %d page fills, %d sector fills", seeds, fills.PageFills, fills.SectorFills)
	}
}

// A convoy longer than one announcement train (the manager snapshots at
// most 32 waiters) is passed on by several trains in a row, each
// dispatched to a holder that got the lock peer-to-peer. Generate's
// programs run at most 8 threads; these run 48, at one and four manager
// homes, and some train at each must reach the cap. Their accumulators
// are stored again and again under one lock, so some train at each must
// also leave out a dead record (last record wins).
func TestSamhitaConformsWithLongConvoys(t *testing.T) {
	const threads = 48
	seeds := 40
	switch {
	case raceEnabled:
		seeds = 2
	case testing.Short():
		seeds = 10
	}
	for _, homes := range []int{1, 4} {
		t.Run(fmt.Sprintf("homes=%d", homes), func(t *testing.T) {
			t.Parallel()
			var full, dead int64
			for seed := int64(0); seed < int64(seeds); seed++ {
				cfg := core.DefaultConfig()
				cfg.ManagerShards = homes
				rt, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				p := Generate(seed)
				p.Threads = threads
				viols, err := Run(rt, p)
				full += rt.Manager().Stats().FullTrains.Load()
				dead += rt.Manager().Stats().DeadRecords.Load()
				rt.Close()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(viols) > 0 {
					t.Errorf("seed %d: %d violations, e.g. %s", seed, len(viols), viols[0])
				}
			}
			if full == 0 {
				t.Errorf("no announcement train over %d seeds reached the cap: the convoys were never long", seeds)
			}
			if dead == 0 {
				t.Errorf("no announcement train over %d seeds left out a record: no record was ever stored again", seeds)
			}
		})
	}
}

// Reusing one runtime across several programs must stay consistent
// (writer ids and interval tags must not collide).
func TestSamhitaConformsAcrossRuns(t *testing.T) {
	rt, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for seed := int64(100); seed < 104; seed++ {
		p := Generate(seed)
		viols, err := Run(rt, p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, viol := range viols {
			t.Errorf("seed %d: %s", seed, viol)
		}
	}
}

var _ = vm.VM(nil) // keep the import for documentation clarity
