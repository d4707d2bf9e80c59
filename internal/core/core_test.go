package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/layout"
	"repro/internal/manager"
	"repro/internal/trace"
	"repro/internal/vm"
)

// testConfig shrinks the cache so eviction paths get exercised, and
// keeps the default QDR-IB link model.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.CacheLines = 64
	return cfg
}

func newRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := rt.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return rt
}

func TestSingleThreadReadWrite(t *testing.T) {
	rt := newRuntime(t, testConfig())
	run, err := rt.Run(1, func(th vm.Thread) {
		a := th.Malloc(1024)
		th.WriteFloat64(a, 3.25)
		th.WriteInt64(a+8, -17)
		if got := th.ReadFloat64(a); got != 3.25 {
			t.Errorf("float round trip: %v", got)
		}
		if got := th.ReadInt64(a + 8); got != -17 {
			t.Errorf("int round trip: %v", got)
		}
		// Untouched memory reads zero.
		if got := th.ReadFloat64(a + 512); got != 0 {
			t.Errorf("fresh memory = %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Threads) != 1 || run.Threads[0].Hits == 0 {
		t.Fatalf("run stats: %+v", run.Threads)
	}
}

func TestAllocatorStrategies(t *testing.T) {
	rt := newRuntime(t, testConfig())
	_, err := rt.Run(1, func(th vm.Thread) {
		local := th.Malloc(64)
		if local >= manager.SharedZoneBase {
			t.Errorf("Malloc went to manager zones: %#x", uint64(local))
		}
		// Many small Mallocs reuse the arena without new chunks.
		msgsBefore := th.Stats().MsgsSent
		for i := 0; i < 100; i++ {
			th.Malloc(32)
		}
		if extra := th.Stats().MsgsSent - msgsBefore; extra != 0 {
			t.Errorf("100 arena allocations cost %d messages, want 0", extra)
		}

		shared := th.GlobalAlloc(4096)
		if shared < manager.SharedZoneBase || shared >= manager.StripedZoneBase {
			t.Errorf("medium GlobalAlloc at %#x not in shared zone", uint64(shared))
		}
		big := th.GlobalAlloc(2 << 20)
		if big < manager.StripedZoneBase {
			t.Errorf("large GlobalAlloc at %#x not in striped zone", uint64(big))
		}
		th.Free(big)
		th.Free(shared)
		th.Free(local) // arena free is a no-op but must not fail
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierPropagatesOrdinaryWrites(t *testing.T) {
	rt := newRuntime(t, testConfig())
	bar := rt.NewBarrier(2)
	var base atomic.Uint64
	run, err := rt.Run(2, func(th vm.Thread) {
		if th.ID() == 0 {
			a := th.GlobalAlloc(4096)
			th.WriteFloat64(a, 42.5)
			base.Store(uint64(a))
		}
		bar.Wait(th)
		a := vm.Addr(base.Load())
		if got := th.ReadFloat64(a); got != 42.5 {
			t.Errorf("thread %d read %v after barrier", th.ID(), got)
		}
		bar.Wait(th)
		if th.ID() == 1 {
			th.WriteFloat64(a+8, 7.0)
		}
		bar.Wait(th)
		if got := th.ReadFloat64(a + 8); got != 7.0 {
			t.Errorf("thread %d read %v after second round", th.ID(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := run.Totals()
	if tot.NoticesReceived == 0 {
		t.Error("no write notices flowed")
	}
	if run.MaxSyncTime() == 0 {
		t.Error("barriers cost no sync time")
	}
}

func TestLockProtectedCounter(t *testing.T) {
	rt := newRuntime(t, testConfig())
	const p, iters = 8, 20
	mu := rt.NewMutex()
	bar := rt.NewBarrier(p)
	var base atomic.Uint64
	run, err := rt.Run(p, func(th vm.Thread) {
		if th.ID() == 0 {
			base.Store(uint64(th.GlobalAlloc(64)))
		}
		bar.Wait(th)
		gsum := vm.F64{Base: vm.Addr(base.Load())}
		for i := 0; i < iters; i++ {
			mu.Lock(th)
			gsum.Add(th, 0, 1)
			mu.Unlock(th)
		}
		bar.Wait(th)
		if got := gsum.At(th, 0); got != float64(p*iters) {
			t.Errorf("thread %d sees counter %v, want %d", th.ID(), got, p*iters)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := run.Totals()
	if tot.RecordsLogged == 0 {
		t.Error("consistency-region stores were not instrumented")
	}
	if tot.UpdatesApplied == 0 {
		t.Error("no fine-grained updates were applied in place")
	}
}

func TestFalseSharingMergesAtHome(t *testing.T) {
	rt := newRuntime(t, testConfig())
	const p = 4
	bar := rt.NewBarrier(p)
	var base atomic.Uint64
	run, err := rt.Run(p, func(th vm.Thread) {
		if th.ID() == 0 {
			base.Store(uint64(th.GlobalAlloc(4096))) // one page, four writers
		}
		bar.Wait(th)
		arr := vm.F64{Base: vm.Addr(base.Load())}
		// Each thread writes a disjoint quarter of the same page.
		for i := 0; i < 8; i++ {
			arr.Set(th, th.ID()*8+i, float64(th.ID()*100+i))
		}
		bar.Wait(th)
		// Every thread must see every other thread's writes merged.
		for w := 0; w < p; w++ {
			for i := 0; i < 8; i++ {
				if got := arr.At(th, w*8+i); got != float64(w*100+i) {
					t.Errorf("thread %d: [%d,%d] = %v", th.ID(), w, i, got)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := run.Totals()
	if tot.DiffsCreated == 0 || tot.Invalidations == 0 {
		t.Errorf("false sharing produced diffs=%d invalidations=%d", tot.DiffsCreated, tot.Invalidations)
	}
}

func TestCondVarPipeline(t *testing.T) {
	rt := newRuntime(t, testConfig())
	mu := rt.NewMutex()
	cond := rt.NewCond()
	bar := rt.NewBarrier(2)
	var base atomic.Uint64
	_, err := rt.Run(2, func(th vm.Thread) {
		if th.ID() == 0 {
			base.Store(uint64(th.GlobalAlloc(64)))
		}
		bar.Wait(th)
		flag := vm.I64{Base: vm.Addr(base.Load())}
		value := vm.F64{Base: vm.Addr(base.Load()) + 8}
		if th.ID() == 0 {
			// Consumer: wait for the flag, then read the value.
			mu.Lock(th)
			for flag.At(th, 0) == 0 {
				cond.Wait(th, mu)
			}
			got := value.At(th, 0)
			mu.Unlock(th)
			if got != 99.5 {
				t.Errorf("consumer got %v", got)
			}
		} else {
			// Producer: publish under the lock, then signal.
			mu.Lock(th)
			value.Set(th, 0, 99.5)
			flag.Set(th, 0, 1)
			mu.Unlock(th)
			cond.Signal(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEvictionUnderTinyCache(t *testing.T) {
	cfg := testConfig()
	cfg.CacheLines = 2
	cfg.Prefetch = false
	rt := newRuntime(t, cfg)
	run, err := rt.Run(1, func(th vm.Thread) {
		a := th.GlobalAlloc(2 << 20) // 128 lines worth
		arr := vm.F64{Base: a}
		n := (2 << 20) / 8
		for i := 0; i < n; i += 512 {
			arr.Set(th, i, float64(i))
		}
		for i := 0; i < n; i += 512 {
			if got := arr.At(th, i); got != float64(i) {
				t.Errorf("[%d] = %v after eviction churn", i, got)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Totals().Evictions == 0 {
		t.Error("tiny cache never evicted")
	}
	if run.Totals().DirtyEvicts == 0 {
		t.Error("dirty evictions never flushed")
	}
}

func TestMultipleMemoryServersStriping(t *testing.T) {
	cfg := testConfig()
	cfg.Geo.NumServers = 3
	rt := newRuntime(t, cfg)
	_, err := rt.Run(1, func(th vm.Thread) {
		a := th.GlobalAlloc(4 << 20)
		arr := vm.F64{Base: a}
		n := (4 << 20) / 8
		step := 1024
		for i := 0; i < n; i += step {
			arr.Set(th, i, float64(i))
		}
		for i := 0; i < n; i += step {
			if got := arr.At(th, i); got != float64(i) {
				t.Errorf("[%d] = %v", i, got)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// All three servers must have hosted pages.
	for i, srv := range rt.Servers() {
		if srv.Stats().PagesHosted.Load() == 0 {
			t.Errorf("server %d hosted no pages", i)
		}
	}
}

func TestVirtualTimeDeterminism(t *testing.T) {
	prog := func() (compute, sync int64) {
		rt, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		bar := rt.NewBarrier(1)
		run, err := rt.Run(1, func(th vm.Thread) {
			a := th.Malloc(64 << 10)
			arr := vm.F64{Base: a}
			for i := 0; i < 4096; i++ {
				arr.Set(th, i, float64(i))
			}
			bar.Wait(th)
			var s float64
			for i := 0; i < 4096; i++ {
				s += arr.At(th, i)
				th.Compute(1)
			}
			bar.Wait(th)
			_ = s
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(run.MaxComputeTime()), int64(run.MaxSyncTime())
	}
	c1, s1 := prog()
	c2, s2 := prog()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("virtual time not deterministic: (%d,%d) vs (%d,%d)", c1, s1, c2, s2)
	}
	if c1 == 0 || s1 == 0 {
		t.Fatalf("degenerate times: compute=%d sync=%d", c1, s1)
	}
}

func TestRunPanicBecomesError(t *testing.T) {
	rt := newRuntime(t, testConfig())
	_, err := rt.Run(2, func(th vm.Thread) {
		if th.ID() == 1 {
			panic("kernel bug")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "kernel bug") {
		t.Fatalf("panic not surfaced: %v", err)
	}
}

func TestRunRejectsZeroThreads(t *testing.T) {
	rt := newRuntime(t, testConfig())
	if _, err := rt.Run(0, func(vm.Thread) {}); err == nil {
		t.Fatal("Run(0) succeeded")
	}
}

func TestBadGeometryRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Geo = layout.Geometry{PageSize: 1000, LinePages: 1, NumServers: 1}
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestComputeChargesFlops(t *testing.T) {
	rt := newRuntime(t, testConfig())
	run, err := rt.Run(1, func(th vm.Thread) {
		before := th.Clock()
		th.Compute(1000)
		if got := th.Clock() - before; got != 1000*rt.cfg.CPU.FlopTime {
			t.Errorf("Compute(1000) advanced %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.MaxComputeTime() < 1000*rt.cfg.CPU.FlopTime {
		t.Errorf("compute bucket %v too small", run.MaxComputeTime())
	}
}

func TestSingleWriterPagesAreLazy(t *testing.T) {
	rt := newRuntime(t, testConfig())
	bar := rt.NewBarrier(2)
	run, err := rt.Run(2, func(th vm.Thread) {
		// Each thread repeatedly rewrites its own private allocation:
		// no other thread ever touches it.
		a := th.Malloc(8192)
		arr := vm.F64{Base: a}
		for round := 0; round < 5; round++ {
			for i := 0; i < 1024; i++ {
				arr.Set(th, i, float64(round*10000+i))
			}
			bar.Wait(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := run.Totals()
	if tot.OwnedClaims == 0 {
		t.Error("private working set produced no ownership claims")
	}
	if tot.DiffBytes != 0 {
		t.Errorf("private working set shipped %d eager diff bytes", tot.DiffBytes)
	}
	// Nobody reads the pages, so the homes never pull.
	for _, srv := range rt.Servers() {
		if got := srv.Stats().Pulls.Load(); got != 0 {
			t.Errorf("unexpected pulls: %d", got)
		}
	}
}

func TestReaderTriggersPullOfOwnedPages(t *testing.T) {
	rt := newRuntime(t, testConfig())
	bar := rt.NewBarrier(2)
	var base atomic.Uint64
	_, err := rt.Run(2, func(th vm.Thread) {
		if th.ID() == 0 {
			a := th.GlobalAlloc(8192)
			arr := vm.F64{Base: a}
			for i := 0; i < 1024; i++ {
				arr.Set(th, i, float64(i))
			}
			base.Store(uint64(a))
		}
		bar.Wait(th)
		if th.ID() == 1 {
			arr := vm.F64{Base: vm.Addr(base.Load())}
			for i := 0; i < 1024; i++ {
				if got := arr.At(th, i); got != float64(i) {
					t.Errorf("[%d] = %v", i, got)
					return
				}
			}
		}
		bar.Wait(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	var pulls int64
	for _, srv := range rt.Servers() {
		pulls += srv.Stats().Pulls.Load()
	}
	if pulls == 0 {
		t.Error("reader fetched owned pages without any pull")
	}
}

func TestSharedPagesGoEagerAfterFirstConflict(t *testing.T) {
	rt := newRuntime(t, testConfig())
	const p = 2
	bar := rt.NewBarrier(p)
	var base atomic.Uint64
	run, err := rt.Run(p, func(th vm.Thread) {
		if th.ID() == 0 {
			base.Store(uint64(th.GlobalAlloc(4096))) // one page, two writers
		}
		bar.Wait(th)
		arr := vm.F64{Base: vm.Addr(base.Load())}
		for round := 0; round < 4; round++ {
			arr.Set(th, th.ID()*4+round%4, float64(th.ID()*100+round))
			bar.Wait(th)
			// Both threads read both halves: forces visibility.
			_ = arr.At(th, 0)
			_ = arr.At(th, 4)
			bar.Wait(th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := run.Totals()
	if tot.DiffBytes == 0 {
		t.Error("conflicting page never switched to eager diffs")
	}
	if tot.Invalidations == 0 {
		t.Error("no invalidations under write sharing")
	}
}

func TestTracingRecordsProtocolEvents(t *testing.T) {
	cfg := testConfig()
	col := trace.NewCollector(0)
	cfg.Trace = col
	rt := newRuntime(t, cfg)
	bar := rt.NewBarrier(2)
	mu := rt.NewMutex()
	var base atomic.Uint64
	_, err := rt.Run(2, func(th vm.Thread) {
		if th.ID() == 0 {
			base.Store(uint64(th.GlobalAlloc(4096)))
		}
		bar.Wait(th)
		mu.Lock(th)
		th.WriteFloat64(vm.Addr(base.Load()), 1)
		mu.Unlock(th)
		bar.Wait(th)
		_ = th.ReadFloat64(vm.Addr(base.Load()) + 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	cats := map[trace.Category]bool{}
	for _, e := range col.Events() {
		cats[e.Cat] = true
	}
	for _, want := range []trace.Category{trace.CatBarrier, trace.CatLock, trace.CatFetch, trace.CatAlloc, trace.CatRelease} {
		if !cats[want] {
			t.Errorf("no %q events traced (have %v)", want, cats)
		}
	}
	var buf strings.Builder
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if len(buf.String()) < 100 {
		t.Error("trivial trace output")
	}
}

func TestHeterogeneousConfigPreset(t *testing.T) {
	cfg := HeterogeneousConfig()
	if cfg.Link.Name != "pcie-scif" {
		t.Errorf("link = %q", cfg.Link.Name)
	}
	if cfg.CPU.FlopTime <= DefaultConfig().CPU.FlopTime {
		t.Error("coprocessor cores should be slower than host cores")
	}
	if cfg.ThreadsPerNode != 60 {
		t.Errorf("ThreadsPerNode = %d", cfg.ThreadsPerNode)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	run, err := rt.Run(4, func(th vm.Thread) {
		a := th.Malloc(64)
		th.WriteFloat64(a, 1)
		th.Compute(1000)
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1000 flops at 4 ns each.
	if run.Threads[0].ComputeTime < 4000 {
		t.Errorf("compute %v too fast for a coprocessor core", run.Threads[0].ComputeTime)
	}
}

// Adopted lines are private. Three threads fetch the same line; each
// cache keeps the reply it was handed as its line storage. Thread 0 then
// stores into its copy with no release while thread 1 keeps reading its
// own and thread 2 faults the line in afresh: neither may see the
// stores (the race detector flags any shared byte), and after a barrier
// both must.
func TestAdoptedLinesArePrivate(t *testing.T) {
	rt := newRuntime(t, testConfig())
	bar := rt.NewBarrier(3)
	var base atomic.Uint64
	const words = 64
	_, err := rt.Run(3, func(th vm.Thread) {
		if th.ID() == 0 {
			base.Store(uint64(th.GlobalAlloc(words * 8)))
		}
		bar.Wait(th)
		a := vm.Addr(base.Load())
		if th.ID() != 2 {
			if got := th.ReadFloat64(a); got != 0 { // threads 0 and 1 adopt a line each
				t.Errorf("thread %d: fresh memory = %v", th.ID(), got)
			}
		}
		bar.Wait(th)
		for round := 0; round < 200; round++ {
			for w := 0; w < words; w++ {
				at := a + vm.Addr(8*w)
				if th.ID() == 0 {
					th.WriteFloat64(at, 42.5)
				} else if got := th.ReadFloat64(at); got != 0 {
					t.Errorf("thread %d saw an unreleased store: %v", th.ID(), got)
					return
				}
			}
		}
		bar.Wait(th)
		if got := th.ReadFloat64(a + 8*(words-1)); got != 42.5 {
			t.Errorf("thread %d read %v after the barrier", th.ID(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
