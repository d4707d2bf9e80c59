//go:build !race

package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/vm"
)

// mallocsPerEpisode runs body's episodes on two threads of a sequenced
// runtime, n and then 5n of them, and returns the heap objects the run
// allocates per extra episode: what a run costs whatever its length
// cancels out.
func mallocsPerEpisode(t *testing.T, n int, body func(rt *Runtime) func(th vm.Thread, episodes int)) float64 {
	cfg := testConfig()
	cfg.Prefetch = false
	objects, _ := costPerEpisode(t, cfg, n, body)
	return objects
}

// costPerEpisode is mallocsPerEpisode on a runtime of the given config,
// reporting heap bytes per extra episode too.
func costPerEpisode(t *testing.T, cfg Config, n int, body func(rt *Runtime) func(th vm.Thread, episodes int)) (objects, bytes float64) {
	rt := newRuntime(t, cfg)
	run := body(rt)
	measure := func(episodes int) (uint64, uint64) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		objs, byts := ms.Mallocs, ms.TotalAlloc
		if _, err := rt.Run(2, func(th vm.Thread) { run(th, episodes) }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - objs, ms.TotalAlloc - byts
	}
	measure(n) // grow the manager's tables and the sequencer's queues once
	shortObjs, shortBytes := measure(n)
	longObjs, longBytes := measure(5 * n)
	return float64(longObjs-shortObjs) / float64(4*n), float64(longBytes-shortBytes) / float64(4*n)
}

// A fetched line costs no line-sized buffer in steady state: the home
// answers in a pooled body, the thread decodes the answer into a pooled
// frame and hands the body back, and the line it evicts hands its frame
// back. Each thread sweeps a region eight times its cache, so every line
// it reaches is a fetch that evicts; everything the run allocates
// counts, and it stays under 1 KiB per fetch. (A fetch allocated its
// 16 KiB line and the body it came in before either was pooled.) A
// sweep that reads one word of every page of each line fills whole
// lines; one that reads one word per line turns its cache to page fills,
// whose frames and replies are pooled the same way, and whose combined
// request the home decodes into lists it keeps: a page fill costs at
// most half an object more than a whole line.
func TestFetchAndEvictAllocateNoLine(t *testing.T) {
	var lineObjects float64
	for _, sweep := range []struct {
		name      string
		pages     int // pages of each line read
		pageFills bool
	}{
		{"whole lines", testConfig().Geo.LinePages, false},
		{"page fills", 1, true},
	} {
		cfg := testConfig()
		cfg.Prefetch = false
		cfg.CacheLines = 8
		line := cfg.Geo.LineSize()
		lines := 8 * cfg.CacheLines
		var fetches, pageFills atomic.Int64
		objects, bytes := costPerEpisode(t, cfg, 200, func(rt *Runtime) func(vm.Thread, int) {
			return func(th vm.Thread, episodes int) {
				region := th.GlobalAlloc(lines * line)
				st := &th.(*Thread).st
				misses, pf := st.Misses, st.PageFills
				for i := 0; i < episodes; i++ {
					for p := range sweep.pages {
						th.ReadInt64(region + vm.Addr(i%lines*line+p*cfg.Geo.PageSize))
					}
				}
				fetches.Add(st.Misses - misses)
				pageFills.Add(st.PageFills - pf)
			}
		})
		if want := int64(2 * (200 + 200 + 1000)); fetches.Load() < want*9/10 {
			t.Fatalf("%s: %d fetches in %d sweeps of a line; the sweep does not miss", sweep.name, fetches.Load(), want)
		}
		if got := pageFills.Load(); sweep.pageFills != (got >= fetches.Load()*3/4) || !sweep.pageFills && got != 0 {
			t.Fatalf("%s: %d of %d fetches were page fills", sweep.name, got, fetches.Load())
		}
		t.Logf("%s, per fetch: %.1f heap objects, %.0f bytes", sweep.name, objects, bytes)
		if bytes >= 1024 {
			t.Errorf("%s: a fetch that evicts allocates %.0f bytes, want under 1 KiB", sweep.name, bytes)
		}
		if !sweep.pageFills {
			lineObjects = objects
		} else if objects > lineObjects+0.5 {
			t.Errorf("a page fill allocates %.1f heap objects, a whole line %.1f: want at most half an object more", objects, lineObjects)
		}
	}
}

// A barrier and a cond wait are a release and an acquire made from the
// thread's own goroutine: neither starts a goroutine, and neither makes
// the channel, closure and result a helper's round trip needed. The
// budgets are what an episode of two threads allocates, everything
// counted (the requests, their bodies and messages, the replies and the
// manager's side): 16 and 30 objects. With a helper goroutine per
// manager round trip they were 22 and 33.
func TestBarrierAndCondWaitStartNoGoroutine(t *testing.T) {
	barrier := mallocsPerEpisode(t, 40, func(rt *Runtime) func(vm.Thread, int) {
		bar := rt.NewBarrier(2)
		return func(th vm.Thread, episodes int) {
			for i := 0; i < episodes; i++ {
				bar.Wait(th)
			}
		}
	})
	// Thread 1 computes before it takes the lock, so thread 0 always gets
	// there first and waits: an episode is one cond wait, two signals and
	// three lock passages.
	var waits atomic.Int64
	cond := mallocsPerEpisode(t, 40, func(rt *Runtime) func(vm.Thread, int) {
		mu, cv := rt.NewMutex(), rt.NewCond()
		var turn atomic.Int64 // kept on the host: the episode is the synchronisation
		return func(th vm.Thread, episodes int) {
			for i := 0; i < episodes; i++ {
				if th.ID() == 1 {
					th.Compute(1 << 16)
				}
				mu.Lock(th)
				for int(turn.Load()%2) == th.ID() {
					waits.Add(1)
					cv.Wait(th, mu)
				}
				turn.Add(1)
				mu.Unlock(th)
				cv.Signal(th)
			}
		}
	})
	if waits.Load() < 280 {
		t.Fatalf("%d cond waits in 280 episodes; the cond episode is vacuous", waits.Load())
	}
	t.Logf("heap objects per episode: barrier %.1f, cond %.1f", barrier, cond)
	const barrierBudget, condBudget = 18, 31
	if barrier > barrierBudget {
		t.Errorf("a barrier episode allocates %.1f objects, want at most %d", barrier, barrierBudget)
	}
	if cond > condBudget {
		t.Errorf("a cond episode allocates %.1f objects, want at most %d", cond, condBudget)
	}
}

// A replicated release allocates no more than it did when the unlock was
// a blocking call: the call is started into an scl.Pending the thread
// keeps, and the request it sends is copied into buffers it reuses. A
// Lock/Unlock pair whose release carries a record, at three replicas,
// allocated 38 objects everything counted (the requests, their bodies,
// the replication round and the replies) when the thread waited for the
// ack itself.
func TestReplicatedReleaseAllocs(t *testing.T) {
	rt := newRuntime(t, replicatedConfig())
	mu := rt.NewMutex()
	var allocs float64
	if _, err := rt.Run(1, func(th vm.Thread) {
		a := th.GlobalAlloc(4096)
		allocs = testing.AllocsPerRun(200, func() {
			mu.Lock(th)
			th.WriteInt64(a, th.ReadInt64(a)+1)
			mu.Unlock(th)
		})
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("heap objects per replicated Lock/Unlock pair: %v", allocs)
	const budget = 38
	if allocs > budget {
		t.Errorf("a replicated Lock/Unlock pair allocates %v objects, want at most %d", allocs, budget)
	}
}
