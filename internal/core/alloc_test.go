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
	rt := newRuntime(t, cfg)
	run := body(rt)
	measure := func(episodes int) uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := rt.Run(2, func(th vm.Thread) { run(th, episodes) }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before
	}
	measure(n) // grow the manager's tables and the sequencer's queues once
	short, long := measure(n), measure(5*n)
	return float64(long-short) / float64(4*n)
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
