package conformance

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scl"
	"repro/internal/vm"
)

// TestPeerToPeerHandoffCarriesValues is the property test for the
// manager's peer-to-peer lock handoff (sequenced fabric): a heavily contended lock must actually take the
// holder-to-waiter fast path — the manager only arbitrating when the
// waiter set changes — while every increment protected by the lock
// still lands exactly once, with the closing interval riding the grant
// and its directory redelivery deduplicated.
func TestPeerToPeerHandoffCarriesValues(t *testing.T) {
	const (
		p     = 4
		iters = 64
	)
	cfg := core.DefaultConfig()
	cfg.ManagerShards = 4
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	mu := rt.NewMutex()
	bar := rt.NewBarrier(p)
	var base atomic.Uint64
	if _, err := rt.Run(p, func(th vm.Thread) {
		if th.ID() == 0 {
			base.Store(uint64(th.GlobalAlloc(2 * 8)))
		}
		bar.Wait(th)
		counter := vm.Addr(base.Load())
		shadow := counter + 8
		for i := 0; i < iters; i++ {
			mu.Lock(th)
			v := th.ReadInt64(counter) + 1
			th.WriteInt64(counter, v)
			th.WriteInt64(shadow, v*3)
			mu.Unlock(th)
		}
		bar.Wait(th)
		if got, want := th.ReadInt64(counter), int64(p*iters); got != want {
			t.Errorf("thread %d: counter = %d, want %d", th.ID(), got, want)
		}
		if got, want := th.ReadInt64(shadow), int64(p*iters*3); got != want {
			t.Errorf("thread %d: shadow = %d, want %d", th.ID(), got, want)
		}
	}); err != nil {
		t.Fatal(err)
	}

	ms := rt.Manager().Stats()
	if ms.Handoffs.Load() == 0 {
		t.Error("no peer-to-peer handoffs: the contended lock never took the fast path")
	}
	if ms.NextWaiters.Load() == 0 {
		t.Error("no NextWaiter announcements sent")
	}
	if ms.Handoffs.Load() > ms.NextWaiters.Load() {
		t.Errorf("handoffs (%d) exceed successor announcements (%d)",
			ms.Handoffs.Load(), ms.NextWaiters.Load())
	}
	// Every acquisition is a grant, whether central or handed off.
	if got, want := ms.LockGrants.Load(), int64(p*iters); got != want {
		t.Errorf("LockGrants = %d, want %d", got, want)
	}
}

// TestUnsequencedMultiHomeLockHammer drives a manager with several homes
// on an unsequenced fabric (the retry layer keeps the fabric real-time),
// so its one goroutine serves clients that run concurrently in real
// time, with disjoint per-lock traffic spread across the homes, under
// the race detector in CI. Each lock guards its own counter, so any
// cross-home ordering bug in the ticketed notice directory (an acquire
// overtaking a release routed to a different home) shows up as a lost
// increment.
func TestUnsequencedMultiHomeLockHammer(t *testing.T) {
	const (
		p      = 8
		nlocks = 4
		iters  = 32
	)
	cfg := core.DefaultConfig()
	cfg.ManagerShards = 4
	cfg.Retry = &scl.RetryPolicy{
		MaxAttempts: 4,
		Backoff:     50 * time.Microsecond,
		BackoffCap:  time.Millisecond,
	}
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	locks := make([]vm.Mutex, nlocks)
	for i := range locks {
		locks[i] = rt.NewMutex()
	}
	bar := rt.NewBarrier(p)
	var base atomic.Uint64
	if _, err := rt.Run(p, func(th vm.Thread) {
		if th.ID() == 0 {
			base.Store(uint64(th.GlobalAlloc(nlocks * 8)))
		}
		bar.Wait(th)
		counters := vm.Addr(base.Load())
		mine := th.ID() % nlocks
		addr := counters + vm.Addr(mine*8)
		for i := 0; i < iters; i++ {
			locks[mine].Lock(th)
			th.WriteInt64(addr, th.ReadInt64(addr)+1)
			locks[mine].Unlock(th)
		}
		bar.Wait(th)
		// The final barrier is an acquire: every lock's last release is
		// visible to every thread now.
		for l := 0; l < nlocks; l++ {
			want := int64(p / nlocks * iters)
			if got := th.ReadInt64(counters + vm.Addr(l*8)); got != want {
				t.Errorf("thread %d: counter %d = %d, want %d", th.ID(), l, got, want)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := rt.Manager().Stats().LockGrants.Load(), int64(p*iters); got != want {
		t.Errorf("LockGrants = %d, want %d", got, want)
	}
}
