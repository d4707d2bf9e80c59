package conformance

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/vm"
)

// TestReplicatedManagerCleanDeterminism runs the model checker with the
// manager replicated three ways on a clean (sequenced) fabric. With no
// faults configured the replication log rides the same deterministic
// fabric as everything else, so two runs at the same seed must produce
// bit-identical per-thread virtual times and event counters — the
// replicas=3 analogue of the kernel determinism regression — and the
// observed values must match the sequential model exactly.
func TestReplicatedManagerCleanDeterminism(t *testing.T) {
	p := Program{Seed: 42, Threads: 4, Rounds: 4, Slots: 32, Accums: 3, Locks: 2, ReadsPerRound: 4}
	exec := func() *core.Runtime {
		cfg := core.DefaultConfig()
		cfg.ManagerReplicas = 3
		rt, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}

	rt1 := exec()
	defer rt1.Close()
	viols, err := Run(rt1, p)
	if err != nil {
		t.Fatalf("replicated run: %v", err)
	}
	for _, v := range viols {
		t.Errorf("replicated manager diverged from sequential model: %s", v)
	}
	if got := len(rt1.Managers()); got != 3 {
		t.Fatalf("runtime booted %d manager replicas, want 3", got)
	}

	rt2 := exec()
	defer rt2.Close()
	if _, err := Run(rt2, p); err != nil {
		t.Fatalf("second replicated run: %v", err)
	}

	// Re-run the same program on fresh runtimes and compare the stats
	// the vm layer records. Program Run mutates no external state, so
	// per-run virtual times are the determinism fingerprint; they are
	// compared via a third and fourth execution below that return them.
	fp := func() [8]int64 {
		cfg := core.DefaultConfig()
		cfg.ManagerReplicas = 3
		rt, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		bar := rt.NewBarrier(p.Threads)
		mu := rt.NewMutex()
		var base atomic.Uint64
		var out [8]int64
		res, err := rt.Run(p.Threads, func(th vm.Thread) {
			if th.ID() == 0 {
				base.Store(uint64(th.GlobalAlloc(p.Threads * 8)))
			}
			bar.Wait(th)
			a := vm.Addr(base.Load()) + vm.Addr(th.ID()*8)
			for r := 0; r < p.Rounds; r++ {
				mu.Lock(th)
				th.WriteInt64(a, int64(r))
				mu.Unlock(th)
				bar.Wait(th)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Threads {
			out[i] = int64(res.Threads[i].TotalTime())
		}
		return out
	}
	if a, b := fp(), fp(); a != b {
		t.Errorf("replicas=3 virtual times differ between identical runs:\n run1: %v\n run2: %v", a, b)
	}
}

// TestReplicatedHandoffCleanKeepsProperties re-runs the peer-to-peer
// handoff property test with the manager replicated: on a clean
// sequenced fabric with several sync homes the contended lock must
// still take the holder-to-waiter fast path, every handoff must have a
// matching successor announcement, and grant conservation must hold on
// the leader — replication must not double-apply or swallow grants.
func TestReplicatedHandoffCleanKeepsProperties(t *testing.T) {
	const (
		p     = 4
		iters = 64
	)
	cfg := core.DefaultConfig()
	cfg.ManagerShards = 4
	cfg.ManagerReplicas = 3
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
	}); err != nil {
		t.Fatal(err)
	}

	ms := rt.Manager().Stats()
	if ms.Handoffs.Load() == 0 {
		t.Error("no peer-to-peer handoffs under the replicated manager")
	}
	if ms.Handoffs.Load() > ms.NextWaiters.Load() {
		t.Errorf("handoffs (%d) exceed successor announcements (%d)",
			ms.Handoffs.Load(), ms.NextWaiters.Load())
	}
	if got, want := ms.LockGrants.Load(), int64(p*iters); got != want {
		t.Errorf("LockGrants = %d, want %d (replication double-applied or lost grants)", got, want)
	}
}

// TestChaosKillManagerLeaderMasked is the kill-survivability acceptance
// test: with three manager replicas, the fault injector crashes the
// leader at a protocol-specific moment — mid-lock-handoff (the Nth
// LockReq), mid-barrier (the Nth BarrierReq), or mid-notice-board-fill
// (the Nth UnlockReq, which carries the closing interval's write
// notices). The run must complete with NO error and ZERO divergence
// from the sequential model at the same seed: a standby replica takes
// over from the replicated log, clients redirect, and the duplicate
// suppression on re-sent lock/unlock/barrier requests keeps every
// mutation exactly-once.
func TestChaosKillManagerLeaderMasked(t *testing.T) {
	scenarios := []struct {
		name  string
		kind  proto.Kind
		after int
	}{
		{"mid-lock", proto.KLockReq, 5},
		{"mid-barrier", proto.KBarrierReq, 6},
		{"mid-board-fill", proto.KUnlockReq, 5},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			bounded(t, 30*time.Second, func() { chaosKillManagerLeaderMasked(t, sc.kind, sc.after) })
		})
	}
}

func chaosKillManagerLeaderMasked(t *testing.T, kind proto.Kind, after int) {
	goroutines := runtime.NumGoroutine()

	p := Program{Seed: 7, Threads: 4, Rounds: 6, Slots: 48, Accums: 4, Locks: 2, ReadsPerRound: 4}
	cfg := core.DefaultConfig()
	cfg.ManagerShards = 2
	cfg.ManagerReplicas = 3
	// Generous membership lease: the failover stall must not fence
	// live threads whose heartbeats bounce off the dead leader.
	cfg.Liveness = &core.LivenessConfig{
		HeartbeatEvery: 2 * time.Millisecond,
		MissedBeats:    25,
	}
	cfg.Retry = &scl.RetryPolicy{
		MaxAttempts: 8,
		Backoff:     50 * time.Microsecond,
		BackoffCap:  time.Millisecond,
	}
	inj := faultnet.New(faultnet.Config{
		Seed:  int64(311 + after),
		Kills: []faultnet.Kill{{Node: core.ManagerNode(), Kind: kind, After: after}},
	})
	cfg.Faults = inj
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	viols, runErr := Run(rt, p)
	if runErr != nil {
		t.Fatalf("leader kill leaked to the program: %v", runErr)
	}
	for _, v := range viols {
		t.Errorf("divergence from sequential model after failover: %s", v)
	}

	nst := rt.NetStats()
	if nst.InjectedKills.Load() == 0 {
		t.Fatalf("leader never killed (kind %v after %d) — scenario is vacuous", kind, after)
	}
	live := rt.Liveness()
	if live.MgrFailovers.Load() == 0 {
		t.Error("no client-driven manager failover recorded")
	}
	if live.MgrElections.Load() == 0 {
		t.Error("no replica promotion recorded")
	}
	if live.MgrReplEntries.Load() == 0 {
		t.Error("replication log recorded no entries — failover had no state to recover")
	}
	if err := rt.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitGoroutines(t, goroutines+2)
}

// TestHandoffConservationAcrossFailover extends the lock-handoff
// property test across a leader kill: four threads hammer one mutex
// through four sync homes while the leader dies mid-run. Every
// lock-protected increment must land exactly once (counter and shadow
// exact), the promoted replica's grant count must equal the total
// acquisitions — grants applied from the log plus live grants, with
// re-sent requests deduplicated — and the handoff/successor invariant
// must hold on every replica.
func TestHandoffConservationAcrossFailover(t *testing.T) {
	bounded(t, 30*time.Second, func() { handoffConservationAcrossFailover(t) })
}

func handoffConservationAcrossFailover(t *testing.T) {
	const (
		p     = 4
		iters = 64
	)
	goroutines := runtime.NumGoroutine()

	cfg := core.DefaultConfig()
	cfg.ManagerShards = 4
	cfg.ManagerReplicas = 3
	cfg.Liveness = &core.LivenessConfig{
		HeartbeatEvery: 2 * time.Millisecond,
		MissedBeats:    25,
	}
	cfg.Retry = &scl.RetryPolicy{
		MaxAttempts: 8,
		Backoff:     50 * time.Microsecond,
		BackoffCap:  time.Millisecond,
	}
	inj := faultnet.New(faultnet.Config{
		Seed:  977,
		Kills: []faultnet.Kill{{Node: core.ManagerNode(), Kind: proto.KLockReq, After: 40}},
	})
	cfg.Faults = inj
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	mu := rt.NewMutex()
	bar := rt.NewBarrier(p)
	var base atomic.Uint64
	checks := make(chan string, 64)
	report := func(format string, args ...any) {
		select {
		case checks <- fmt.Sprintf(format, args...):
		default:
		}
	}
	_, runErr := rt.Run(p, func(th vm.Thread) {
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
			report("thread %d: counter = %d, want %d", th.ID(), got, want)
		}
		if got, want := th.ReadInt64(shadow), int64(p*iters*3); got != want {
			report("thread %d: shadow = %d, want %d", th.ID(), got, want)
		}
	})
	if runErr != nil {
		t.Fatalf("leader kill leaked to the program: %v", runErr)
	}
	close(checks)
	for c := range checks {
		t.Errorf("lost or duplicated increment across failover: %s", c)
	}

	if rt.NetStats().InjectedKills.Load() == 0 {
		t.Fatal("leader never killed — failover scenario is vacuous")
	}
	if rt.Liveness().MgrFailovers.Load() == 0 {
		t.Error("no manager failover recorded")
	}
	if rt.Manager() == rt.Managers()[0] {
		t.Error("current manager is still replica 0 though the leader was killed")
	}
	// Grant conservation on the promoted leader: it applied every
	// pre-kill grant from the log and issued every post-kill grant
	// itself; duplicate-suppressed re-sends must not inflate the count.
	if got, want := rt.Manager().Stats().LockGrants.Load(), int64(p*iters); got != want {
		t.Errorf("promoted leader LockGrants = %d, want %d", got, want)
	}
	for i, mg := range rt.Managers() {
		ms := mg.Stats()
		if h, nw := ms.Handoffs.Load(), ms.NextWaiters.Load(); h > nw {
			t.Errorf("replica %d: handoffs (%d) exceed successor announcements (%d)", i, h, nw)
		}
	}
	if err := rt.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitGoroutines(t, goroutines+2)
}
