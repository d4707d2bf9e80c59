package conformance

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/vm"
)

// TestAllocReissueLeakAcrossFailover is the regression test for the
// AllocReq re-issue leak. The leader replicates every mutation to its
// followers in peer order before applying it, so killing the leader on
// an outgoing ReplAppend with an odd attempt count crashes it on the
// SECOND peer of a round: follower 1 — the promotion successor — has
// already accepted and applied the in-flight entry, the leader demotes
// without dispatching it, and the client's request dies with a
// retryable NotLeader. The retry lands on the promoted replica whose
// zone allocator already served that exact request from the log.
// Without per-writer idempotency records the replica would allocate a
// second block for the same logical AllocReq and the first would stay
// live with no address ever handed to a client; with the dedup fix the
// retry is answered with the recorded address. The workload is shaped
// so the killed round falls in a pure-allocation phase, making the
// deduplicated re-issue an AllocReq specifically.
func TestAllocReissueLeakAcrossFailover(t *testing.T) {
	bounded(t, 30*time.Second, func() { allocReissueLeakAcrossFailover(t) })
}

func allocReissueLeakAcrossFailover(t *testing.T) {
	const (
		p        = 4
		iters    = 16 // allocations per thread before the free phase
		retained = 2  // blocks per thread never freed
		size     = 64 // well under StripeMin: shared zone
	)
	goroutines := runtime.NumGoroutine()

	cfg := core.DefaultConfig()
	cfg.ManagerShards = 2
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
	// Replication rounds before the alloc phase: p registrations plus p
	// barrier arrivals = 8 rounds = 16 ReplAppend attempts. After=61
	// (odd) kills the leader on attempt 62 — the peer-2 push of round
	// 31, deep in the 64-round allocation phase.
	inj := faultnet.New(faultnet.Config{
		Seed: 1409,
		Kills: []faultnet.Kill{
			{Node: core.ManagerNode(), Kind: proto.KReplAppend, FromNode: true, After: 61},
		},
	})
	cfg.Faults = inj
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	bar := rt.NewBarrier(p)
	checks := make(chan string, 64)
	report := func(format string, args ...any) {
		select {
		case checks <- fmt.Sprintf(format, args...):
		default:
		}
	}
	_, runErr := rt.Run(p, func(th vm.Thread) {
		bar.Wait(th)
		// Allocation phase: the leader dies partway through. The thread
		// whose AllocReq was in flight retries against the promoted
		// replica; without dedup that re-issue would leak a block.
		addrs := make([]vm.Addr, iters)
		for i := range addrs {
			addrs[i] = th.GlobalAlloc(size)
			th.WriteInt64(addrs[i], int64(th.ID()*1000+i))
		}
		bar.Wait(th)
		// Free phase: everything but the retained tail goes back, so
		// the only live shared-zone blocks afterward are the retained
		// ones — any extra is a leaked re-issue.
		for i := 0; i < iters-retained; i++ {
			if got, want := th.ReadInt64(addrs[i]), int64(th.ID()*1000+i); got != want {
				report("thread %d block %d: read %d, want %d", th.ID(), i, got, want)
			}
			th.Free(addrs[i])
		}
		for i := iters - retained; i < iters; i++ {
			if got, want := th.ReadInt64(addrs[i]), int64(th.ID()*1000+i); got != want {
				report("thread %d retained block %d: read %d, want %d", th.ID(), i, got, want)
			}
		}
	})
	if runErr != nil {
		t.Fatalf("leader kill mid-alloc leaked to the program: %v", runErr)
	}
	close(checks)
	for c := range checks {
		t.Errorf("data corruption across failover: %s", c)
	}

	if rt.NetStats().InjectedKills.Load() == 0 {
		t.Fatal("leader never killed — alloc-leak scenario is vacuous")
	}
	if rt.Liveness().MgrFailovers.Load() == 0 {
		t.Error("no manager failover recorded")
	}
	if rt.Manager() == rt.Managers()[0] {
		t.Error("current manager is still replica 0 though the leader was killed")
	}

	// The leak observable: live shared-zone allocations on the promoted
	// leader. Every non-retained block was freed, so exactly p*retained
	// remain. Before the dedup fix, the re-issued AllocReq after
	// failover allocated a second block and this count came out high.
	if _, shared, _ := rt.Manager().ZoneLive(); shared != p*retained {
		t.Errorf("promoted leader shared-zone live allocations = %d, want %d (AllocReq re-issue leak)",
			shared, p*retained)
	}
	// Prove the re-issue path actually fired: the aborted round's
	// AllocReq was applied from the log, so the client's retry must be
	// answered from the promoted leader's idempotency records.
	var dedups int64
	for _, mg := range rt.Managers() {
		dedups += mg.Stats().DedupAllocs.Load()
	}
	if dedups == 0 {
		t.Error("no AllocReq was deduplicated — the re-issue path never fired, scenario is vacuous")
	}

	if err := rt.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitGoroutines(t, goroutines+2)
}
