package conformance

import (
	"errors"
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

// chaosSlotVal is the deterministic value thread t writes to its slot s
// in round r.
func chaosSlotVal(t, s, r int) int64 {
	v := uint64(t+1)*0x9E3779B97F4A7C15 + uint64(s)*0xBF58476D1CE4E5B9 + uint64(r)*0x94D049BB133111EB
	v ^= v >> 31
	return int64(v)
}

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing the test if leaked goroutines persist.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d live, want <= %d\n%s", n, want, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosKillLockHolderAndMemserver is the liveness acceptance test:
// mid-run, the fault injector kills (a) a compute thread that has held a
// mutex since before the first barrier and (b) one of the two primary
// memory servers — on top of a background packet-drop rate. The
// surviving threads must converge with zero data divergence:
//
//   - the victim's lock is lease-reclaimed, so the survivors' parked
//     Lock calls are granted instead of hanging;
//   - every barrier recomputes its count down to the live membership;
//   - fetches and flushes aimed at the dead server fail over to its
//     warm standby, which holds the replicated diff stream;
//   - each survivor cross-checks a neighbour's slots and the
//     lock-protected counter, so a lost or stale page anywhere fails
//     the test.
//
// The run as a whole reports an error (the victim thread died), but the
// shared state the survivors observe must be exactly sequential.
//
// The scenario runs twice: with the historical single-event-loop
// servers and with 4 page shards per server, proving the sharded
// dispatcher holds the same liveness and consistency guarantees
// (per-shard replication streams, standby promotion, parked-fetch
// failure) under kills and packet loss.
func TestChaosKillLockHolderAndMemserver(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			bounded(t, 30*time.Second, func() { chaosKillLockHolderAndMemserver(t, shards) })
		})
	}
}

func chaosKillLockHolderAndMemserver(t *testing.T, shards int) {
	const (
		p        = 4
		rounds   = 6
		slotsPer = 2048 // 4 pages of int64 per thread: forces striping + eviction
	)
	victim := p - 1
	survivors := p - 1

	goroutines := runtime.NumGoroutine()

	cfg := core.DefaultConfig()
	cfg.Geo.NumServers = 2
	cfg.Geo.LinePages = 1
	cfg.ServerShards = shards
	// The manager homes shard alongside the servers: the shards=4 leg
	// proves reclamation (lease fencing, barrier recount, parked-lock
	// grants) holds when sync state is spread across several homes.
	cfg.ManagerShards = shards
	cfg.CacheLines = 4 // far below the working set: constant fetch/evict traffic
	// The lease must tolerate race-detector and CI scheduling jitter: a
	// live thread whose heartbeat goroutine starves past the lease gets
	// fenced as dead, which is correct fencing behaviour but not the
	// scenario under test.
	cfg.Liveness = &core.LivenessConfig{
		HeartbeatEvery: 2 * time.Millisecond,
		MissedBeats:    25, // 50ms lease
		Standby:        true,
	}
	cfg.Retry = &scl.RetryPolicy{
		MaxAttempts: 8,
		Backoff:     50 * time.Microsecond,
		BackoffCap:  time.Millisecond,
	}
	inj := faultnet.New(faultnet.Config{
		Seed:     421,
		DropProb: 0.05,
		Kills: []faultnet.Kill{
			// The victim holds the mutex from before the first barrier
			// until death, so by its 60th outbound message (it spins on
			// a cache-thrashing write loop) it is a lock-holding
			// casualty.
			{Node: core.ThreadNode(victim + 1), After: 60, FromNode: true},
			// The second memory server dies once real page traffic has
			// reached it.
			{Node: core.ServerNode(1), After: 30},
		},
	})
	cfg.Faults = inj
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	mu := rt.NewMutex()
	bar := rt.NewBarrier(p)
	var base atomic.Uint64
	checks := make(chan string, 1024)
	report := func(format string, args ...any) {
		select {
		case checks <- fmt.Sprintf(format, args...):
		default:
		}
	}

	_, runErr := rt.Run(p, func(th vm.Thread) {
		if th.ID() == victim {
			// Thread-local arena twice the cache size: the spin loop
			// below never stops missing.
			buf := th.Malloc(8 * 4096)
			mu.Lock(th)
			bar.Wait(th)
			for i := 0; ; i++ {
				th.WriteInt64(buf+vm.Addr((i%4096)*8), int64(i))
			}
		}
		if th.ID() == 0 {
			base.Store(uint64(th.GlobalAlloc((p*slotsPer + 1) * 8)))
		}
		bar.Wait(th)
		a := vm.Addr(base.Load())
		slots := func(tid, s int) vm.Addr { return a + vm.Addr((tid*slotsPer+s)*8) }
		counter := a + vm.Addr(p*slotsPer*8)
		neighbour := (th.ID() + 1) % survivors

		for r := 0; r < rounds; r++ {
			for s := 0; s < slotsPer; s++ {
				th.WriteInt64(slots(th.ID(), s), chaosSlotVal(th.ID(), s, r))
			}
			mu.Lock(th)
			th.WriteInt64(counter, th.ReadInt64(counter)+1)
			mu.Unlock(th)
			bar.Wait(th)
			// The previous round's neighbour values are stable now.
			for s := 0; s < slotsPer; s += 64 {
				want := chaosSlotVal(neighbour, s, r)
				if got := th.ReadInt64(slots(neighbour, s)); got != want {
					report("thread %d round %d: neighbour %d slot %d = %d, want %d",
						th.ID(), r, neighbour, s, got, want)
				}
			}
			bar.Wait(th)
		}
		if got, want := th.ReadInt64(counter), int64(survivors*rounds); got != want {
			report("thread %d: counter = %d, want %d", th.ID(), got, want)
		}
	})

	// The victim died, so the run as a whole must report it.
	if runErr == nil {
		t.Error("run reported no error though a thread was killed")
	} else {
		t.Logf("run error (expected): %v", runErr)
	}
	close(checks)
	for c := range checks {
		t.Errorf("divergence: %s", c)
	}

	live := rt.Liveness()
	if live.ThreadsDead.Load() == 0 {
		t.Error("no thread was declared dead")
	}
	if live.LocksReclaimed.Load() == 0 {
		t.Error("the victim's lock was never reclaimed")
	}
	if live.BarriersRecomputed.Load() == 0 {
		t.Error("no barrier round completed at a recomputed count")
	}
	if live.Failovers.Load() == 0 || live.Promotions.Load() == 0 {
		t.Errorf("no failover happened (failovers=%d promotions=%d) — the server kill was vacuous",
			live.Failovers.Load(), live.Promotions.Load())
	}
	if live.ReplBatches.Load() == 0 {
		t.Error("no diff batches were replicated to standbys")
	}
	nst := rt.NetStats()
	if nst.InjectedKills.Load() < 2 {
		t.Errorf("injected kills = %d, want 2", nst.InjectedKills.Load())
	}
	if err := rt.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitGoroutines(t, goroutines+2)
}

// TestChaosKillManagerFailsTyped kills the central manager mid-run: the
// run must fail promptly with an error chain carrying proto.ErrPeerDied
// — parked waiters are completed with the typed failure and new calls
// exhaust their retries against the dead node — never a hang.
func TestChaosKillManagerFailsTyped(t *testing.T) {
	bounded(t, 30*time.Second, func() { chaosKillManagerFailsTyped(t) })
}

func chaosKillManagerFailsTyped(t *testing.T) {
	goroutines := runtime.NumGoroutine()

	cfg := core.DefaultConfig()
	cfg.Liveness = &core.LivenessConfig{
		HeartbeatEvery: time.Millisecond,
		MissedBeats:    3,
	}
	cfg.Retry = &scl.RetryPolicy{
		MaxAttempts: 6,
		Backoff:     50 * time.Microsecond,
		BackoffCap:  time.Millisecond,
	}
	inj := faultnet.New(faultnet.Config{
		Seed:  7,
		Kills: []faultnet.Kill{{Node: core.ManagerNode(), After: 40}},
	})
	cfg.Faults = inj
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	mu := rt.NewMutex()
	bar := rt.NewBarrier(2)
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := rt.Run(2, func(th vm.Thread) {
			a := th.Malloc(64)
			for i := 0; ; i++ {
				mu.Lock(th)
				th.WriteInt64(a, int64(i))
				mu.Unlock(th)
				bar.Wait(th)
			}
		})
		done <- err
	}()

	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run still blocked 30s after the manager was killed")
	}
	if err == nil {
		t.Fatal("run succeeded though the manager was killed")
	}
	if !errors.Is(err, proto.ErrPeerDied) {
		t.Fatalf("run error does not carry proto.ErrPeerDied: %v", err)
	}
	t.Logf("run failed typed after %v: %v", time.Since(start), err)
	if err := rt.Close(); err != nil {
		t.Logf("close after manager death: %v", err)
	}
	waitGoroutines(t, goroutines+2)
}
