package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vtime"
)

// replicatedConfig is testConfig with three manager replicas and no
// prefetch, so a thread's clock moves only with what the test does.
func replicatedConfig() Config {
	cfg := testConfig()
	cfg.Prefetch = false
	cfg.ManagerReplicas = 3
	return cfg
}

// unlockCost is what one Unlock of a record-carrying tenure adds to a
// lone thread's clock, with the manager at the given replica count.
func unlockCost(t *testing.T, replicas int) vtime.Time {
	cfg := replicatedConfig()
	cfg.ManagerReplicas = replicas
	rt := newRuntime(t, cfg)
	mu := rt.NewMutex()
	var cost vtime.Time
	if _, err := rt.Run(1, func(th vm.Thread) {
		a := th.GlobalAlloc(4096)
		for i := 0; i < 3; i++ {
			mu.Lock(th)
			th.WriteInt64(a, int64(i))
			before := th.Clock()
			mu.Unlock(th)
			cost = th.Clock() - before
		}
	}); err != nil {
		t.Fatal(err)
	}
	return cost
}

// A replicated unlock costs the thread what a lone manager's one-way
// post does: the local release work and one send overhead. The ack, a
// round trip plus a replication round, is joined later.
func TestReplicatedUnlockCostsOneSend(t *testing.T) {
	lone, replicated := unlockCost(t, 1), unlockCost(t, 3)
	if replicated != lone {
		t.Errorf("a replicated unlock costs %v, a lone manager's %v; want the same", replicated, lone)
	}
	if link := DefaultConfig().Link; replicated >= link.Latency {
		t.Errorf("a replicated unlock costs %v, at least one link latency (%v): it waited for the ack", replicated, link.Latency)
	}
}

// spans returns the collector's events on actor whose name starts with
// prefix, in start order.
func spans(col *trace.Collector, actor, prefix string) []trace.Event {
	var out []trace.Event
	for _, e := range col.Events() {
		if e.Actor == actor && strings.HasPrefix(e.Name, prefix) {
			out = append(out, e)
		}
	}
	return out
}

// The holder's own re-acquire right after a replicated unlock is the
// request DESIGN.md §13 says the manager's duplicate arms would misread
// if it overtook the unlock: a record-heavy release arrives late, the
// re-acquire would be taken for a re-issue of the held tenure, and the
// lock would end up free under a holder that thinks it has it. The
// thread joins the release's ack first, so the re-acquire is sent no
// earlier than the ack and granted as a fresh tenure, and the peer that
// takes the lock afterwards finds it free.
func TestReLockAfterReplicatedUnlockWaitsForTheAck(t *testing.T) {
	cfg := replicatedConfig()
	col := trace.NewCollector(0)
	cfg.Trace = col
	rt := newRuntime(t, cfg)
	mu := rt.NewMutex()
	bar := rt.NewBarrier(2)
	var base atomic.Uint64
	if _, err := rt.Run(2, func(th vm.Thread) {
		if th.ID() == 0 {
			a := th.GlobalAlloc(32 << 10)
			base.Store(uint64(a))
			big := make([]float64, 2048) // a 16 KiB record
			for i := range big {
				big[i] = float64(i)
			}
			mu.Lock(th)
			th.WriteFloat64s(a, big)
			mu.Unlock(th)
			mu.Lock(th)
			th.WriteInt64(a+vm.Addr(len(big)*8), 1)
			mu.Unlock(th)
		}
		bar.Wait(th)
		a := vm.Addr(base.Load())
		mu.Lock(th)
		th.AddInt64(a+16<<10, 1)
		mu.Unlock(th)
		bar.Wait(th)
		if got := th.ReadInt64(a + 16<<10); got != 3 {
			t.Errorf("thread %d: counter = %d, want 3", th.ID(), got)
		}
	}); err != nil {
		t.Fatal(err)
	}
	id := mu.(*smhMutex).id
	acks := spans(col, "thread 0", fmt.Sprintf("unlock-ack %d", id))
	locks := spans(col, "thread 0", fmt.Sprintf("lock %d", id))
	if len(acks) != 3 || len(locks) != 3 {
		t.Fatalf("thread 0 traced %d acks and %d locks of lock %d, want 3 and 3", len(acks), len(locks), id)
	}
	if ack, relock := acks[0].Start+acks[0].Dur, locks[1].Start+locks[1].Dur; relock <= ack {
		t.Errorf("the re-acquire was granted at %v, before the release's ack at %v", relock, ack)
	}
	st := rt.Manager().Stats()
	if g, u := st.LockGrants.Load(), st.Unlocks.Load(); g != 4 || u != 4 {
		t.Errorf("the leader granted %d tenures and took %d unlocks, want 4 and 4", g, u)
	}
}

// A release whose leader dies before acking it is re-issued at the
// thread's join to the promoted replica and applied there once: the
// thread's next acquire is granted, the counter the tenures guard is
// exact, and the new leader counts one unlock per tenure.
func TestReplicatedReleaseSurvivesLeaderKill(t *testing.T) {
	const tenures = 6
	cfg := replicatedConfig()
	cfg.Retry = &scl.RetryPolicy{MaxAttempts: 4, Backoff: 50 * time.Microsecond, BackoffCap: time.Millisecond}
	inj := faultnet.New(faultnet.Config{
		Kills: []faultnet.Kill{{Node: ManagerNode(), Kind: proto.KUnlockReq, After: 2}},
	})
	cfg.Faults = inj
	rt := newRuntime(t, cfg)
	mu := rt.NewMutex()
	if _, err := rt.Run(1, func(th vm.Thread) {
		a := th.GlobalAlloc(4096)
		for i := 0; i < tenures; i++ {
			mu.Lock(th)
			th.AddInt64(a, 1)
			mu.Unlock(th)
		}
		mu.Lock(th)
		if got := th.ReadInt64(a); got != tenures {
			t.Errorf("counter = %d, want %d", got, tenures)
		}
		mu.Unlock(th)
	}); err != nil {
		t.Fatal(err)
	}
	if !inj.Killed(ManagerNode()) {
		t.Fatal("the leader was never killed; the test is vacuous")
	}
	if rt.mgr.cur.Load() == 0 {
		t.Fatal("no failover: the release was never re-issued")
	}
	if got := rt.Manager().Stats().Unlocks.Load(); got != tenures+1 {
		t.Errorf("the new leader took %d unlocks, want %d", got, tenures+1)
	}
}

// A thread that dies with its release still in flight is reaped once the
// release is in: its peer is granted the lock, Run returns the death and
// Close does not hang.
func TestThreadDyingWithReleaseInFlightIsReaped(t *testing.T) {
	cfg := replicatedConfig()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mu := rt.NewMutex()
	boom := errors.New("boom")
	done := make(chan [2]error, 1)
	go func() {
		_, err := rt.Run(2, func(th vm.Thread) {
			if th.ID() == 1 {
				th.Compute(1 << 20) // the peer asks after the death
			}
			mu.Lock(th)
			mu.Unlock(th)
			if th.ID() == 0 {
				panic(boom)
			}
		})
		done <- [2]error{err, rt.Close()}
	}()
	select {
	case errs := <-done:
		if !errors.Is(errs[0], boom) {
			t.Errorf("Run returned %v, want the thread's death", errs[0])
		}
		if errs[1] != nil {
			t.Errorf("Close: %v", errs[1])
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run or Close hung after a thread died with its release in flight")
	}
}

// Each replicated release is traced on the thread as an unlock-ack span
// from the post to the ack; a lone manager's post has no ack to trace.
func TestReplicatedReleaseTracesItsAck(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		cfg := replicatedConfig()
		cfg.ManagerReplicas = replicas
		col := trace.NewCollector(0)
		cfg.Trace = col
		rt := newRuntime(t, cfg)
		mu := rt.NewMutex()
		var posts []vtime.Time
		if _, err := rt.Run(1, func(th vm.Thread) {
			a := th.GlobalAlloc(4096)
			for i := 0; i < 2; i++ {
				mu.Lock(th)
				th.WriteInt64(a, 1)
				mu.Unlock(th)
				posts = append(posts, th.Clock()-cfg.Link.SendOverhead)
			}
		}); err != nil {
			t.Fatal(err)
		}
		acks := spans(col, "thread 0", "unlock-ack")
		if replicas == 1 {
			if len(acks) != 0 {
				t.Errorf("a lone manager traced %d unlock acks, want none", len(acks))
			}
			continue
		}
		if len(acks) != len(posts) {
			t.Fatalf("%d unlock-ack spans for %d unlocks", len(acks), len(posts))
		}
		for i, e := range acks {
			if e.Cat != trace.CatLock || e.Start != posts[i] || e.Dur <= 0 {
				t.Errorf("ack %d: %s %q at %v for %v, want a lock span from the post at %v", i, e.Cat, e.Name, e.Start, e.Dur, posts[i])
			}
		}
	}
}
