package manager

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// newLiveEnvHomes builds a manager with liveness enabled and runs it on a
// fabric. Unlike newEnv it installs no shutdown cleanup: the test ends the
// manager itself. It keeps the Run shell under test; the lease table's
// own tests below drive step with wall readings of their choosing.
func newLiveEnvHomes(t *testing.T, lease time.Duration, live *stats.Liveness, homes int) *testEnv {
	t.Helper()
	env := &testEnv{fab: simnet.NewFabric(testLink)}
	env.mgr = New(scl.NewSimEndpoint(env.fab, mgrNode), layout.DefaultGeometry())
	env.mgr.SetShards(homes)
	env.mgr.EnableLiveness(lease, live, nil)
	env.wg.Add(1)
	go func() {
		defer env.wg.Done()
		env.mgr.Run()
	}()
	return env
}

func (e *testEnv) shutdown(t *testing.T) {
	t.Helper()
	c := e.client(t, 999)
	var ack proto.Ack
	if _, err := c.ep.Call(mgrNode, &proto.Shutdown{}, &ack, 0); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	e.wg.Wait()
}

// Every flavour of parked waiter — lock queue, barrier arrival, cond
// waiter — must observe a typed proto.ErrShutdown when the manager shuts
// down, never a hang or an untyped failure; with several homes the
// waiters are parked on more than one of them.
func TestShutdownFailsParkedWaitersTyped(t *testing.T) {
	const heldLock, condLock, cond, bar = 1, 2, 8, 9
	for _, homes := range []int{1, 4} {
		t.Run(fmt.Sprintf("homes=%d", homes), func(t *testing.T) {
			env := newLiveEnvHomes(t, time.Hour, nil, homes)
			parkedOn := map[int]bool{
				env.mgr.shardOf(heldLock): true, env.mgr.shardOf(cond): true, env.mgr.shardOf(bar): true,
			}
			if homes > 1 && len(parkedOn) < 2 {
				t.Fatalf("the parked waiters share one home of %d; pick other ids", homes)
			}
			holder := env.client(t, 1)
			locker := env.client(t, 2)
			arriver := env.client(t, 3)
			sleeper := env.client(t, 4)

			if _, err := holder.lock(heldLock); err != nil {
				t.Fatal(err)
			}
			if _, err := sleeper.lock(condLock); err != nil {
				t.Fatal(err)
			}

			errs := make(chan error, 3)
			go func() {
				_, err := locker.lock(heldLock) // parks behind holder
				errs <- err
			}()
			go func() {
				_, err := arriver.barrier(bar, 2, nil) // parks: second arrival never comes
				errs <- err
			}()
			go func() {
				sleeper.interval++
				var resp proto.CondWaitResp
				_, err := sleeper.ep.Call(mgrNode, &proto.CondWaitReq{
					Cond: cond, Lock: condLock, Thread: sleeper.id,
					LastSeen: sleeper.lastSeen, Interval: sleeper.interval,
				}, &resp, sleeper.at)
				errs <- err
			}()

			// All three are parked once the lock wait is queued, the
			// barrier arrival waits for its round and the cond wait is in.
			st := env.mgr.Stats()
			waitUntil(t, "the three waiters to park", func() bool {
				return st.LockWaits.Load() >= 1 && st.BarrierWaits.Load() >= 1 && st.CondWaits.Load() >= 1
			})
			env.shutdown(t)

			for i := 0; i < 3; i++ {
				err := <-errs
				if err == nil {
					t.Fatal("a parked waiter completed successfully across shutdown")
				}
				if !errors.Is(err, proto.ErrShutdown) {
					t.Errorf("parked waiter error not typed as shutdown: %v", err)
				}
			}
		})
	}
}

// shutdown stops a step-driven manager the way a client would.
func (e *stepEnv) shutdown() {
	e.t.Helper()
	if err := e.client(999).call(&proto.Shutdown{}, &proto.Ack{}); err != nil {
		e.t.Errorf("shutdown: %v", err)
	}
}

// The lease table must declare a silent lock holder dead, force-release
// its lock to the parked waiter, fence its later requests with a typed
// proto.ErrPeerDied, and complete barriers at the reduced membership.
func TestLeaseReclaimsDeadLockHolder(t *testing.T) {
	live := new(stats.Liveness)
	env := newStepEnv(t, 1, 10*time.Millisecond, live)
	dead := env.client(601)
	alive := env.client(602)
	prodder := env.client(603)

	dead.beat(false)
	alive.beat(false)
	if _, err := dead.lock(1); err != nil {
		t.Fatal(err)
	}
	granted := alive.start(alive.lockReq(1)) // parks behind the soon-dead holder

	// The dead client goes silent; the prodder keeps beating on behalf
	// of itself and the parked live member, which is also what prods the
	// manager's reaper.
	for beats := 0; live.ThreadsDead.Load() == 0; beats++ {
		if beats > 10 {
			t.Fatal("holder was never declared dead")
		}
		env.advance(2 * time.Millisecond)
		prodder.beatFor(602, false)
		prodder.beat(false)
	}
	if err := env.result(granted, &proto.LockResp{}); err != nil {
		t.Fatalf("parked waiter not granted the reclaimed lock: %v", err)
	}
	if live.LocksReclaimed.Load() == 0 {
		t.Error("no lock was counted reclaimed")
	}

	// The dead member's node is fenced with a typed error.
	if _, err := dead.lock(5); err == nil {
		t.Fatal("request from a dead node succeeded")
	} else if !errors.Is(err, proto.ErrPeerDied) {
		t.Errorf("fencing error not typed as peer death: %v", err)
	}

	// SPMD barriers complete at the reduced membership: a 2-party
	// barrier is satisfied by the single live thread.
	if err := alive.call(alive.barrierReq(7, 2), &proto.BarrierResp{}); err != nil {
		t.Fatalf("barrier did not recompute around the dead thread: %v", err)
	}
	if err := alive.unlock(1, nil); err != nil {
		t.Fatal(err)
	}
	env.shutdown()
}

// ROADMAP 1(e). A lease measures the member's silence, not the manager's.
// When nothing reached the manager for longer than a lease (in the chaos
// tests: its goroutine was starved or blocked in a replication push), the
// first heartbeat it then handles is ahead of every other member's in the
// inbox; judging them by the wall clock reaped every live member at once.
func TestManagerStallDoesNotExpireLiveMembers(t *testing.T) {
	live := new(stats.Liveness)
	const lease = 40 * time.Millisecond
	env := newStepEnv(t, 1, lease, live)
	a, b := env.client(601), env.client(602)
	a.beat(false)
	b.beat(false)
	env.advance(3 * lease) // the manager sees nothing: no call reaches it, as if it were not running
	a.beat(false)
	b.beat(false)
	if _, err := b.lock(1); err != nil {
		t.Fatalf("live member fenced after the manager's own gap: %v", err)
	}
	if n := live.ThreadsDead.Load(); n != 0 {
		t.Fatalf("%d members declared dead across a gap in which the manager did not look", n)
	}
	// Real silence is still detected: b stops, a keeps the table moving.
	for beats := 0; live.ThreadsDead.Load() == 0; beats++ {
		if beats > 40 {
			t.Fatal("silent member was never declared dead")
		}
		env.advance(2 * time.Millisecond)
		a.beat(false)
	}
	if _, err := b.lock(2); !errors.Is(err, proto.ErrPeerDied) {
		t.Errorf("silent member's request: %v, want ErrPeerDied", err)
	}
	env.shutdown()
}

// Regression: a graceful Bye from a thread still holding sync state must
// reclaim that state. Before the fix the member simply left the table —
// no lease could ever expire for it, so a lock it held leaked forever
// and the parked waiter below hung.
func TestByeReclaimsHeldSyncState(t *testing.T) {
	live := new(stats.Liveness)
	env := newStepEnv(t, 1, time.Hour, live) // lease can never expire: only Bye reclaims
	holder := env.client(1)
	waiter := env.client(2)
	third := env.client(3)

	holder.beat(false)
	waiter.beat(false)
	third.beat(false)
	if _, err := holder.lock(1); err != nil {
		t.Fatal(err)
	}

	granted := waiter.start(waiter.lockReq(1)) // parks behind holder
	if env.answered(granted) || env.mgr.Stats().LockWaits.Load() == 0 {
		t.Fatal("the second acquire did not park")
	}

	// The holder departs gracefully without unlocking.
	holder.beat(true)
	if err := env.result(granted, &proto.LockResp{}); err != nil {
		t.Fatalf("parked waiter not granted the lock left behind by a Bye: %v", err)
	}
	if live.LocksReclaimed.Load() == 0 {
		t.Error("Bye with a held lock did not count a reclamation")
	}
	if n := live.ThreadsDead.Load(); n != 0 {
		t.Errorf("graceful Bye declared the member dead (%d)", n)
	}
	if err := waiter.unlock(1, nil); err != nil {
		t.Fatal(err)
	}

	// A Bye also recomputes barriers: with the waiter parked at a
	// 2-party barrier, the third member's departure completes the round
	// at the reduced membership instead of leaving it stuck.
	arrived := waiter.start(waiter.barrierReq(7, 2))
	if env.answered(arrived) || env.mgr.Stats().BarrierWaits.Load() == 0 {
		t.Fatal("the barrier arrival did not park")
	}
	third.beat(true)
	if err := env.result(arrived, &proto.BarrierResp{}); err != nil {
		t.Fatalf("barrier did not recompute around the departed member: %v", err)
	}
	env.shutdown()
}

// Regression: handleCondSignal's uncontended re-acquire must apply the
// same deadThreads fence release() applies. A thread can be declared
// dead while its self-reported node differs from the node it sends from
// (version skew, misconfiguration), so its cond wait can park after the
// reclamation sweep; pre-fix, signaling then landed the lock on the
// corpse and the signaler's next acquire hung forever.
func TestCondSignalEvictsDeadWaiter(t *testing.T) {
	live := new(stats.Liveness)
	env := newStepEnv(t, 1, 10*time.Millisecond, live)
	w := env.client(601)
	sig := env.client(602)

	// Member 601 self-reports a node id that is not where its requests
	// come from, then goes silent: the death fences node 9601 while
	// requests from node 601 keep flowing.
	skewed := &proto.Heartbeat{Member: 601, Class: proto.MemberThread, Node: 9601}
	env.send(sig.id, skewed.Kind(), proto.Encode(skewed), true)
	sig.beat(false)
	for beats := 0; live.ThreadsDead.Load() == 0; beats++ {
		if beats > 10 {
			t.Fatal("member 601 was never declared dead")
		}
		env.advance(2 * time.Millisecond)
		sig.beat(false)
	}

	// The dead-declared thread parks on the condition (its requests are
	// not fenced: they come from node 601, not 9601).
	if _, err := w.lock(1); err != nil {
		t.Fatal(err)
	}
	waiting := w.start(w.condWaitReq(8, 1))
	if env.answered(waiting) || env.mgr.Stats().CondWaits.Load() == 0 {
		t.Fatal("the condition wait did not park")
	}

	evictedBefore := live.WaitersEvicted.Load()
	if err := sig.call(&proto.CondSignalReq{Cond: 8, Thread: sig.id}, &proto.Ack{}); err != nil {
		t.Fatal(err)
	}
	// The woken corpse is evicted with a typed error, not granted.
	if err := env.result(waiting, &proto.CondWaitResp{}); err == nil {
		t.Fatal("cond wait by a dead-declared thread was granted the lock")
	} else if !errors.Is(err, proto.ErrPeerDied) {
		t.Errorf("eviction error not typed as peer death: %v", err)
	}
	if live.WaitersEvicted.Load() == evictedBefore {
		t.Error("eviction was not counted")
	}
	// The lock did not land on the corpse: the signaler acquires it
	// immediately (pre-fix this hung).
	if _, err := sig.lock(1); err != nil {
		t.Fatal(err)
	}
	if err := sig.unlock(1, nil); err != nil {
		t.Fatal(err)
	}
	env.shutdown()
}

// Regression: malformed heartbeats must be observable — counted in
// stats.Liveness and left as a CatLive trace event — instead of being
// silently dropped while the sender's lease quietly starves.
func TestMalformedHeartbeatIsCounted(t *testing.T) {
	live := new(stats.Liveness)
	env := newStepEnv(t, 1, time.Hour, live)
	// A dangling varint continuation byte fails Heartbeat decode at the
	// manager.
	env.send(888, proto.KHeartbeat, []byte{0x80}, true)
	if live.HeartbeatsMalformed.Load() == 0 {
		t.Fatal("malformed heartbeat was never counted")
	}
	env.shutdown()
}

// A member that says goodbye (Bye heartbeat) leaves the lease table
// gracefully: it is not declared dead and liveness counters stay quiet.
func TestByeRemovesMemberWithoutDeath(t *testing.T) {
	live := new(stats.Liveness)
	env := newStepEnv(t, 1, 10*time.Millisecond, live)
	c := env.client(1)
	prodder := env.client(2)

	c.beat(false)
	c.beat(true) // goodbye
	// Ten leases pass.
	for beats := 0; beats < 50; beats++ {
		prodder.beat(false)
		env.advance(2 * time.Millisecond)
	}
	if n := live.ThreadsDead.Load(); n != 0 {
		t.Fatalf("retired member declared dead (%d)", n)
	}
	// The departed member is not fenced either.
	if _, err := c.lock(1); err != nil {
		t.Fatalf("request from a retired member failed: %v", err)
	}
	if err := c.unlock(1, nil); err != nil {
		t.Fatal(err)
	}
	env.shutdown()
}
