package manager

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// newLiveEnv builds a manager with liveness enabled. Unlike newEnv it
// installs no shutdown cleanup: liveness tests end the manager
// themselves.
func newLiveEnv(t *testing.T, lease time.Duration, live *stats.Liveness) *testEnv {
	return newLiveEnvHomes(t, lease, live, 1)
}

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

func (c *client) beat(bye bool) {
	c.t.Helper()
	c.beatFor(c.id, bye)
}

// beatFor posts a heartbeat on behalf of member id — used when the
// member's own client struct is busy in a blocked call on another
// goroutine.
func (c *client) beatFor(id uint32, bye bool) {
	c.t.Helper()
	if _, err := c.ep.Post(mgrNode, &proto.Heartbeat{
		Member: id, Class: proto.MemberThread, Node: id, Bye: bye,
	}, 0); err != nil {
		c.t.Fatalf("heartbeat: %v", err)
	}
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

			// All three are parked once the lock wait is queued and the
			// barrier arrival and the cond wait have stored their intervals.
			st := env.mgr.Stats()
			for st.LockWaits.Load() < 1 || st.CondWaits.Load() < 1 || st.NoticesStored.Load() < 2 {
				runtime.Gosched()
			}
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

// The lease table must declare a silent lock holder dead, force-release
// its lock to the parked waiter, fence its later requests with a typed
// proto.ErrPeerDied, and complete barriers at the reduced membership.
func TestLeaseReclaimsDeadLockHolder(t *testing.T) {
	live := new(stats.Liveness)
	env := newLiveEnv(t, 10*time.Millisecond, live)
	dead := env.client(t, 601)
	alive := env.client(t, 602)
	prodder := env.client(t, 603)

	dead.beat(false)
	alive.beat(false)
	if _, err := dead.lock(1); err != nil {
		t.Fatal(err)
	}

	granted := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := alive.lock(1) // parks behind the soon-dead holder
		granted <- err
	}()

	// The dead client goes silent; the prodder keeps beating on behalf
	// of itself and the parked live member, which is also what prods the
	// manager's reaper.
	deadline := time.Now().Add(5 * time.Second)
	for live.ThreadsDead.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder was never declared dead")
		}
		time.Sleep(2 * time.Millisecond)
		prodder.beatFor(602, false)
		prodder.beat(false)
	}
	wg.Wait()
	if err := <-granted; err != nil {
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
	if _, err := alive.barrier(7, 2, nil); err != nil {
		t.Fatalf("barrier did not recompute around the dead thread: %v", err)
	}
	if err := alive.unlock(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	env.shutdown(t)
}

// ROADMAP 1(e). A lease measures the member's silence, not the manager's.
// When nothing reached the manager for longer than a lease (in the chaos
// tests: its goroutine was starved or blocked in a replication push), the
// first heartbeat it then handles is ahead of every other member's in the
// inbox; judging them by the wall clock reaped every live member at once.
func TestManagerStallDoesNotExpireLiveMembers(t *testing.T) {
	live := new(stats.Liveness)
	const lease = 40 * time.Millisecond
	env := newLiveEnv(t, lease, live)
	a, b := env.client(t, 601), env.client(t, 602)
	a.beat(false)
	b.beat(false)
	time.Sleep(3 * lease) // the manager sees nothing: its inbox is empty, as if it were not running
	a.beat(false)
	b.beat(false)
	if _, err := b.lock(1); err != nil {
		t.Fatalf("live member fenced after the manager's own gap: %v", err)
	}
	if n := live.ThreadsDead.Load(); n != 0 {
		t.Fatalf("%d members declared dead across a gap in which the manager did not look", n)
	}
	// Real silence is still detected: b stops, a keeps the table moving.
	for deadline := time.Now().Add(5 * time.Second); live.ThreadsDead.Load() == 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("silent member was never declared dead")
		}
		a.beat(false)
	}
	if _, err := b.lock(2); !errors.Is(err, proto.ErrPeerDied) {
		t.Errorf("silent member's request: %v, want ErrPeerDied", err)
	}
	env.shutdown(t)
}

// Regression: a graceful Bye from a thread still holding sync state must
// reclaim that state. Before the fix the member simply left the table —
// no lease could ever expire for it, so a lock it held leaked forever
// and the parked waiter below hung.
func TestByeReclaimsHeldSyncState(t *testing.T) {
	live := new(stats.Liveness)
	env := newLiveEnv(t, time.Hour, live) // lease can never expire: only Bye reclaims
	holder := env.client(t, 1)
	waiter := env.client(t, 2)
	third := env.client(t, 3)

	holder.beat(false)
	waiter.beat(false)
	third.beat(false)
	if _, err := holder.lock(1); err != nil {
		t.Fatal(err)
	}

	granted := make(chan error, 1)
	go func() {
		_, err := waiter.lock(1) // parks behind holder
		granted <- err
	}()
	for env.mgr.Stats().LockWaits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	// The holder departs gracefully without unlocking.
	holder.beat(true)
	if err := <-granted; err != nil {
		t.Fatalf("parked waiter not granted the lock left behind by a Bye: %v", err)
	}
	if live.LocksReclaimed.Load() == 0 {
		t.Error("Bye with a held lock did not count a reclamation")
	}
	if n := live.ThreadsDead.Load(); n != 0 {
		t.Errorf("graceful Bye declared the member dead (%d)", n)
	}
	if err := waiter.unlock(1, nil, nil); err != nil {
		t.Fatal(err)
	}

	// A Bye also recomputes barriers: with the waiter parked at a
	// 2-party barrier, the third member's departure completes the round
	// at the reduced membership instead of leaving it stuck.
	arrived := make(chan error, 1)
	go func() {
		_, err := waiter.barrier(7, 2, nil)
		arrived <- err
	}()
	for env.mgr.Stats().NoticesStored.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	third.beat(true)
	if err := <-arrived; err != nil {
		t.Fatalf("barrier did not recompute around the departed member: %v", err)
	}
	env.shutdown(t)
}

// Regression: handleCondSignal's uncontended re-acquire must apply the
// same deadThreads fence release() applies. A thread can be declared
// dead while its self-reported node differs from the node it sends from
// (version skew, misconfiguration), so its cond wait can park after the
// reclamation sweep; pre-fix, signaling then landed the lock on the
// corpse and the signaler's next acquire hung forever.
func TestCondSignalEvictsDeadWaiter(t *testing.T) {
	live := new(stats.Liveness)
	env := newLiveEnv(t, 10*time.Millisecond, live)
	w := env.client(t, 601)
	sig := env.client(t, 602)

	// Member 601 self-reports a node id that is not where its requests
	// come from, then goes silent: the death fences node 9601 while
	// requests from node 601 keep flowing.
	if _, err := sig.ep.Post(mgrNode, &proto.Heartbeat{
		Member: 601, Class: proto.MemberThread, Node: 9601,
	}, 0); err != nil {
		t.Fatal(err)
	}
	sig.beat(false)
	deadline := time.Now().Add(5 * time.Second)
	for live.ThreadsDead.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("member 601 was never declared dead")
		}
		time.Sleep(2 * time.Millisecond)
		sig.beat(false)
	}

	// The dead-declared thread parks on the condition (its requests are
	// not fenced: they come from node 601, not 9601).
	if _, err := w.lock(1); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() {
		w.interval++
		var resp proto.CondWaitResp
		_, err := w.ep.Call(mgrNode, &proto.CondWaitReq{
			Cond: 8, Lock: 1, Thread: w.id,
			LastSeen: w.lastSeen, Interval: w.interval,
		}, &resp, w.at)
		waitErr <- err
	}()
	for env.mgr.Stats().CondWaits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	evictedBefore := live.WaitersEvicted.Load()
	var ack proto.Ack
	if _, err := sig.ep.Call(mgrNode, &proto.CondSignalReq{Cond: 8, Thread: sig.id}, &ack, sig.at); err != nil {
		t.Fatal(err)
	}
	// The woken corpse is evicted with a typed error, not granted.
	if err := <-waitErr; err == nil {
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
	if err := sig.unlock(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	env.shutdown(t)
}

// Regression: malformed heartbeats must be observable — counted in
// stats.Liveness and left as a CatLive trace event — instead of being
// silently dropped while the sender's lease quietly starves.
func TestMalformedHeartbeatIsCounted(t *testing.T) {
	live := new(stats.Liveness)
	env := newLiveEnv(t, time.Hour, live)
	// Raw port: a dangling varint continuation byte fails Heartbeat
	// decode at the manager.
	raw := env.fab.NewPort(888)
	if _, err := raw.Post(mgrNode, uint16(proto.KHeartbeat), []byte{0x80}, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for live.HeartbeatsMalformed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("malformed heartbeat was never counted")
		}
		time.Sleep(time.Millisecond)
	}
	env.shutdown(t)
}

// A member that says goodbye (Bye heartbeat) leaves the lease table
// gracefully: it is not declared dead and liveness counters stay quiet.
func TestByeRemovesMemberWithoutDeath(t *testing.T) {
	live := new(stats.Liveness)
	env := newLiveEnv(t, 10*time.Millisecond, live)
	c := env.client(t, 1)
	prodder := env.client(t, 2)

	c.beat(false)
	c.beat(true) // goodbye
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		prodder.beat(false)
		time.Sleep(2 * time.Millisecond)
	}
	if n := live.ThreadsDead.Load(); n != 0 {
		t.Fatalf("retired member declared dead (%d)", n)
	}
	// The departed member is not fenced either.
	if _, err := c.lock(1); err != nil {
		t.Fatalf("request from a retired member failed: %v", err)
	}
	if err := c.unlock(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	env.shutdown(t)
}
