package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/proto"
	"repro/internal/vm"
	"repro/internal/vtime"
)

// A train the manager dispatches at a peer-to-peer handoff is anchored
// at the unlock it just filed, above the new holder's own horizon: the
// anchor has to cover the closing intervals of the train before it. A
// page that holder ships with its grant may therefore lack a write the
// successor learns of from its backlog.
//
// Here a (lock A's data) and b (lock B's) share a page. Z holds A while
// X and then W queue; Z's release grants X centrally with the train [W].
// S queues while X holds A, so it rides the second train, which the
// manager dispatches to W at X's handoff. Y writes b under B meanwhile.
// W's copy of the page predates Y's write, and W never hears of it, but
// W ships that copy to S, whose backlog names Y's write. S must still
// read Y's b when it takes B afterwards.
func TestSecondTrainGrantPageMissesNoWrite(t *testing.T) {
	const (
		z, x, w, s, y = 0, 1, 2, 3, 4
		us            = vtime.Time(1000)
	)
	rt := newRuntime(t, DefaultConfig())
	tap := &grantTap{Transport: rt.transport}
	rt.transport = tap
	lockA, lockB := rt.NewMutex(), rt.NewMutex()
	bar := rt.NewBarrier(5)
	var shared, other atomic.Uint64
	var got atomic.Int64
	if _, err := rt.Run(5, func(th vm.Thread) {
		if th.ID() == z {
			shared.Store(uint64(th.GlobalAlloc(64)))
			other.Store(uint64(th.GlobalAlloc(1 << 20)))
		}
		bar.Wait(th)
		a := vm.Addr(shared.Load())
		b := a + 8
		start := th.Clock()
		switch th.ID() {
		case z:
			th.SleepUntil(start + 50*us)
			lockA.Lock(th)
			th.SleepUntil(start + 1000*us)
			lockA.Unlock(th)
		case x:
			th.SleepUntil(start + 100*us)
			lockA.Lock(th)
			th.WriteInt64(a, th.ReadInt64(a)+1) // fetched in the region: shipped on
			th.SleepUntil(start + 2000*us)
			lockA.Unlock(th)
		case w:
			th.ReadInt64(b) // W's copy of the page, from before Y's write
			th.SleepUntil(start + 200*us)
			lockA.Lock(th)
			th.ReadInt64(vm.Addr(other.Load()) + 512<<10) // a fetch: the second train lands meanwhile
			th.WriteInt64(a, th.ReadInt64(a)+1)
			lockA.Unlock(th)
		case s:
			th.SleepUntil(start + 1500*us)
			lockA.Lock(th)
			th.WriteInt64(a, th.ReadInt64(a)+1)
			lockA.Unlock(th)
			lockB.Lock(th)
			got.Store(th.ReadInt64(b))
			lockB.Unlock(th)
		case y:
			th.SleepUntil(start + 1600*us)
			lockB.Lock(th)
			th.WriteInt64(b, 42)
			lockB.Unlock(th)
		}
		bar.Wait(th)
	}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 42 {
		t.Fatalf("S read b = %d under lock B after Y wrote 42 under it", got.Load())
	}
	// The interleaving happened: X granted W peer-to-peer, and W granted
	// S peer-to-peer from the second train, anchored above W's own grant.
	grant := func(from, to int) *proto.LockGrant {
		for i, body := range tap.grants {
			if tap.srcs[i] == ThreadNode(from+1) && tap.dsts[i] == ThreadNode(to+1) {
				var g proto.LockGrant
				if err := proto.Decode(&g, body); err != nil {
					t.Fatal(err)
				}
				return &g
			}
		}
		t.Fatalf("thread %d never granted lock A to thread %d peer-to-peer; the schedule moved", from, to)
		return nil
	}
	if toW, toS := grant(x, w), grant(w, s); toS.Seq <= toW.Seq {
		t.Fatalf("W's grant to S is anchored at %d, not above W's own grant at %d: not a second train", toS.Seq, toW.Seq)
	}
}
