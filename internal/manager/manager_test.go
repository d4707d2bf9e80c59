package manager

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

var testLink = vtime.LinkModel{
	Name:         "test",
	Latency:      1000,
	BytesPerSec:  1e9,
	SendOverhead: 50,
	ServiceTime:  100,
}

const mgrNode = 500

type client struct {
	t  *testing.T
	ep scl.Endpoint
	id uint32
	at vtime.Time

	lastSeen uint64
	interval uint64
}

type testEnv struct {
	mgr *Manager
	fab *simnet.Fabric
	wg  sync.WaitGroup
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	env := &testEnv{fab: simnet.NewFabric(testLink)}
	env.mgr = New(scl.NewSimEndpoint(env.fab, mgrNode), layout.DefaultGeometry())
	env.wg.Add(1)
	go func() {
		defer env.wg.Done()
		env.mgr.Run()
	}()
	t.Cleanup(func() {
		c := env.client(t, 999)
		var ack proto.Ack
		if _, err := c.ep.Call(mgrNode, &proto.Shutdown{}, &ack, 0); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		env.wg.Wait()
	})
	return env
}

// waitUntil polls cond, which reads the manager's counters from another
// goroutine, and fails the test if it does not hold within five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("waited 5s for %s", what)
		}
	}
}

func (e *testEnv) client(t *testing.T, id uint32) *client {
	return &client{t: t, ep: scl.NewSimEndpoint(e.fab, simnet.NodeID(id)), id: id}
}

func (c *client) alloc(size uint64, strategy uint8) (layout.Addr, error) {
	var resp proto.AllocResp
	at, err := c.ep.Call(mgrNode, &proto.AllocReq{Thread: c.id, Size: size, Align: 16, Strategy: strategy}, &resp, c.at)
	if err != nil {
		return 0, err
	}
	c.at = at
	return layout.Addr(resp.Addr), nil
}

func (c *client) free(addr layout.Addr) error {
	var resp proto.FreeResp
	at, err := c.ep.Call(mgrNode, &proto.FreeReq{Thread: c.id, Addr: uint64(addr)}, &resp, c.at)
	if err != nil {
		return err
	}
	c.at = at
	return nil
}

func (c *client) lock(id uint32) (*proto.LockResp, error) {
	var resp proto.LockResp
	at, err := c.ep.Call(mgrNode, &proto.LockReq{Lock: id, Thread: c.id, LastSeen: c.lastSeen}, &resp, c.at)
	if err != nil {
		return nil, err
	}
	c.at = at
	c.lastSeen = resp.Seq
	return &resp, nil
}

func (c *client) unlock(id uint32, pages []uint64, records []proto.StoreRecord) error {
	c.interval++
	var ack proto.Ack
	at, err := c.ep.Call(mgrNode, &proto.UnlockReq{
		Lock: id, Thread: c.id, Interval: c.interval, Pages: pages, Records: records,
	}, &ack, c.at)
	if err != nil {
		return err
	}
	c.at = at
	return nil
}

func (c *client) barrier(id, count uint32, pages []uint64) (*proto.BarrierResp, error) {
	c.interval++
	var resp proto.BarrierResp
	at, err := c.ep.Call(mgrNode, &proto.BarrierReq{
		Barrier: id, Count: count, Thread: c.id,
		LastSeen: c.lastSeen, Interval: c.interval, Pages: pages,
	}, &resp, c.at)
	if err != nil {
		return nil, err
	}
	c.at = at
	c.lastSeen = resp.Seq
	return &resp, nil
}

func TestAllocStrategiesAndZones(t *testing.T) {
	env := newEnv(t)
	c := env.client(t, 1)
	geo := layout.DefaultGeometry()

	arena, err := c.alloc(256<<10, proto.AllocArenaChunk)
	if err != nil {
		t.Fatal(err)
	}
	if arena < ArenaZoneBase || arena >= SharedZoneBase {
		t.Errorf("arena chunk at %#x outside arena zone", uint64(arena))
	}
	if uint64(arena)%uint64(geo.LineSize()) != 0 {
		t.Errorf("arena chunk not line-aligned: %#x", uint64(arena))
	}

	shared, err := c.alloc(100, proto.AllocShared)
	if err != nil {
		t.Fatal(err)
	}
	if shared < SharedZoneBase || shared >= StripedZoneBase {
		t.Errorf("shared alloc at %#x outside shared zone", uint64(shared))
	}

	striped, err := c.alloc(10<<20, proto.AllocStriped)
	if err != nil {
		t.Fatal(err)
	}
	if striped < StripedZoneBase {
		t.Errorf("striped alloc at %#x outside striped zone", uint64(striped))
	}
	if uint64(striped)%uint64(geo.LineSize()*geo.NumServers) != 0 {
		t.Errorf("striped alloc not group-aligned: %#x", uint64(striped))
	}

	for _, a := range []layout.Addr{arena, shared, striped} {
		if err := c.free(a); err != nil {
			t.Errorf("free %#x: %v", uint64(a), err)
		}
	}
	if err := c.free(42); err == nil {
		t.Error("free outside all zones succeeded")
	}
}

func TestLockUnlockAndNotices(t *testing.T) {
	env := newEnv(t)
	c1 := env.client(t, 1)
	c2 := env.client(t, 2)

	if _, err := c1.lock(7); err != nil {
		t.Fatal(err)
	}
	recs := []proto.StoreRecord{{Addr: 4096, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}
	if err := c1.unlock(7, []uint64{3, 4}, recs); err != nil {
		t.Fatal(err)
	}

	resp, err := c2.lock(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Notices) != 1 {
		t.Fatalf("got %d notices, want 1", len(resp.Notices))
	}
	n := resp.Notices[0]
	if n.Tag.Writer != 1 || n.Tag.Interval != 1 {
		t.Errorf("notice tag %+v", n.Tag)
	}
	if len(n.Pages) != 2 || n.Pages[0] != 3 {
		t.Errorf("notice pages %v", n.Pages)
	}
	if len(n.Records) != 1 || n.Records[0].Addr != 4096 {
		t.Errorf("notice records %+v", n.Records)
	}

	// A second acquire by c2 after seeing everything returns only what
	// c2 itself released since.
	if err := c2.unlock(7, []uint64{5}, nil); err != nil {
		t.Fatal(err)
	}
	resp2, err := c2.lock(7)
	if err != nil {
		t.Fatal(err)
	}
	// c2's own release is the only unseen notice; the manager sends it
	// (clients filter their own writer id).
	if len(resp2.Notices) != 1 || resp2.Notices[0].Tag.Writer != 2 {
		t.Errorf("unexpected notices %+v", resp2.Notices)
	}
}

func TestUnlockByNonHolderFails(t *testing.T) {
	env := newEnv(t)
	c1 := env.client(t, 1)
	c2 := env.client(t, 2)
	if _, err := c1.lock(1); err != nil {
		t.Fatal(err)
	}
	if err := c2.unlock(1, nil, nil); err == nil {
		t.Fatal("unlock by non-holder succeeded")
	}
	if err := c1.unlock(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Unlocking a free lock also fails.
	if err := c1.unlock(1, nil, nil); err == nil {
		t.Fatal("unlock of free lock succeeded")
	}
}

func TestLockContentionFIFOAndVirtualTime(t *testing.T) {
	env := newEnv(t)
	holder := env.client(t, 1)
	if _, err := holder.lock(5); err != nil {
		t.Fatal(err)
	}

	// A second client requests the lock while held; its grant must come
	// after the holder's unlock in virtual time.
	c2 := env.client(t, 2)
	granted := make(chan vtime.Time)
	go func() {
		if _, err := c2.lock(5); err != nil {
			t.Errorf("c2 lock: %v", err)
		}
		granted <- c2.at
	}()

	// Hold until c2 is definitely queued.
	for env.mgr.Stats().LockWaits.Load() == 0 {
	}
	holder.at = 1_000_000 // unlock late in virtual time
	if err := holder.unlock(5, nil, nil); err != nil {
		t.Fatal(err)
	}
	grantAt := <-granted
	if grantAt < 1_000_000+testLink.Latency {
		t.Errorf("grant at %v, before the unlock could reach the manager", grantAt)
	}
}

func TestBarrierReleasesAllWithNotices(t *testing.T) {
	env := newEnv(t)
	const n = 4
	var wg sync.WaitGroup
	seqs := make([]uint64, n)
	notices := make([][]proto.Notice, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := env.client(t, uint32(i+1))
			resp, err := c.barrier(9, n, []uint64{uint64(100 + i)})
			if err != nil {
				t.Errorf("barrier: %v", err)
				return
			}
			seqs[i] = resp.Seq
			notices[i] = resp.Notices
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if seqs[i] != seqs[0] {
			t.Errorf("thread %d released at seq %d, thread 0 at %d", i, seqs[i], seqs[0])
		}
		if len(notices[i]) != n {
			t.Errorf("thread %d got %d notices, want %d", i, len(notices[i]), n)
		}
	}
	// Barrier is reusable: a second round works.
	var wg2 sync.WaitGroup
	for i := 0; i < n; i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			c := env.client(t, uint32(10+i))
			if _, err := c.barrier(9, n, nil); err != nil {
				t.Errorf("round 2: %v", err)
			}
		}(i)
	}
	wg2.Wait()
}

func TestBarrierCountMismatch(t *testing.T) {
	env := newEnv(t)
	c1 := env.client(t, 1)
	done := make(chan error, 1)
	go func() {
		_, err := c1.barrier(3, 2, nil)
		done <- err
	}()
	// Ensure c1's arrival is registered first, so the barrier's count is
	// fixed at 2 before the mismatching arrival.
	waitUntil(t, "the first arrival to park", func() bool { return env.mgr.Stats().BarrierWaits.Load() == 1 })
	c2 := env.client(t, 2)
	if _, err := c2.barrier(3, 5, nil); err == nil {
		t.Error("mismatched count accepted")
	} else if !strings.Contains(err.Error(), "count mismatch") {
		t.Errorf("unexpected error: %v", err)
	}
	c3 := env.client(t, 3)
	if _, err := c3.barrier(3, 2, nil); err != nil {
		t.Errorf("completing arrival failed: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("first arrival failed: %v", err)
	}
	if _, err := c2.barrier(0, 0, nil); err == nil {
		t.Error("zero-count barrier accepted")
	}
}

func TestCondWaitSignal(t *testing.T) {
	env := newEnv(t)
	waiter := env.client(t, 1)
	signaler := env.client(t, 2)

	if _, err := waiter.lock(1); err != nil {
		t.Fatal(err)
	}
	woken := make(chan *proto.CondWaitResp, 1)
	go func() {
		waiter.interval++
		var resp proto.CondWaitResp
		at, err := waiter.ep.Call(mgrNode, &proto.CondWaitReq{
			Cond: 8, Lock: 1, Thread: waiter.id,
			LastSeen: waiter.lastSeen, Interval: waiter.interval,
			Pages: []uint64{55},
		}, &resp, waiter.at)
		if err != nil {
			t.Errorf("cond wait: %v", err)
			return
		}
		waiter.at = at
		woken <- &resp
	}()

	// The signaler can take the lock while the waiter sleeps — the wait
	// released it. Loop until the waiter's release notice (pages {55},
	// writer 1) is visible, which proves the wait has parked.
	for parked := false; !parked; {
		resp, err := signaler.lock(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range resp.Notices {
			if n.Tag.Writer == waiter.id && len(n.Pages) == 1 && n.Pages[0] == 55 {
				parked = true
			}
		}
		if parked {
			break
		}
		if err := signaler.unlock(1, nil, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Signal, then unlock so the waiter can re-acquire.
	var ack proto.Ack
	if _, err := signaler.ep.Call(mgrNode, &proto.CondSignalReq{Cond: 8, Thread: signaler.id}, &ack, signaler.at); err != nil {
		t.Fatal(err)
	}
	select {
	case <-woken:
		t.Fatal("waiter woke while signaler still held the lock")
	default:
	}
	if err := signaler.unlock(1, []uint64{77}, nil); err != nil {
		t.Fatal(err)
	}
	resp := <-woken
	found := false
	for _, n := range resp.Notices {
		for _, p := range n.Pages {
			if p == 77 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("waiter missed the signaler's release notice: %+v", resp.Notices)
	}
	// Waiter holds the lock again.
	waiter.lastSeen = resp.Seq
	if err := waiter.unlock(1, nil, nil); err != nil {
		t.Errorf("waiter does not hold the lock after wakeup: %v", err)
	}
}

func TestCondWaitWithoutLockFails(t *testing.T) {
	env := newEnv(t)
	c := env.client(t, 1)
	var resp proto.CondWaitResp
	if _, err := c.ep.Call(mgrNode, &proto.CondWaitReq{Cond: 1, Lock: 1, Thread: c.id}, &resp, 0); err == nil {
		t.Fatal("cond wait without holding lock succeeded")
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	env := newEnv(t)
	const n = 3
	woken := make(chan int, n)
	var entered sync.WaitGroup
	for i := 0; i < n; i++ {
		entered.Add(1)
		go func(i int) {
			c := env.client(t, uint32(i+1))
			if _, err := c.lock(2); err != nil {
				t.Errorf("lock: %v", err)
				entered.Done()
				return
			}
			var resp proto.CondWaitResp
			entered.Done()
			_, err := c.ep.Call(mgrNode, &proto.CondWaitReq{
				Cond: 4, Lock: 2, Thread: c.id, Interval: 1,
			}, &resp, c.at)
			if err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			// Re-holds the lock; release it for the next waiter.
			c.lastSeen = resp.Seq
			c.interval = 1
			if err := c.unlock(2, nil, nil); err != nil {
				t.Errorf("unlock after wake: %v", err)
				return
			}
			woken <- i
		}(i)
	}
	entered.Wait()

	// Wait until all three are parked on the cond.
	for env.mgr.Stats().CondWaits.Load() < n {
	}
	sig := env.client(t, 99)
	var ack proto.Ack
	if _, err := sig.ep.Call(mgrNode, &proto.CondSignalReq{Cond: 4, Thread: sig.id, Broadcast: true}, &ack, sig.at); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		seen[<-woken] = true
	}
	if len(seen) != n {
		t.Fatalf("woken set %v", seen)
	}
}

func TestNoticePruningAfterAllThreadsSee(t *testing.T) {
	env := newEnv(t)
	c1 := env.client(t, 1)
	c2 := env.client(t, 2)

	// Register both via an acquire each so the pruning horizon knows
	// them.
	if _, err := c1.lock(1); err != nil {
		t.Fatal(err)
	}
	if err := c1.unlock(1, []uint64{100}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.lock(1); err != nil {
		t.Fatal(err)
	}
	if err := c2.unlock(1, []uint64{200}, nil); err != nil {
		t.Fatal(err)
	}
	// Both acquire again: everyone's horizon reaches the top, so all
	// notices become prunable.
	if _, err := c1.lock(1); err != nil {
		t.Fatal(err)
	}
	if err := c1.unlock(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.lock(1); err != nil {
		t.Fatal(err)
	}
	if err := c2.unlock(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := env.mgr.Stats().NoticesPruned.Load(); got == 0 {
		t.Error("no notices were ever pruned")
	}
}

func TestUnregisteredThirdThreadHoldsNoNoticesBack(t *testing.T) {
	// A thread that registers explicitly but never acquires pins the
	// pruning horizon at its registration point, so notices keep
	// accumulating (consistency over memory).
	env := newEnv(t)
	c3 := env.client(t, 3)
	var ack proto.Ack
	if _, err := c3.ep.Call(mgrNode, &proto.RegisterReq{Thread: 3}, &ack, 0); err != nil {
		t.Fatal(err)
	}
	c1 := env.client(t, 1)
	for i := 0; i < 5; i++ {
		if _, err := c1.lock(1); err != nil {
			t.Fatal(err)
		}
		if err := c1.unlock(1, []uint64{uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := env.mgr.Stats().NoticesPruned.Load(); got != 0 {
		t.Errorf("notices pruned past an unseen registered thread: %d", got)
	}
	// Once the third thread acquires, it receives everything.
	resp, err := c3.lock(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Notices) != 5 {
		t.Errorf("registered latecomer got %d notices, want 5", len(resp.Notices))
	}
}

func TestLockGrantOrderIsFIFO(t *testing.T) {
	env := newEnv(t)
	holder := env.client(t, 1)
	if _, err := holder.lock(9); err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	order := make(chan uint32, waiters)
	// The last waiter's unlock may still be in flight when its grant is
	// read; the test waits for it, or it would report into a finished test.
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < waiters; i++ {
		c := env.client(t, uint32(10+i))
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if _, err := c.lock(9); err != nil {
				t.Errorf("lock: %v", err)
				return
			}
			order <- c.id
			if err := c.unlock(9, nil, nil); err != nil {
				t.Errorf("unlock: %v", err)
			}
		}(c)
		// Wait until this waiter is queued before launching the next,
		// pinning the FIFO order.
		for env.mgr.Stats().LockWaits.Load() != int64(i+1) {
		}
	}
	if err := holder.unlock(9, nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < waiters; i++ {
		if got := <-order; got != uint32(10+i) {
			t.Fatalf("grant %d went to thread %d, want %d", i, got, 10+i)
		}
	}
}
