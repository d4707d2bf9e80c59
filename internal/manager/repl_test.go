package manager

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
)

const followerNode = 501

// replEnv is a two-replica manager group on one fabric: the leader at
// mgrNode (so the manager_test client helpers address it) and one
// standby follower.
type replEnv struct {
	leader   *Manager
	follower *Manager
	fab      *simnet.Fabric
	wg       sync.WaitGroup
}

func newReplEnv(t *testing.T, shards int) *replEnv {
	t.Helper()
	return newReplEnvLease(t, shards, 0)
}

// newReplEnvLease also turns liveness on at both replicas when lease is
// positive, which is what arms the leader's lease renewal.
func newReplEnvLease(t *testing.T, shards int, lease time.Duration) *replEnv {
	t.Helper()
	env := &replEnv{fab: simnet.NewFabric(testLink)}
	nodes := []scl.NodeID{mgrNode, followerNode}
	env.leader = New(scl.NewSimEndpoint(env.fab, mgrNode), layout.DefaultGeometry())
	env.leader.SetShards(shards)
	env.leader.SetReplication(Replication{Self: 0, Nodes: nodes})
	env.follower = New(scl.NewSimEndpoint(env.fab, followerNode), layout.DefaultGeometry())
	env.follower.SetShards(shards)
	env.follower.SetReplication(Replication{Self: 1, Nodes: nodes})
	if lease > 0 {
		env.leader.EnableLiveness(lease, nil, nil)
		env.follower.EnableLiveness(lease, nil, nil)
	}
	env.wg.Add(2)
	go func() {
		defer env.wg.Done()
		env.leader.Run()
	}()
	go func() {
		defer env.wg.Done()
		env.follower.Run()
	}()
	t.Cleanup(func() {
		ep := scl.NewSimEndpoint(env.fab, 999)
		var ack proto.Ack
		if _, err := ep.Call(mgrNode, &proto.Shutdown{}, &ack, 0); err != nil {
			t.Errorf("shutdown leader: %v", err)
		}
		if _, err := ep.Call(followerNode, &proto.Shutdown{}, &ack, 0); err != nil {
			t.Errorf("shutdown follower: %v", err)
		}
		env.wg.Wait()
	})
	return env
}

// An idle leader still pushes an empty append to its followers every
// half lease: the ticker only posts the manager a heartbeat, and the Run
// goroutine does the push. The follower gets the same prods and must
// neither push nor reap.
func TestIdleLeaderRenewsItsLease(t *testing.T) {
	env := newReplEnvLease(t, 1, 4*time.Millisecond)
	appends := &env.leader.repl.live.MgrReplAppends
	for deadline := time.Now().Add(5 * time.Second); appends.Load() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("idle leader made %d lease-renewal appends in 5s, want at least 3", appends.Load())
		}
	}
	if n := env.follower.repl.live.MgrReplAppends.Load(); n != 0 {
		t.Errorf("follower pushed %d appends", n)
	}
}

func (e *replEnv) client(t *testing.T, id uint32) *client {
	return &client{t: t, ep: scl.NewSimEndpoint(e.fab, simnet.NodeID(id)), id: id}
}

func noticePages(ns []proto.Notice) map[uint64]bool {
	pages := make(map[uint64]bool)
	for _, n := range ns {
		for _, p := range n.Pages {
			pages[p] = true
		}
	}
	return pages
}

// TestFailoverCarriesStateAndDeposesStaleLeader drives real client
// traffic through a replicated leader, promotes the follower, and
// checks both halves of the failover contract: the promoted replica
// answers from the replicated state (notice directory and allocation
// zones carried over), and the stale old leader is deposed by the
// higher term the moment it tries to replicate again, refusing clients
// with the retryable CodeNotLeader.
func TestFailoverCarriesStateAndDeposesStaleLeader(t *testing.T) {
	env := newReplEnv(t, 2)

	// Two lock tenures with write notices, served by the leader and
	// replicated to the follower.
	c1 := env.client(t, 1)
	if _, err := c1.lock(7); err != nil {
		t.Fatal(err)
	}
	if err := c1.unlock(7, []uint64{4, 5}, nil); err != nil {
		t.Fatal(err)
	}
	c2 := env.client(t, 2)
	resp, err := c2.lock(7)
	if err != nil {
		t.Fatal(err)
	}
	pre := noticePages(resp.Notices)
	if !pre[4] || !pre[5] {
		t.Fatalf("pre-failover acquire missed notices: got pages %v, want 4 and 5", pre)
	}
	if err := c2.unlock(7, []uint64{6}, nil); err != nil {
		t.Fatal(err)
	}
	addr1, err := c1.alloc(4096, proto.AllocShared)
	if err != nil {
		t.Fatal(err)
	}

	// Promote the follower under a strictly higher term.
	ctl := scl.NewSimEndpoint(env.fab, 600)
	var ack proto.Ack
	if _, err := ctl.Call(followerNode, &proto.PromoteMgr{Term: 2}, &ack, 0); err != nil {
		t.Fatalf("promote: %v", err)
	}

	// The old leader still thinks it leads; its next replication round
	// is NACKed from term 2, deposing it mid-request.
	c3 := env.client(t, 3)
	if _, err := c3.lock(7); err == nil {
		t.Fatal("stale leader granted a lock after its follower was promoted")
	} else {
		if !errors.Is(err, proto.ErrNotLeader) {
			t.Fatalf("stale leader error = %v, want ErrNotLeader", err)
		}
		if !scl.IsTransient(err) {
			t.Fatalf("deposed-leader refusal %v must be retryable", err)
		}
	}

	// The promoted replica serves the same acquire from its replicated
	// state: every pre-failover write notice, at a seq that advanced.
	var lr proto.LockResp
	if _, err := c3.ep.Call(followerNode, &proto.LockReq{Lock: 7, Thread: 3}, &lr, 0); err != nil {
		t.Fatalf("lock on promoted replica: %v", err)
	}
	post := noticePages(lr.Notices)
	for _, p := range []uint64{4, 5, 6} {
		if !post[p] {
			t.Errorf("promoted replica lost notice page %d (got %v)", p, post)
		}
	}
	if lr.Seq == 0 {
		t.Error("promoted replica issued seq 0: notice directory not carried over")
	}

	// And its allocation zones continue where the old leader stopped.
	var ar proto.AllocResp
	if _, err := c3.ep.Call(followerNode, &proto.AllocReq{Thread: 3, Size: 4096, Align: 16, Strategy: proto.AllocShared}, &ar, 0); err != nil {
		t.Fatalf("alloc on promoted replica: %v", err)
	}
	addr2 := layout.Addr(ar.Addr)
	if addr2 < addr1+4096 && addr1 < addr2+4096 {
		t.Errorf("post-failover alloc %#x overlaps pre-failover alloc %#x", uint64(addr2), uint64(addr1))
	}
}

// TestSnapshotRoundTripRestoresParkedWaiters feeds a follower's apply
// path directly (no fabric traffic), snapshots it, and installs the
// snapshot on a fresh replica: the encoded state must round-trip
// bit-identically, parked lock waiters and half-complete barriers
// included, and the restored replica must continue the state machine
// after promotion — granting a restored waiter on the next unlock.
func TestSnapshotRoundTripRestoresParkedWaiters(t *testing.T) {
	fab := simnet.NewFabric(testLink)
	geo := layout.DefaultGeometry()
	nodesA := []scl.NodeID{499, mgrNode}
	a := New(scl.NewSimEndpoint(fab, mgrNode), geo)
	a.SetShards(2)
	a.SetReplication(Replication{Self: 1, Nodes: nodesA})

	apply := func(m *Manager, src uint32, msg proto.Msg) {
		m.applyEntry(proto.ReplEntry{Src: src, Kind: uint16(msg.Kind()), Body: proto.Encode(msg)})
	}

	// A mutation history touching every snapshotted table: zones, the
	// notice directory, a held lock with a parked waiter, and a
	// half-complete barrier.
	apply(a, 1, &proto.AllocReq{Thread: 1, Size: 4096, Align: 16, Strategy: proto.AllocShared})
	apply(a, 1, &proto.LockReq{Lock: 3, Thread: 1})
	apply(a, 1, &proto.UnlockReq{Lock: 3, Thread: 1, Interval: 1, Pages: []uint64{10, 11}})
	apply(a, 2, &proto.LockReq{Lock: 3, Thread: 2})
	apply(a, 1, &proto.LockReq{Lock: 3, Thread: 1}) // parks behind thread 2
	apply(a, 2, &proto.BarrierReq{Barrier: 5, Count: 2, Thread: 2, Interval: 1, Pages: []uint64{12}})

	snap := a.encodeState()

	b := New(scl.NewSimEndpoint(fab, followerNode), geo)
	b.SetShards(2)
	b.SetReplication(Replication{Self: 1, Nodes: []scl.NodeID{499, followerNode}})
	if err := b.restoreState(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := b.encodeState(); !bytes.Equal(got, snap) {
		t.Fatalf("snapshot does not round-trip: re-encoded %d bytes != original %d bytes", len(got), len(snap))
	}

	ls := b.shards[b.shardOf(3)].locks[3]
	if ls == nil || !ls.held || ls.holder != 2 {
		t.Fatalf("restored lock 3 = %+v, want held by thread 2", ls)
	}
	if len(ls.queue) != 1 || ls.queue[0].thread != 1 {
		t.Fatalf("restored lock 3 queue = %+v, want the parked thread-1 waiter", ls.queue)
	}
	bs := b.shards[b.shardOf(5)].barriers[5]
	if bs == nil || bs.count != 2 || len(bs.arrived) != 1 || bs.arrived[0].thread != 2 {
		t.Fatalf("restored barrier 5 = %+v, want count 2 with thread 2 arrived", bs)
	}

	// Promotion continues the state machine exactly where the snapshot
	// left it: the next unlock hands lock 3 to the restored waiter.
	b.promote(2)
	if r := b.repl; !r.leader || r.term != 2 || r.prop == nil || r.prop.Term != 2 {
		t.Fatalf("promotion left replica in leader=%v term=%d", r.leader, r.term)
	}
	apply(b, 2, &proto.UnlockReq{Lock: 3, Thread: 2, Interval: 2, Pages: []uint64{13}})
	ls = b.shards[b.shardOf(3)].locks[3]
	if !ls.held || ls.holder != 1 || len(ls.queue) != 0 {
		t.Fatalf("post-promotion unlock left lock 3 = %+v, want granted to restored waiter 1", ls)
	}
}

// ROADMAP 1(c), end to end at one replica. A follower applies a lock
// handover from the log: thread 1 releases lock 7 with a write notice,
// the grant to thread 2 and thread 1's next acquire are answered into
// the void. The leader dies before thread 2 hears of its grant, the
// follower is promoted, and thread 2 re-issues its LockReq with the
// horizon it really has. The promoted replica must answer with thread
// 1's notice, or thread 2 never invalidates the page.
func TestReissuedAcquireAfterFailoverStillCarriesItsNotices(t *testing.T) {
	fab := simnet.NewFabric(testLink)
	b := New(scl.NewSimEndpoint(fab, followerNode), layout.DefaultGeometry())
	b.SetReplication(Replication{Self: 1, Nodes: []scl.NodeID{499, followerNode}})
	apply := func(src uint32, msg proto.Msg) {
		b.applyEntry(proto.ReplEntry{Src: src, Kind: uint16(msg.Kind()), Body: proto.Encode(msg)})
	}
	apply(1, &proto.LockReq{Lock: 7, Thread: 1})
	apply(2, &proto.LockReq{Lock: 7, Thread: 2}) // parks behind thread 1
	apply(1, &proto.UnlockReq{Lock: 7, Thread: 1, Interval: 1, Pages: []uint64{24}})
	apply(1, &proto.LockReq{Lock: 8, Thread: 1})
	b.promote(2)

	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Run()
	}()
	cli := scl.NewSimEndpoint(fab, 2)
	t.Cleanup(func() {
		var ack proto.Ack
		if _, err := cli.Call(followerNode, &proto.Shutdown{}, &ack, 0); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	})
	var lr proto.LockResp
	if _, err := cli.Call(followerNode, &proto.LockReq{Lock: 7, Thread: 2}, &lr, 0); err != nil {
		t.Fatalf("re-issued lock: %v", err)
	}
	if !noticePages(lr.Notices)[24] || lr.Seq != 1 {
		t.Fatalf("re-issued acquire answered seq %d with pages %v, want seq 1 with page 24",
			lr.Seq, noticePages(lr.Notices))
	}
	if grants := b.stats.LockGrants.Load(); grants != 3 {
		t.Errorf("%d grants after the re-issue, want 3 (answered from the recorded tenure)", grants)
	}
}
