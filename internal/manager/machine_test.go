package manager

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/stats"
)

// One transition per row: a call goes into step and the test reads what
// came out, the effects queued and the state left behind. No fabric, no
// goroutine, no clock. Thread t calls from node 10+t.

// sent is one expected effect: where it goes and the message it carries.
type sent struct {
	dst uint32
	msg proto.Msg
}

type stepRow struct {
	name     string
	follower bool             // the manager is replica 1 of 2, not a group of one
	setup    func(e *stepEnv) // calls made before the one under test
	from     uint32           // calling node
	msg      func() proto.Msg // the call under test
	want     []sent           // the effects it queues, in order
	state    func(w *Manager) // what it changes, applied to a copy of the state before
	check    func(m *Manager) string
}

// recorded is the reply record an allocation-plane request numbered seq
// leaves its writer, answered with resp.
func recorded(seq uint64, resp proto.Msg) *replyRecord {
	return &replyRecord{seq: seq, kind: resp.Kind(), body: proto.Encode(resp)}
}

// stepCall makes thread t's call and insists on an immediate answer.
func stepCall(e *stepEnv, t uint32, m, resp proto.Msg) {
	e.t.Helper()
	if err := e.client(10+t).call(m, resp); err != nil {
		e.t.Fatalf("setup %v: %v", m.Kind(), err)
	}
}

// stepPark makes thread t's call and insists that it parks.
func stepPark(e *stepEnv, t uint32, m proto.Msg) {
	e.t.Helper()
	if e.answered(e.client(10 + t).start(m)) {
		e.t.Fatalf("setup %v was answered, want it parked", m.Kind())
	}
}

func TestStepTable(t *testing.T) {
	geo := layout.DefaultGeometry()
	pageSize := uint64(geo.PageSize)
	notice := proto.Notice{Seq: 1, Tag: proto.IntervalTag{Writer: 1, Interval: 1}, Pages: []uint64{4}}
	holds := func(e *stepEnv) { stepCall(e, 1, &proto.LockReq{Lock: 7, Thread: 1}, &proto.LockResp{}) }
	leaderState := func() []byte {
		e := newStepEnv(t, 1, time.Hour, nil)
		e.client(11).beatFor(1, false)
		holds(e)
		stepPark(e, 2, &proto.LockReq{Lock: 7, Thread: 2})
		return e.mgr.encodeState()
	}

	rows := []stepRow{{
		name: "register",
		from: 11, msg: func() proto.Msg { return &proto.RegisterReq{Thread: 1} },
		want:  []sent{{11, &proto.Ack{}}},
		state: func(w *Manager) { w.board.lastSeen[1] = 0 },
	}, {
		name: "alloc",
		from: 11, msg: func() proto.Msg {
			return &proto.AllocReq{Thread: 1, Size: 100, Align: 16, Strategy: proto.AllocShared, Seq: 1}
		},
		want: []sent{{11, &proto.AllocResp{Addr: uint64(SharedZoneBase)}}},
		state: func(w *Manager) {
			z := w.sharedZone
			z.next = SharedZoneBase + 100
			z.allocs[SharedZoneBase] = 100
			w.replies[1] = recorded(1, &proto.AllocResp{Addr: uint64(SharedZoneBase)})
		},
	}, {
		name: "free",
		setup: func(e *stepEnv) {
			stepCall(e, 1, &proto.AllocReq{Thread: 1, Size: 100, Align: 16, Strategy: proto.AllocShared, Seq: 1}, &proto.AllocResp{})
		},
		from: 11, msg: func() proto.Msg { return &proto.FreeReq{Thread: 1, Addr: uint64(SharedZoneBase), Seq: 2} },
		want: []sent{{11, &proto.FreeResp{}}},
		state: func(w *Manager) {
			z := w.sharedZone
			z.next = SharedZoneBase
			delete(z.allocs, SharedZoneBase)
			w.replies[1] = recorded(2, &proto.FreeResp{})
		},
	}, {
		name: "lock",
		from: 11, msg: func() proto.Msg { return &proto.LockReq{Lock: 7, Thread: 1} },
		want: []sent{{11, &proto.LockResp{}}},
		state: func(w *Manager) {
			w.board.lastSeen[1] = 0
			w.shards[0].locks[7] = &lockState{held: true, holder: 1, holderNode: 11, gen: 1}
		},
	}, {
		name:  "lock held by another: parks",
		setup: holds,
		from:  12, msg: func() proto.Msg { return &proto.LockReq{Lock: 7, Thread: 2, LastSeen: 0} },
		state: func(w *Manager) {
			w.board.lastSeen[2] = 0
			ls := w.shards[0].locks[7]
			ls.queue = append(ls.queue, waiter{thread: 2, node: 12, kind: waitLock})
		},
	}, {
		name: "unlock hands the lock to the parked waiter",
		setup: func(e *stepEnv) {
			holds(e)
			stepPark(e, 2, &proto.LockReq{Lock: 7, Thread: 2})
		},
		from: 11, msg: func() proto.Msg { return &proto.UnlockReq{Lock: 7, Thread: 1, Interval: 1, Pages: []uint64{4}} },
		want: []sent{{11, &proto.Ack{}}, {12, &proto.LockResp{Seq: 1, Notices: []proto.Notice{notice}}}},
		state: func(w *Manager) {
			w.board.issued = 1
			w.board.notices = []proto.Notice{notice}
			w.board.lastInterval[1] = 1
			w.board.lastSeen[2] = 1
			*w.shards[0].locks[7] = lockState{held: true, holder: 2, holderNode: 12, gen: 2, grantSeq: 1}
		},
	}, {
		name: "barrier: the last arrival releases the round",
		setup: func(e *stepEnv) {
			stepPark(e, 1, &proto.BarrierReq{Barrier: 9, Count: 2, Thread: 1, Interval: 1, Pages: []uint64{4}})
		},
		from: 12, msg: func() proto.Msg { return &proto.BarrierReq{Barrier: 9, Count: 2, Thread: 2, LastSeen: 1, Interval: 1} },
		// Thread 2's interval wrote nothing: its ticket is a gap, and the
		// frontier passes it.
		want: []sent{
			{11, &proto.BarrierResp{Seq: 2, Notices: []proto.Notice{notice}}},
			{12, &proto.BarrierResp{Seq: 2}},
		},
		state: func(w *Manager) {
			// Both threads saw ticket 2, so the directory is empty again.
			w.board.issued = 2
			w.board.notices = nil
			w.board.lastInterval[2] = 1
			w.board.lastSeen[1], w.board.lastSeen[2] = 2, 2
			bs := w.shards[0].barriers[9]
			bs.epoch, bs.arrived = 1, nil
		},
	}, {
		name:  "cond wait releases the lock and parks",
		setup: holds,
		from:  11, msg: func() proto.Msg {
			return &proto.CondWaitReq{Cond: 8, Lock: 7, Thread: 1, Interval: 1, Pages: []uint64{4}}
		},
		state: func(w *Manager) {
			w.board.issued = 1
			w.board.notices = []proto.Notice{notice}
			w.board.lastInterval[1] = 1
			w.shards[0].locks[7].held = false
			w.shards[0].conds[8] = &condState{waiters: []condEntry{{lock: 7, w: waiter{thread: 1, node: 11, kind: waitCond}}}}
		},
	}, {
		name: "cond signal wakes the waiter into its lock",
		setup: func(e *stepEnv) {
			holds(e)
			stepPark(e, 1, &proto.CondWaitReq{Cond: 8, Lock: 7, Thread: 1, Interval: 1, Pages: []uint64{4}})
		},
		from: 12, msg: func() proto.Msg { return &proto.CondSignalReq{Cond: 8, Thread: 2} },
		want: []sent{{12, &proto.Ack{}}, {11, &proto.CondWaitResp{Seq: 1, Notices: []proto.Notice{notice}}}},
		state: func(w *Manager) {
			// Thread 1, the only one registered, saw its own notice: pruned.
			w.board.notices = nil
			w.board.lastSeen[1] = 1
			*w.shards[0].locks[7] = lockState{held: true, holder: 1, holderNode: 11, gen: 2, grantSeq: 1}
			w.shards[0].conds[8].waiters = nil
		},
	}, {
		name: "snapshot",
		setup: func(e *stepEnv) {
			stepCall(e, 1, &proto.AllocReq{Thread: 1, Size: 3 * pageSize, Strategy: proto.AllocStriped}, &proto.AllocResp{})
		},
		from: 11, msg: func() proto.Msg {
			return &proto.SnapshotASReq{Thread: 1, Base: uint64(StripedZoneBase), NPages: 3, Seq: 1}
		},
		want: []sent{{11, &proto.SnapshotASResp{Snap: 1}}},
		state: func(w *Manager) {
			w.snaps.nextSnap = 1
			w.snaps.snaps[1] = &snapInfo{origBase: uint64(StripedZoneBase), npages: 3, refs: 1}
			w.replies[1] = recorded(1, &proto.SnapshotASResp{Snap: 1})
		},
	}, {
		name: "fork",
		setup: func(e *stepEnv) {
			stepCall(e, 1, &proto.AllocReq{Thread: 1, Size: 3 * pageSize, Strategy: proto.AllocStriped}, &proto.AllocResp{})
			stepCall(e, 1, &proto.SnapshotASReq{Thread: 1, Base: uint64(StripedZoneBase), NPages: 3}, &proto.SnapshotASResp{})
		},
		from: 11, msg: func() proto.Msg { return &proto.ForkASReq{Thread: 1, Snap: 1, Seq: 2} },
		want: []sent{{11, &proto.ForkASResp{Base: uint64(StripedZoneBase) + uint64(geo.LineSize()), OrigBase: uint64(StripedZoneBase), NPages: 3}}},
		state: func(w *Manager) {
			base := StripedZoneBase + layout.Addr(geo.LineSize())
			resp := proto.ForkASResp{Base: uint64(base), OrigBase: uint64(StripedZoneBase), NPages: 3}
			z := w.stripedZone
			// The image ends a page short of the stripe group the fork must
			// start on.
			z.free = []span{{base: StripedZoneBase + layout.Addr(3*pageSize), size: pageSize}}
			z.next = base + layout.Addr(3*pageSize)
			z.allocs[base] = 3 * pageSize
			w.snaps.snaps[1].refs = 2
			w.snaps.forks[uint64(base)] = 1
			w.replies[1] = recorded(2, &resp)
		},
	}, {
		name: "a kind the manager does not serve",
		from: 11, msg: func() proto.Msg { return &proto.FetchLineReq{} },
		want: []sent{{11, &proto.Error{Text: "manager: unexpected fetch-line-req"}}},
	}, {
		name: "shutdown fails what is parked",
		setup: func(e *stepEnv) {
			holds(e)
			stepPark(e, 2, &proto.LockReq{Lock: 7, Thread: 2})
		},
		from: 19, msg: func() proto.Msg { return &proto.Shutdown{} },
		want:  []sent{{19, &proto.Ack{}}, {12, &proto.Error{Code: proto.CodeShutdown, Text: "manager: manager shut down"}}},
		state: func(w *Manager) { w.shards[0].locks[7].queue = nil },
	}, {
		name: "heartbeat enrols a member",
		from: 11, msg: func() proto.Msg { return &proto.Heartbeat{Member: 1, Class: proto.MemberThread, Node: 11} },
		state: func(w *Manager) {
			w.members[memberOf(proto.MemberThread, 1)] = &member{node: 11}
		},
		check: func(m *Manager) string {
			if mem := m.members[memberOf(proto.MemberThread, 1)]; !mem.lastBeat.Equal(stepEpoch) {
				return "the lease does not start at the call's wall reading"
			}
			return ""
		},
	}, {
		name:     "promote",
		follower: true,
		from:     600, msg: func() proto.Msg { return &proto.PromoteMgr{Term: 2} },
		want: []sent{{600, &proto.Ack{}}},
		check: func(m *Manager) string {
			if r := m.repl; !r.leader || r.term != 2 || r.prop == nil {
				return "the replica does not lead term 2"
			}
			return ""
		},
	}, {
		name:     "append: an acquire from the log answers nobody",
		follower: true,
		from:     mgrNode, msg: func() proto.Msg {
			return &proto.ReplAppend{Term: 1, Entries: []proto.ReplEntry{
				{Index: 1, Term: 1, Src: 11, Kind: uint16(proto.KLockReq), Body: proto.Encode(&proto.LockReq{Lock: 7, Thread: 1})},
			}}
		},
		want: []sent{{mgrNode, &proto.ReplAck{OK: true, Term: 1, NextIndex: 2}}},
		state: func(w *Manager) {
			w.board.lastSeen[1] = 0
			w.shards[0].locks[7] = &lockState{held: true, holder: 1, holderNode: 11, gen: 1}
		},
	}, {
		name:     "snapshot install",
		follower: true,
		from:     mgrNode, msg: func() proto.Msg { return &proto.ReplSnapshot{Term: 1, Index: 5, State: leaderState()} },
		want:  []sent{{mgrNode, &proto.ReplAck{OK: true, Term: 1, NextIndex: 6}}},
		state: func(w *Manager) { _ = w.restoreState(leaderState()) },
		check: func(m *Manager) string {
			switch mem := m.members[memberOf(proto.MemberThread, 1)]; {
			case !m.shards[0].locks[7].queue[0].to.OneWay():
				return "a restored waiter holds a ticket"
			case !mem.lastBeat.Equal(stepEpoch):
				return "a restored member's lease does not start at the call's wall reading"
			}
			return ""
		},
	}}

	const rowTicket = 1 << 30 // above every ticket a setup hands out
	for _, row := range rows {
		t.Run(strings.ReplaceAll(row.name, " ", "_"), func(t *testing.T) {
			e := newStepEnv(t, 1, time.Hour, nil)
			if row.follower {
				e.mgr.SetReplication(Replication{Self: 1, Nodes: []scl.NodeID{mgrNode, mgrNode + 1}})
			}
			if row.setup != nil {
				row.setup(e)
			}
			before := e.mgr.encodeState()

			msg := row.msg()
			sends := len(e.sends)
			c := request(row.from, msg.Kind(), proto.Encode(msg), 1<<20, testLink.ServiceTime, func(s flushed) { s.tk = rowTicket; e.file(s) })
			e.mgr.now = e.wall
			stop := e.mgr.step(&c)
			if stop != (msg.Kind() == proto.KShutdown) {
				t.Errorf("step reports stop=%v", stop)
			}
			e.mgr.out.Flush()
			got := e.sends[sends:]
			for i := 0; i < len(got) || i < len(row.want); i++ {
				switch {
				case i >= len(row.want):
					t.Errorf("effect %d: an unexpected %v", i, got[i].kind)
				case i >= len(got):
					t.Errorf("effect %d: no %v to node %d", i, row.want[i].msg.Kind(), row.want[i].dst)
				default:
					g, w := got[i], row.want[i]
					if dst := g.node; dst != w.dst || g.kind != w.msg.Kind() || !bytes.Equal(g.body, proto.Encode(w.msg)) {
						t.Errorf("effect %d: %v % x to node %d, want %v % x to node %d",
							i, g.kind, g.body, g.node, w.msg.Kind(), proto.Encode(w.msg), w.dst)
					}
				}
			}

			w := New(nil, geo)
			if err := w.restoreState(before); err != nil {
				t.Fatal(err)
			}
			if row.state != nil {
				row.state(w)
			}
			if g, w := e.mgr.encodeState(), w.encodeState(); !bytes.Equal(g, w) {
				t.Errorf("state after the call:\n got %x\nwant %x", g, w)
			}
			if row.check != nil {
				if why := row.check(e.mgr); why != "" {
					t.Error(why)
				}
			}
		})
	}
}

// A group of one is still not a replica: the three messages of the
// replication control plane are refused, and a stray append with a high
// term does not depose the only manager.
func TestGroupOfOneRefusesTheReplicationPlane(t *testing.T) {
	for _, msg := range []proto.Msg{
		&proto.ReplAppend{Term: 9},
		&proto.ReplSnapshot{Term: 9, Index: 1},
		&proto.PromoteMgr{Term: 9},
	} {
		t.Run(msg.Kind().String(), func(t *testing.T) {
			e := newStepEnv(t, 1, 0, nil)
			before := e.mgr.encodeState()
			err := e.client(600).call(msg, &proto.ReplAck{})
			if err == nil || !strings.Contains(err.Error(), "not a replica") {
				t.Fatalf("a manager on its own answered %v, want the \"not a replica\" refusal", err)
			}
			if r := e.mgr.repl; !r.leader || r.deposed || r.term != 1 {
				t.Fatalf("the only manager is left leader=%v deposed=%v term=%d", r.leader, r.deposed, r.term)
			}
			if !bytes.Equal(e.mgr.encodeState(), before) {
				t.Fatal("the refused message changed the state")
			}
			if _, err := e.client(1).lock(3); err != nil {
				t.Fatalf("the only manager no longer serves: %v", err)
			}
		})
	}
}

// A lone manager's clients post their unlock one-way, and the sequenced
// fabric orders by arrival time: a record-heavy unlock is overtaken by a
// smaller message its thread sent later. The arms that recognise a request
// re-issued across a failover by what its first copy left behind would take
// the late unlock, or the early acquire, for a duplicate; a group of one
// has no failover and takes both at face value.
func TestLoneManagerTakesOvertakenUnlocksAtFaceValue(t *testing.T) {
	post := func(e *stepEnv, m proto.Msg) { e.send(1, m.Kind(), proto.Encode(m), true) }

	t.Run("the outer unlock of a nested pair arrives first", func(t *testing.T) {
		e := newStepEnv(t, 1, 0, nil)
		a, b := e.client(1), e.client(2)
		for _, id := range []uint32{1, 2} {
			if _, err := a.lock(id); err != nil {
				t.Fatal(err)
			}
		}
		behind := b.start(b.lockReq(2))
		post(e, &proto.UnlockReq{Lock: 1, Thread: 1, Interval: 2, Pages: []uint64{8}})
		if e.answered(behind) {
			t.Fatal("the inner lock was passed on before its unlock arrived")
		}
		post(e, &proto.UnlockReq{Lock: 2, Thread: 1, Interval: 1, Pages: []uint64{9}})
		var got proto.LockResp
		if err := e.result(behind, &got); err != nil {
			t.Fatalf("the inner lock was never released: %v", err)
		}
		if len(got.Notices) != 2 || got.Notices[0].Tag.Interval != 2 || got.Notices[1].Tag.Interval != 1 {
			t.Fatalf("the next holder was handed %+v, want interval 2 then interval 1", got.Notices)
		}
		if n := e.mgr.stats.NoticesStored.Load(); n != 2 {
			t.Fatalf("%d intervals stored, want both", n)
		}
		if _, err := b.lock(1); err != nil {
			t.Fatalf("the outer lock was not released: %v", err)
		}
	})

	t.Run("the holder's next acquire arrives before its unlock", func(t *testing.T) {
		e := newStepEnv(t, 1, 0, nil)
		a, b := e.client(1), e.client(2)
		if _, err := a.lock(3); err != nil {
			t.Fatal(err)
		}
		again := a.start(a.lockReq(3))
		if e.answered(again) {
			t.Fatal("an acquire of a lock its thread still holds was answered, want it parked behind the unlock in flight")
		}
		behind := b.start(b.lockReq(3))
		post(e, &proto.UnlockReq{Lock: 3, Thread: 1, Interval: 1, Pages: []uint64{9}})
		if err := e.result(again, &proto.LockResp{}); err != nil {
			t.Fatalf("the unlock did not grant the parked acquire: %v", err)
		}
		if e.answered(behind) {
			t.Fatal("two holders: the unlock granted the lock to the thread behind as well")
		}
		if ls := e.mgr.shards[0].locks[3]; !ls.held || ls.holder != 1 || len(ls.queue) != 1 {
			t.Fatalf("lock 3 is left held=%v holder=%d with %d queued", ls.held, ls.holder, len(ls.queue))
		}
		if n := e.mgr.stats.LockGrants.Load(); n != 2 {
			t.Fatalf("%d grants, want 2", n)
		}
	})
}

// A follower's waiters mirror the leader's: when the runtime shuts every
// replica down, only the leader tells the detached waiter behind a held
// lock, or its thread would be posted one LockGrant per replica.
func TestFollowerShutdownTellsNobody(t *testing.T) {
	e := newStepEnv(t, 2, 0, nil)
	e.mgr.SetSequenced(true)
	follower := newStepGroup(e, 2, 0, nil)[1]
	a, b := e.client(1), e.client(2)
	if _, err := a.lock(7); err != nil {
		t.Fatal(err)
	}
	var queued proto.LockResp
	if err := b.call(b.lockReq(7), &queued); err != nil || !queued.Queued {
		t.Fatalf("the second acquire was answered %+v, %v; want Queued", queued, err)
	}
	ls := follower.shards[follower.shardOf(7)].locks[7]
	if ls == nil || len(ls.queue) != 1 || !ls.queue[0].detached {
		t.Fatalf("the follower does not mirror the detached waiter: %+v", ls)
	}

	stop, out := stepOnce(follower, 600, &proto.Shutdown{}, e.wall)
	if !stop {
		t.Fatal("the follower did not stop")
	}
	if len(out) != 1 || out[0].node != 600 || out[0].kind != proto.KAck {
		t.Fatalf("the follower sent %d answers, want the one Ack: %+v", len(out), out)
	}

	posted := len(e.posts)
	if err := e.client(600).call(&proto.Shutdown{}, &proto.Ack{}); err != nil {
		t.Fatal(err)
	}
	var g proto.LockGrant
	if ps := e.posts[posted:]; len(ps) != 1 || ps[0].node != b.id || proto.Decode(&g, ps[0].body) != nil || g.Lock != 7 || g.Code != proto.CodeShutdown {
		t.Fatalf("the leader posted %+v, want one LockGrant for lock 7 carrying CodeShutdown to node %d", ps, b.id)
	}
}

// Bug: demote cleared the leader flag before failing the parked waiters,
// and post dropped everything a non-leader sent, so the LockGrant carrying
// CodeNotLeader that failParked composes for a detached (peer-to-peer)
// waiter was discarded and its thread waited in awaitGrant for good. Posts
// are withheld only during a log replay now.
func TestDeposedLeaderTellsItsDetachedWaiters(t *testing.T) {
	e := newStepEnv(t, 2, 0, nil)
	e.mgr.SetSequenced(true)
	newStepGroup(e, 2, 0, nil)
	a, b := e.client(1), e.client(2)
	if _, err := a.lock(7); err != nil {
		t.Fatal(err)
	}
	var queued proto.LockResp
	if err := b.call(b.lockReq(7), &queued); err != nil || !queued.Queued {
		t.Fatalf("the second acquire was answered %+v, %v; want Queued", queued, err)
	}
	posted := len(e.posts)

	// The replica promoted behind this leader's back appends under term 2.
	var ack proto.ReplAck
	if err := e.client(uint32(mgrNode)+1).call(&proto.ReplAppend{Term: 2}, &ack); err != nil || !ack.OK {
		t.Fatalf("append from term 2 answered %+v, %v", ack, err)
	}
	if e.mgr.repl.leader {
		t.Fatal("the leader was not deposed")
	}
	for _, p := range e.posts[posted:] {
		var g proto.LockGrant
		if p.kind == proto.KLockGrant && p.node == b.id && proto.Decode(&g, p.body) == nil && g.Lock == 7 && g.Code == proto.CodeNotLeader {
			return
		}
	}
	t.Fatalf("thread 2's node was posted no LockGrant carrying CodeNotLeader; posts since it queued: %d", len(e.posts)-posted)
}

// Bug: core hands every replica the same stats.Liveness, and followers
// replay reclaim and releaseBarrier, so one death counted once per
// replica. The same scripted death must read the same on a group of one
// and a group of three.
func TestReplayCountsNothingIntoSharedLiveness(t *testing.T) {
	const lease = 10 * time.Millisecond
	death := func(replicas int) [5]int64 {
		live := new(stats.Liveness)
		e := newStepEnv(t, 1, lease, live)
		var group []*Manager
		if replicas > 1 {
			group = newStepGroup(e, replicas, lease, live)
		}
		holder, queued, b, c := e.client(1), e.client(2), e.client(3), e.client(4)
		for _, th := range []*stepClient{holder, queued, b, c} {
			th.beat(false)
		}
		// Thread 1 holds lock 1 with thread 3 parked behind it; thread 2 is
		// parked behind thread 4 on lock 2. Threads 1 and 2 then go silent.
		if _, err := holder.lock(1); err != nil {
			t.Fatal(err)
		}
		granted := b.start(b.lockReq(1))
		if _, err := c.lock(2); err != nil {
			t.Fatal(err)
		}
		evicted := queued.start(queued.lockReq(2))
		for beats := 0; live.ThreadsDead.Load() < 2; beats++ {
			if beats > 10 {
				t.Fatal("the silent threads were never declared dead")
			}
			e.advance(2 * time.Millisecond)
			b.beat(false)
			c.beat(false)
		}
		if err := e.result(granted, &proto.LockResp{}); err != nil {
			t.Fatalf("the reclaimed lock was not granted: %v", err)
		}
		if err := e.result(evicted, &proto.LockResp{}); err == nil {
			t.Fatal("the dead thread's parked acquire was granted")
		}
		// Two barrier rounds complete at the reduced membership.
		for round := 0; round < 2; round++ {
			first := b.start(b.barrierReq(7, 4))
			if err := c.call(c.barrierReq(7, 4), &proto.BarrierResp{}); err != nil {
				t.Fatal(err)
			}
			if err := e.result(first, &proto.BarrierResp{}); err != nil {
				t.Fatal(err)
			}
		}
		for i, f := range group {
			if i > 0 && f.repl.acc.Last != e.mgr.repl.prop.Last() {
				t.Fatalf("replica %d applied %d entries of %d", i, f.repl.acc.Last, e.mgr.repl.prop.Last())
			}
		}
		return [5]int64{
			live.ThreadsDead.Load(), live.LocksReclaimed.Load(), live.WaitersEvicted.Load(),
			live.WaitersFailed.Load(), live.BarriersRecomputed.Load(),
		}
	}
	one, three := death(1), death(3)
	if one != three {
		t.Fatalf("dead, locksReclaimed, waitersEvicted, waitersFailed, barriersRecomputed:\n one replica  %v\n three        %v", one, three)
	}
	if want := [5]int64{2, 1, 1, 0, 2}; one != want {
		t.Fatalf("the scripted death counted %v, want %v", one, want)
	}
}
