package manager

import (
	"bytes"
	"testing"

	"repro/internal/proto"
	"repro/internal/scl"
)

// Every allocation-plane request re-issued with its Seq (its reply lost to
// a failover) is answered with the bytes its first copy got and changes
// no replica's state: an allocation in each zone, a snapshot, a fork, both
// phases of the fork's free and the free of the snapshotted image. The
// script runs on the leader of three replicas, then again on a promoted
// follower, which first answers the old leader's last request. Two re-issues
// used to go wrong: the striped free of a snapshotted image was answered
// with an empty FreeResp, so the homes never dropped the sealed frames, and
// a phase-one fork free fell through to the plain free path and returned
// the fork's range to the striped zone while the homes still mapped it.
func TestAllocPlaneReissueAnswersAsBefore(t *testing.T) {
	e := newStepEnv(t, 2, 0, nil)
	group := newStepGroup(e, 3, 0, nil)
	live := group
	const thread = 1
	var seq uint64
	pageSize := uint64(e.mgr.geo.PageSize)

	// twice makes a request, re-issues it with the same Seq, and returns
	// the first answer decoded into resp.
	twice := func(what string, req func(seq uint64) proto.Msg, resp proto.Msg) {
		t.Helper()
		seq++
		first := e.client(thread).start(req(seq))
		before := make([][]byte, len(live))
		for i, m := range live {
			before[i] = m.encodeState()
		}
		again := e.client(thread).start(req(seq))
		a, b := e.replies[first], e.replies[again]
		if a.kind != b.kind || !bytes.Equal(a.body, b.body) {
			t.Errorf("%s: the re-issue was answered %v % x, the first copy %v % x", what, b.kind, b.body, a.kind, a.body)
		}
		for i, m := range live {
			if !bytes.Equal(m.encodeState(), before[i]) {
				t.Errorf("%s: the re-issue changed the state of replica %d", what, i)
			}
		}
		if err := decodeSent(a, resp); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}

	script := func() (last func(seq uint64) proto.Msg) {
		t.Helper()
		allocs, frees := e.mgr.stats.DedupAllocs.Load(), e.mgr.stats.DedupFrees.Load()
		var a proto.AllocResp
		for _, s := range []struct {
			strategy uint8
			size     uint64
		}{{proto.AllocArenaChunk, 16 * pageSize}, {proto.AllocShared, 3000}, {proto.AllocStriped, 4 * pageSize}} {
			twice("alloc", func(seq uint64) proto.Msg {
				return &proto.AllocReq{Thread: thread, Size: s.size, Align: 16, Strategy: s.strategy, Seq: seq}
			}, &a)
		}
		image := a.Addr
		var snap proto.SnapshotASResp
		twice("snapshot", func(seq uint64) proto.Msg {
			return &proto.SnapshotASReq{Thread: thread, Base: image, NPages: 4, Seq: seq}
		}, &snap)
		var fork proto.ForkASResp
		twice("fork", func(seq uint64) proto.Msg { return &proto.ForkASReq{Thread: thread, Snap: snap.Snap, Seq: seq} }, &fork)
		var unmap proto.FreeResp
		twice("phase-one fork free", func(seq uint64) proto.Msg {
			return &proto.FreeReq{Thread: thread, Addr: fork.Base, Seq: seq}
		}, &unmap)
		if !unmap.Fork || unmap.Snap != snap.Snap || unmap.NPages != 4 {
			t.Fatalf("phase-one fork free answered %+v", unmap)
		}
		twice("unmapped commit", func(seq uint64) proto.Msg {
			return &proto.FreeReq{Thread: thread, Addr: fork.Base, Seq: seq, Unmapped: true}
		}, &proto.FreeResp{})
		last = func(seq uint64) proto.Msg { return &proto.FreeReq{Thread: thread, Addr: image, Seq: seq} }
		var origin proto.FreeResp
		twice("origin free", last, &origin)
		if origin.NPages != 4 || len(origin.Release) != 1 || origin.Release[0] != snap.Snap {
			t.Fatalf("origin free answered %+v, want snapshot %d released", origin, snap.Snap)
		}
		if n := e.mgr.stats.DedupAllocs.Load() - allocs; n != 5 {
			t.Errorf("DedupAllocs counted %d re-issues, want 5", n)
		}
		if n := e.mgr.stats.DedupFrees.Load() - frees; n != 3 {
			t.Errorf("DedupFrees counted %d re-issues, want 3", n)
		}
		return last
	}

	last := script()
	lastAnswer := e.replies[uint32(e.sent)]

	// Promote replica 1; replica 2 follows it.
	next := group[1]
	var ack proto.Ack
	if _, out := stepOnce(next, 600, &proto.PromoteMgr{Term: 2}, e.wall); len(out) != 1 || decodeSent(out[0], &ack) != nil {
		t.Fatalf("the promotion was answered %+v", out)
	}
	next.ep.(*stepWire).followers = map[scl.NodeID]*Manager{mgrNode + 2: group[2]}
	e.mgr, live = next, group[1:]

	// The old leader's last request, re-issued to the new one.
	before := next.encodeState()
	if got := e.replies[e.client(thread).start(last(seq))]; got.kind != lastAnswer.kind || !bytes.Equal(got.body, lastAnswer.body) {
		t.Errorf("the promoted replica answered the re-issued origin free %v % x, the old leader % x", got.kind, got.body, lastAnswer.body)
	}
	if !bytes.Equal(next.encodeState(), before) {
		t.Error("the re-issued origin free changed the promoted replica's state")
	}
	script()
}
