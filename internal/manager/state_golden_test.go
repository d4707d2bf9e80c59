package manager

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
)

var update = flag.Bool("update", false, "rewrite testdata/state.golden from the current encoder")

const stateGoldenPath = "testdata/state.golden"

func goldenReplica(node simnet.NodeID) *Manager {
	m := New(scl.NewSimEndpoint(simnet.NewFabric(testLink), node), layout.DefaultGeometry())
	m.SetShards(2)
	m.SetReplication(Replication{Self: 1, Nodes: []scl.NodeID{499, node}})
	return m
}

// goldenManager populates every table the replication snapshot carries,
// by direct assignment so that the state does not depend on any handler:
// the bytes in testdata/state.golden are a function of the encoder alone.
// Values are chosen to need one-, two- and multi-byte varints.
func goldenManager(t *testing.T) *Manager {
	m := goldenReplica(mgrNode)

	// Zones: free spans below the bump pointer and live allocations. The
	// striped zone stays untouched, so the empty form of every zone table
	// is pinned too.
	z := m.arenaZone
	z.next = ArenaZoneBase + 5*4096
	z.free = []span{{base: ArenaZoneBase + 4096, size: 4096}, {base: ArenaZoneBase + 3*4096, size: 300}}
	z.allocs[ArenaZoneBase+2*4096] = 4096
	z.allocs[ArenaZoneBase] = 4096
	z.allocs[ArenaZoneBase+4*4096] = 64
	m.sharedZone.next = SharedZoneBase + 1<<20
	m.sharedZone.allocs[SharedZoneBase] = 1 << 20

	// Directory: ticket 2 was never filled (a permanent gap), ticket 3
	// carries a store record, ticket 5 is issued and unfilled.
	b := m.board
	b.issued = 5
	b.notices = []proto.Notice{
		{Seq: 1, Tag: proto.IntervalTag{Writer: 1, Interval: 1}, Pages: []uint64{10, 11, proto.PackSpanExtent(16, 8)}},
		{Seq: 3, Tag: proto.IntervalTag{Writer: 2, Interval: 4}, Records: []proto.StoreRecord{{Addr: 40960, Data: []byte{1, 2, 3}}}},
		{Seq: 4, Tag: proto.IntervalTag{Writer: 300, Interval: 1 << 40}, Pages: []uint64{1 << 33}},
	}
	b.lastSeen = map[uint32]uint64{300: 4, 1: 0, 2: 3}
	b.lastInterval = map[uint32]uint64{2: 4, 300: 1 << 40, 1: 1}

	// Membership: both classes, one thread dead with its obituary
	// generation, and the dead-thread fence.
	m.members[memberOf(proto.MemberThread, 2)] = &member{node: 102, dead: true, reapGen: 1}
	m.members[memberOf(proto.MemberServer, 0)] = &member{node: 10}
	m.members[memberOf(proto.MemberThread, 300)] = &member{node: 400}
	m.members[memberOf(proto.MemberThread, 1)] = &member{node: 101}
	m.deadNodes[102] = true
	m.deadNodes[77] = true
	m.deadThreads[2] = true
	m.deadThreads[900] = true
	m.obitGen = 1

	// Homes. Lock 3 is held with a parked and a detached waiter, lock 8 is
	// free; barrier 9 is half arrived; condition 10 has one waiter.
	lockHome, barHome := m.shards[m.shardOf(3)], m.shards[m.shardOf(9)]
	if lockHome == barHome {
		t.Fatal("golden state wants lock 3 and barrier 9 at different homes")
	}
	lockHome.locks[3] = &lockState{
		held: true, holder: 1, holderNode: 101, gen: 7, grantSeq: 4,
		queue: []waiter{
			{thread: 300, node: 400, lastSeen: 3, kind: waitLock},
			{thread: 4, node: 104, lastSeen: 1, kind: waitCond},
			{thread: 5, node: 105, lastSeen: 200, kind: waitLock, detached: true},
		},
	}
	m.shards[m.shardOf(8)].locks[8] = &lockState{gen: 2, grantSeq: 1}
	barHome.barriers[9] = &barrierState{
		count: 4, epoch: 2,
		counted: map[uint32]uint64{300: 3, 1: 3, 2: 2},
		dead:    map[uint32]bool{2: true},
		arrived: []waiter{{thread: 1, node: 101, lastSeen: 4}, {thread: 300, node: 400, lastSeen: 3}},
	}
	m.shards[m.shardOf(10)].conds[10] = &condState{waiters: []condEntry{
		{lock: 3, w: waiter{thread: 6, node: 106, lastSeen: 2, kind: waitCond}},
	}}

	// Snapshot/fork table: both maps, a handle already gone and a
	// reference count that went negative.
	ss := m.snaps
	ss.nextSnap = 9
	ss.snaps[7] = &snapInfo{origBase: uint64(StripedZoneBase), npages: 512, refs: 3}
	ss.snaps[2] = &snapInfo{origBase: uint64(StripedZoneBase) + 1<<21, npages: 4, refs: -1, handleGone: true}
	ss.forks[uint64(StripedZoneBase)+1<<22] = 7
	ss.forks[uint64(StripedZoneBase)+1<<23] = 7

	// Reply records: an answer, an empty answer and a refusal.
	m.replies[300] = recorded(5, &proto.FreeResp{Fork: true, Snap: 2, NPages: 4, Release: []uint64{2, 300}})
	m.replies[1] = recorded(1<<20, &proto.FreeResp{})
	m.replies[2] = recorded(9, &proto.Error{Code: proto.CodeGeneric, Text: "manager: zone \"shared\" exhausted"})
	return m
}

// The replication snapshot's format is pinned byte for byte: a follower
// is rebuilt from these bytes, possibly by a newer binary than the
// leader's. testdata/state.golden was written by the hand-mirrored
// encoder the walks replaced. Run with -update only for a new
// stateVersion.
func TestStateGolden(t *testing.T) {
	got := goldenManager(t).encodeState()
	if *update {
		var sb strings.Builder
		for i := 0; i < len(got); i += 32 {
			sb.WriteString(hex.EncodeToString(got[i:min(i+32, len(got))]))
			sb.WriteByte('\n')
		}
		if err := os.WriteFile(stateGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	text, err := os.ReadFile(stateGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.ReplaceAll(string(text), "\n", ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeState:\n got %x\nwant %x", got, want)
	}

	restored := goldenReplica(followerNode)
	if err := restored.restoreState(want); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if again := restored.encodeState(); !bytes.Equal(again, want) {
		t.Fatalf("restore-then-encode:\n got %x\nwant %x", again, want)
	}

	// A snapshot cut short anywhere is refused whole: the receiver keeps
	// the state it had.
	recv := goldenReplica(followerNode)
	recv.board.ensure(9, 0)
	recv.board.fill(recv.board.reserve(), proto.IntervalTag{Writer: 9, Interval: 1}, []uint64{42}, nil)
	recv.shards[0].locks[1] = &lockState{held: true, holder: 9}
	before := recv.encodeState()
	for n := range want {
		if err := recv.restoreState(want[:n]); err == nil {
			t.Fatalf("restoreState accepted the %d-byte prefix of a %d-byte snapshot", n, len(want))
		}
		if after := recv.encodeState(); !bytes.Equal(after, before) {
			t.Fatalf("the refused %d-byte prefix changed the receiver:\n got %x\nwant %x", n, after, before)
		}
	}
}
