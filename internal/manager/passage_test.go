package manager

import (
	"sync"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// replicatedPassage boots a three-replica manager group on a sequenced
// fabric and returns one uncontended lock passage against it — a LockReq,
// then an acknowledged UnlockReq carrying one store record, each pushed
// to both followers before it is answered. The caller's goroutine holds a
// runnable token from here until stop.
func replicatedPassage(tb testing.TB) (passage func(), stop func()) {
	fab := simnet.NewFabric(testLink)
	fab.Sequence()
	gate := fab.Gate()
	nodes := []scl.NodeID{mgrNode, mgrNode + 1, mgrNode + 2}
	var wg sync.WaitGroup
	for i, node := range nodes {
		m := New(scl.NewSimEndpoint(fab, node), layout.DefaultGeometry())
		m.SetSequenced(true)
		m.SetReplication(Replication{Self: i, Nodes: nodes})
		wg.Add(1)
		gate.Resume()
		go func() {
			defer wg.Done()
			defer gate.Pause()
			m.Run()
		}()
	}
	gate.Resume() // this goroutine
	cli := scl.NewSimEndpoint(fab, 1)
	var at vtime.Time
	var lastSeen, interval uint64
	records := []proto.StoreRecord{{Addr: 1 << 34, Data: make([]byte, 8)}}
	call := func(req, resp proto.Msg) {
		var err error
		if at, err = cli.Call(mgrNode, req, resp, at); err != nil {
			tb.Fatalf("%v: %v", req.Kind(), err)
		}
	}
	passage = func() {
		var resp proto.LockResp
		call(&proto.LockReq{Lock: 3, Thread: 1, LastSeen: lastSeen}, &resp)
		lastSeen = resp.Seq
		interval++
		var ack proto.Ack
		call(&proto.UnlockReq{Lock: 3, Thread: 1, Interval: interval, Records: records}, &ack)
	}
	stop = func() {
		for _, node := range nodes {
			var ack proto.Ack
			if _, err := cli.Call(node, &proto.Shutdown{}, &ack, at); err != nil {
				tb.Errorf("shutdown %d: %v", node, err)
			}
		}
		gate.Pause()
		wg.Wait()
	}
	return passage, stop
}

// What one replicated passage allocates, everything counted: the client's
// two calls, the leader's four pushes, two followers applying two entries
// each. It was 95 objects before followers applied appends in place, the
// log kept request bodies as they came and calls recycled their reply
// channels, 48 while a follower made an scl.Request of every entry it
// applied, and 44 while every receive made one and every replica decoded
// each request into a message of its own. What is left: a Message and a
// body per send, and the record list and payload of the notice each
// replica stores.
func TestReplicatedPassageAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	passage, stop := replicatedPassage(t)
	defer stop()
	for i := 0; i < 64; i++ { // grow the log, the directory and the sequencer's queues once
		passage()
	}
	const budget = 31
	if got := testing.AllocsPerRun(200, passage); got > budget {
		t.Fatalf("a replicated lock passage allocates %v objects, want at most %d", got, budget)
	}
}

// BenchmarkReplicatedPassage is the same passage on the host clock.
func BenchmarkReplicatedPassage(b *testing.B) {
	passage, stop := replicatedPassage(b)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		passage()
	}
}
