package conformance

import (
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/manager"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// A manager that has stopped refuses calls. Runtime.Close posts every
// replica its Shutdown at once, so a follower can consume its own while
// the leader still has a heartbeat queued ahead of the leader's; with
// half a lease gone that heartbeat makes the leader push a renewal. A
// follower that left its port open would leave that push — a blocking
// call on the leader's only goroutine — waiting for good, and Close with
// it. The stopped follower must make the push fail as a peer that is
// gone, which the leader answers by dropping the peer.
func TestLeaderOutlivesAFollowerThatStopped(t *testing.T) {
	const leaderNode, followerNode scl.NodeID = 500, 501
	link := vtime.LinkModel{Name: "test", Latency: 1000, BytesPerSec: 1e9, SendOverhead: 50, ServiceTime: 100}
	fab := simnet.NewFabric(link)
	var live stats.Liveness
	stopped := make([]chan struct{}, 2)
	replica := func(i int, node scl.NodeID) *manager.Manager {
		m := manager.New(scl.NewSimEndpoint(fab, node), layout.DefaultGeometry())
		m.SetReplication(manager.Replication{Self: i, Nodes: []scl.NodeID{leaderNode, followerNode}, Live: &live})
		m.EnableLiveness(time.Hour, nil, nil) // no lease expires and no ticker fires inside the test
		stopped[i] = make(chan struct{})
		return m
	}
	run := func(i int, m *manager.Manager) {
		go func() {
			defer close(stopped[i])
			m.Run()
		}()
	}
	leader, follower := replica(0, leaderNode), replica(1, followerNode)
	ctl := scl.NewSimEndpoint(fab, 1)
	bounded(t, 30*time.Second, func() {
		run(1, follower)
		if _, err := ctl.Post(followerNode, &proto.Shutdown{}, 0); err != nil {
			t.Fatal(err)
		}
		<-stopped[1]
		// The leader's inbox, in order: the heartbeat, then its Shutdown.
		// It has never pushed, so half a lease counts as long gone.
		if _, err := ctl.Post(leaderNode, &proto.Heartbeat{}, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.Post(leaderNode, &proto.Shutdown{}, 0); err != nil {
			t.Fatal(err)
		}
		run(0, leader)
		<-stopped[0]
	})
	if n := live.ReplFailures.Load(); n != 1 {
		t.Fatalf("%d replication failures counted, want 1: the leader never pushed to the stopped follower", n)
	}
	if n := live.MgrDeposed.Load(); n != 0 {
		t.Fatalf("the leader was deposed %d times by a follower that merely stopped", n)
	}
	var ack proto.Ack
	if _, err := ctl.Call(leaderNode, &proto.Ping{}, &ack, 0); !scl.IsTransient(err) {
		t.Fatalf("a call to the stopped leader: %v, want a transient peer-gone error", err)
	}
}
