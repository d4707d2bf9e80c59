package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/vtime"
)

// fakeCtl is a control endpoint that answers promotions from a script.
// A promotion sent to a node in dead fails as a dead peer; one sent to a
// node in stuck reports on entered and blocks until its channel closes.
// Every promotion is recorded as "node message".
type fakeCtl struct {
	scl.Endpoint
	dead    map[scl.NodeID]bool
	stuck   map[scl.NodeID]chan struct{}
	entered chan scl.NodeID

	mu    sync.Mutex
	calls []string
}

func (f *fakeCtl) Call(dst scl.NodeID, req, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	f.mu.Lock()
	f.calls = append(f.calls, fmt.Sprintf("%d %+v", dst, req))
	f.mu.Unlock()
	if ch := f.stuck[dst]; ch != nil {
		f.entered <- dst
		<-ch
	}
	if f.dead[dst] {
		return at, fmt.Errorf("promote: %w", proto.ErrPeerDied)
	}
	return at, nil
}

// bookOn builds the runtime's address book over a fake control endpoint:
// the failover's only I/O, so no fabric is needed.
func bookOn(ctl scl.Endpoint, replicas int, standby bool) (*Runtime, *stats.Liveness) {
	live := new(stats.Liveness)
	rt := &Runtime{cfg: Config{ManagerReplicas: replicas, Liveness: &LivenessConfig{Standby: standby, Live: live}}, ctl: ctl}
	rt.mgr = rt.managerRole()
	rt.homes = []*role{rt.homeRole(0)}
	return rt, live
}

func TestFailoverTable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas int
		standby  bool
		home     bool         // fail over home 0 instead of the manager
		dead     []scl.NodeID // candidates whose promotion fails as a dead peer
		failed   []scl.NodeID // one failover per entry, in order
		want     []string     // the node returned, or the error, per failover
		calls    []string     // the promotions sent, in order
		counted  int64        // the role's failover counter afterwards
	}{
		{name: "candidates in order, terms i+1", replicas: 3, failed: []scl.NodeID{1, 4},
			want: []string{"4", "5"}, calls: []string{"4 &{Term:2}", "5 &{Term:3}"}, counted: 2},
		{name: "a dead candidate is skipped", replicas: 3, dead: []scl.NodeID{4}, failed: []scl.NodeID{1},
			want: []string{"5"}, calls: []string{"4 &{Term:2}", "5 &{Term:3}"}, counted: 1},
		{name: "a second caller for the same node promotes nothing", replicas: 3, failed: []scl.NodeID{1, 1},
			want: []string{"4", "4"}, calls: []string{"4 &{Term:2}"}, counted: 1},
		{name: "every later candidate gone", replicas: 2, dead: []scl.NodeID{4}, failed: []scl.NodeID{1, 1},
			want:  []string{"core: no manager candidate after node 1 is reachable", "core: no manager candidate after node 1 is reachable"},
			calls: []string{"4 &{Term:2}", "4 &{Term:2}"}},
		{name: "a lone manager", replicas: 1, failed: []scl.NodeID{1},
			want: []string{"core: manager unreachable and no replicas configured"}},
		{name: "a home promotes its standby once", replicas: 1, standby: true, home: true, failed: []scl.NodeID{10, 10},
			want: []string{"50", "50"}, calls: []string{"50 &{}"}, counted: 1},
		{name: "a home without a standby", replicas: 1, home: true, failed: []scl.NodeID{10},
			want: []string{"core: home 0 unreachable and no standby configured"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl := &fakeCtl{dead: map[scl.NodeID]bool{}}
			for _, n := range tc.dead {
				ctl.dead[n] = true
			}
			rt, live := bookOn(ctl, tc.replicas, tc.standby)
			r, count := rt.mgr, &live.MgrFailovers
			if tc.home {
				r, count = rt.homes[0], &live.Failovers
			}
			var got []string
			for _, failed := range tc.failed {
				node, err := r.failover(failed)
				if err != nil {
					got = append(got, err.Error())
				} else {
					got = append(got, fmt.Sprint(node))
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("failovers returned %q, want %q", got, tc.want)
			}
			if fmt.Sprint(ctl.calls) != fmt.Sprint(tc.calls) {
				t.Errorf("promotions sent %q, want %q", ctl.calls, tc.calls)
			}
			if n := count.Load(); n != tc.counted {
				t.Errorf("counted %d failovers, want %d", n, tc.counted)
			}
		})
	}
}

// A manager promotion stuck in a push (a replica that is alive and slow:
// ROADMAP item 1's deadline-less sends) must not stall a home's failover.
func TestStuckManagerPromotionDoesNotBlockAHome(t *testing.T) {
	release := make(chan struct{})
	ctl := &fakeCtl{
		stuck:   map[scl.NodeID]chan struct{}{MgrReplicaNode(1): release},
		entered: make(chan scl.NodeID, 1),
	}
	rt, _ := bookOn(ctl, 3, true)
	mgrDone := make(chan error, 1)
	go func() {
		_, err := rt.mgr.failover(managerNode)
		mgrDone <- err
	}()
	<-ctl.entered
	homeDone := make(chan error, 1)
	go func() {
		_, err := rt.homes[0].failover(ServerNode(0))
		homeDone <- err
	}()
	select {
	case err := <-homeDone:
		if err != nil {
			t.Errorf("home failover: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("the home's failover waited on the manager's promotion")
	}
	close(release)
	if err := <-mgrDone; err != nil {
		t.Errorf("manager failover: %v", err)
	}
	if rt.homes[0].node() != StandbyNode(0) || rt.mgr.node() != MgrReplicaNode(1) {
		t.Errorf("book reads home 0 at %d, manager at %d", rt.homes[0].node(), rt.mgr.node())
	}
}

// New refuses a topology the node plan cannot number, naming the overlap,
// instead of panicking in the fabric (or, over TCP, re-pointing a node).
func TestNewRejectsOverlappingNodePlan(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
		want string
	}{
		{"eight manager replicas", func(c *Config) { c.ManagerReplicas = 8 },
			"manager replica 7 and memory server 0 both at node 10"},
		{"41 servers with standbys", func(c *Config) {
			c.Geo.NumServers = 41
			c.Liveness = &LivenessConfig{Standby: true}
		}, "memory server 40 and standby 0 both at node 50"},
		{"92 servers", func(c *Config) { c.Geo.NumServers = 92 },
			"memory server 91 at node 101, among the compute threads"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.cfg(&cfg)
			var err error
			panicked := catch(func() {
				var rt *Runtime
				if rt, err = New(cfg); err == nil {
					rt.Close()
				}
			})
			if panicked != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New: err %v, panic %v; want an error naming %q", err, panicked, tc.want)
			}
		})
	}
}

// catch runs f and returns what it panicked with, if anything.
func catch(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// livenessRuntime boots an unsequenced runtime with warm standbys and a
// lease long enough that a busy test box cannot starve a beat past it.
func livenessRuntime(t *testing.T) *Runtime {
	cfg := testConfig()
	cfg.Liveness = &LivenessConfig{Standby: true, HeartbeatEvery: 20 * time.Millisecond, MissedBeats: 50}
	return newRuntime(t, cfg)
}

// countTo runs p threads that each add one to a lock-protected counter
// and checks the total, reporting a panic out of Run as a failure.
func countTo(t *testing.T, rt *Runtime, p int) {
	t.Helper()
	mu, bar := rt.NewMutex(), rt.NewBarrier(p)
	var base atomic.Uint64
	var err error
	panicked := catch(func() {
		_, err = rt.Run(p, func(th vm.Thread) {
			if th.ID() == 0 {
				base.Store(uint64(th.GlobalAlloc(64)))
			}
			bar.Wait(th)
			n := vm.I64{Base: vm.Addr(base.Load())}
			mu.Lock(th)
			n.Add(th, 0, 1)
			mu.Unlock(th)
			bar.Wait(th)
			if got := n.At(th, 0); got != int64(p) {
				t.Errorf("thread %d counts %d, want %d", th.ID(), got, p)
			}
		})
	})
	if panicked != nil || err != nil {
		t.Errorf("Run(%d): err %v, panic %v", p, err, panicked)
	}
}

// The drain used to open an endpoint numbered down from the thread nodes,
// burning a writer id each time, until it landed on a real node: a
// standby at P=47, server 0 at 87, the control endpoint at 94, the
// manager at 96. The runtime's one control endpoint drains now.
func TestUnsequencedRunAtAnyThreadCount(t *testing.T) {
	for _, p := range []int{47, 87, 94, 96} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) { countTo(t, livenessRuntime(t), p) })
	}
}

func TestManySmallUnsequencedRuns(t *testing.T) {
	rt := livenessRuntime(t)
	for run := 0; run < 9; run++ { // 90 threads in all
		countTo(t, rt, 10)
	}
}
