package manager

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// A manager is a state machine: step takes a request and queues what it
// sends in its outbox. The helpers here drive one without a fabric, a
// goroutine or a clock, and read what the outbox's Flush sends: an answer
// reaches the reply function of the request it answers, a post the
// manager's stepWire. The wall reading of every request is the test's to
// choose.

// flushed is one message a manager's Flush sent: the answer to the call
// numbered tk, which node made, or (tk 0) a post to node.
type flushed struct {
	tk   uint32
	node uint32
	kind proto.Kind
	body []byte
	at   vtime.Time
}

// request makes the request node sends: kind and body, arriving at
// arrive with svc of pickup, answered to answer, or one-way if answer is
// nil.
func request(node uint32, kind proto.Kind, body []byte, arrive, svc vtime.Time, answer func(flushed)) scl.Request {
	var reply func(uint16, []byte, vtime.Time)
	if answer != nil {
		reply = func(k uint16, b []byte, at vtime.Time) {
			answer(flushed{node: node, kind: proto.Kind(k), body: b, at: at})
		}
	}
	return scl.NewRequest(scl.NodeID(node), kind, body, reply).At(arrive, svc)
}

// stepOnce steps m through one request from node at wall reading wall and
// flushes it, and returns everything the flush sent through the reply
// function: the request's answer, if any.
func stepOnce(m *Manager, node uint32, msg proto.Msg, wall time.Time) (stop bool, answers []flushed) {
	req := request(node, msg.Kind(), proto.Encode(msg), 0, 0, func(s flushed) { answers = append(answers, s) })
	m.now = wall
	stop = m.step(&req)
	m.out.Flush()
	return stop, answers
}

// decodeSent turns an answer into what the caller of Endpoint.Call would
// have got: the answer decoded into resp, or the typed remote error.
func decodeSent(s flushed, resp proto.Msg) error {
	if s.kind == proto.KError {
		var pe proto.Error
		if err := proto.Decode(&pe, s.body); err != nil {
			return err
		}
		return &scl.RemoteError{Code: pe.Code, Text: pe.Text}
	}
	if s.kind != resp.Kind() {
		return fmt.Errorf("got %v response, want %v", s.kind, resp.Kind())
	}
	return proto.Decode(resp, s.body)
}

// stepEnv is one manager (the leader, when its wire carries its pushes
// to followers) driven through step.
type stepEnv struct {
	t    *testing.T
	mgr  *Manager
	wall time.Time // the wall reading the next call carries
	sent int
	// afterStep, if set, runs after every step, before the flush (see
	// TestScratchKeepsNothing).
	afterStep func(*Manager)

	sends   []flushed          // everything flushed so far, in order
	replies map[uint32]flushed // the answers among them, by call number
	posts   []flushed          // the posts among them
}

// stepEpoch is where a test's wall clock starts; the manager only ever
// subtracts readings.
var stepEpoch = time.Unix(1000, 0)

func newStepEnv(t *testing.T, homes int, lease time.Duration, live *stats.Liveness) *stepEnv {
	e := &stepEnv{t: t, wall: stepEpoch, replies: make(map[uint32]flushed)}
	e.mgr = New(&stepWire{env: e, id: mgrNode}, layout.DefaultGeometry())
	e.mgr.SetShards(homes)
	if lease > 0 {
		e.mgr.EnableLiveness(lease, live, nil)
	}
	return e
}

// advance moves the wall clock the next calls will read.
func (e *stepEnv) advance(d time.Duration) { e.wall = e.wall.Add(d) }

// send steps one request from node and files what its flush sent. Call i
// leaves its node at virtual time 3000*i and arrives as the test link
// would deliver it. Its number is i, or 0 for a one-way.
func (e *stepEnv) send(node uint32, kind proto.Kind, body []byte, oneway bool) uint32 {
	e.sent++
	var tk uint32
	var answer func(flushed)
	if !oneway {
		tk = uint32(e.sent)
		answer = func(s flushed) { s.tk = tk; e.file(s) }
	}
	arrive := testLink.Deliver(vtime.Time(3000*e.sent)+testLink.SendOverhead, len(body)+simnet.HeaderBytes)
	req := request(node, kind, body, arrive, testLink.ServiceTime, answer)
	e.mgr.now = e.wall
	e.mgr.step(&req)
	if e.afterStep != nil {
		e.afterStep(e.mgr)
	}
	e.mgr.out.Flush()
	return tk
}

// file records one message the manager under test sent.
func (e *stepEnv) file(s flushed) {
	e.sends = append(e.sends, s)
	if s.tk == 0 {
		e.posts = append(e.posts, s)
		return
	}
	if _, dup := e.replies[s.tk]; dup {
		e.t.Fatalf("a second answer (%v) to one call", s.kind)
	}
	e.replies[s.tk] = s
}

// answered reports whether call tk has its answer yet.
func (e *stepEnv) answered(tk uint32) bool {
	_, ok := e.replies[tk]
	return ok
}

// result is what a caller blocked on call tk has in hand now; it fails
// the test if the call is still parked.
func (e *stepEnv) result(tk uint32, resp proto.Msg) error {
	e.t.Helper()
	s, ok := e.replies[tk]
	if !ok {
		e.t.Fatalf("the call waiting for a %v is still parked", resp.Kind())
	}
	return decodeSent(s, resp)
}

// stepClient mirrors client (manager_test.go) on a stepEnv: the same
// thread-side bookkeeping, with a parked call as a ticket to look at
// later instead of a blocked goroutine.
type stepClient struct {
	env *stepEnv
	id  uint32

	lastSeen uint64
	interval uint64
}

func (e *stepEnv) client(id uint32) *stepClient { return &stepClient{env: e, id: id} }

// start makes a call and returns its ticket, answered or not.
func (c *stepClient) start(m proto.Msg) uint32 {
	return c.env.send(c.id, m.Kind(), proto.Encode(m), false)
}

// call makes a call that must be answered at once.
func (c *stepClient) call(m, resp proto.Msg) error {
	c.env.t.Helper()
	return c.env.result(c.start(m), resp)
}

func (c *stepClient) lockReq(id uint32) *proto.LockReq {
	return &proto.LockReq{Lock: id, Thread: c.id, LastSeen: c.lastSeen}
}

func (c *stepClient) lock(id uint32) (*proto.LockResp, error) {
	c.env.t.Helper()
	var resp proto.LockResp
	if err := c.call(c.lockReq(id), &resp); err != nil {
		return nil, err
	}
	c.lastSeen = resp.Seq
	return &resp, nil
}

func (c *stepClient) unlock(id uint32, pages []uint64) error {
	c.env.t.Helper()
	c.interval++
	return c.call(&proto.UnlockReq{Lock: id, Thread: c.id, Interval: c.interval, Pages: pages}, &proto.Ack{})
}

func (c *stepClient) barrierReq(id, count uint32) *proto.BarrierReq {
	c.interval++
	return &proto.BarrierReq{Barrier: id, Count: count, Thread: c.id, LastSeen: c.lastSeen, Interval: c.interval}
}

func (c *stepClient) condWaitReq(cond, lock uint32) *proto.CondWaitReq {
	c.interval++
	return &proto.CondWaitReq{Cond: cond, Lock: lock, Thread: c.id, LastSeen: c.lastSeen, Interval: c.interval}
}

func (c *stepClient) beat(bye bool) { c.beatFor(c.id, bye) }

// beatFor posts a heartbeat on behalf of member id.
func (c *stepClient) beatFor(id uint32, bye bool) {
	hb := &proto.Heartbeat{Member: id, Class: proto.MemberThread, Node: id, Bye: bye}
	c.env.send(c.id, hb.Kind(), proto.Encode(hb), true)
}

// stepWire is a stepped manager's endpoint. A post lands in the
// stepEnv, and only the manager under test (env.mgr) may post. A
// replication Call becomes the follower's transition and the answer it
// flushed.
type stepWire struct {
	env       *stepEnv
	id        scl.NodeID
	followers map[scl.NodeID]*Manager
}

func (w *stepWire) ID() scl.NodeID { return w.id }

func (w *stepWire) Call(dst scl.NodeID, req, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	f := w.followers[dst]
	if f == nil {
		return at, scl.ErrUnreachable
	}
	_, answers := stepOnce(f, uint32(w.id), req, w.env.wall)
	if len(answers) != 1 {
		return at, fmt.Errorf("replica %d sent %d answers to the %v", dst, len(answers), req.Kind())
	}
	return at, decodeSent(answers[0], resp)
}

func (w *stepWire) Start(scl.NodeID, proto.Msg, vtime.Time, *scl.Pending) {
	panic("a stepped manager starts no call")
}

func (w *stepWire) Post(dst scl.NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error) {
	if w.env.mgr.ep != scl.Endpoint(w) {
		w.env.t.Errorf("replica %d, not the manager under test, posted a %v", w.id, m.Kind())
	}
	w.env.file(flushed{node: uint32(dst), kind: m.Kind(), body: proto.Encode(m), at: at})
	return at, nil
}

func (w *stepWire) Recv() (scl.Request, bool) { panic("a step-driven manager receives nothing") }

func (w *stepWire) Close() {}

// newStepGroup makes env's manager the leader of a group of n replicas
// that share one set of liveness counters, as core's do.
func newStepGroup(env *stepEnv, n int, lease time.Duration, live *stats.Liveness) []*Manager {
	nodes := make([]scl.NodeID, n)
	for i := range nodes {
		nodes[i] = mgrNode + scl.NodeID(i)
	}
	wire := env.mgr.ep.(*stepWire)
	wire.followers = make(map[scl.NodeID]*Manager)
	group := []*Manager{env.mgr}
	for i := 1; i < n; i++ {
		f := New(&stepWire{env: env, id: nodes[i]}, env.mgr.geo)
		f.SetShards(len(env.mgr.shards))
		f.sequenced = env.mgr.sequenced
		if lease > 0 {
			f.EnableLiveness(lease, live, nil)
		}
		group = append(group, f)
		wire.followers[nodes[i]] = f
	}
	for i, m := range group {
		m.SetReplication(Replication{Self: i, Nodes: nodes})
	}
	return group
}
