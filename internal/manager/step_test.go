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

// A manager is a state machine: step takes a call and queues effects. The
// helpers here drive one without a fabric, a goroutine or a clock. A ticket
// (call.to) is a request that only names a call (see ticket); the wall
// reading of every call is the test's to choose.

// ticket makes the request a call answers through when the test is its
// caller: its Src is the ticket's number, n, and nothing else. A ticket's
// answer is taken from the outbox, never sent.
func ticket(n uint32) scl.Request {
	return scl.NewRequest(scl.NodeID(n), 0, nil, func(uint16, []byte, vtime.Time) { panic("a ticket is answered through the wire") })
}

// ticketOf is the number of the ticket a reply answers.
func ticketOf(to scl.Request) uint32 { return uint32(to.Src()) }

// takeEffects empties the outbox as flush would and returns what was in
// it, each post encoded the way flush's Post would encode it.
func takeEffects(m *Manager) []effect {
	out := append([]effect(nil), m.out...)
	for i := range out {
		if e := &out[i]; e.to.OneWay() {
			e.kind, e.body = e.msg.Kind(), proto.Encode(e.msg)
		}
	}
	clear(m.out)
	m.out = m.out[:0]
	return out
}

// dst names the node an effect goes to: a post's own, a reply's through
// the table of who holds which ticket.
func (e effect) dst(from map[uint32]uint32) uint32 {
	if !e.to.OneWay() {
		return from[ticketOf(e.to)]
	}
	return e.node
}

// decodeEffect turns a queued reply into what the caller of Endpoint.Call
// would have got: the answer decoded into resp, or the typed remote error.
func decodeEffect(e effect, resp proto.Msg) error {
	if e.kind == proto.KError {
		var pe proto.Error
		if err := proto.Decode(&pe, e.body); err != nil {
			return err
		}
		return &scl.RemoteError{Code: pe.Code, Text: pe.Text}
	}
	if e.kind != resp.Kind() {
		return fmt.Errorf("got %v response, want %v", e.kind, resp.Kind())
	}
	return proto.Decode(resp, e.body)
}

// stepEnv is one manager (the leader, when wire carries its pushes to
// followers) driven through step.
type stepEnv struct {
	t    *testing.T
	mgr  *Manager
	wall time.Time // the wall reading the next call carries
	sent int
	// afterStep, if set, runs after every step (see TestScratchKeepsNothing).
	afterStep func(*Manager)

	from    map[uint32]uint32 // ticket -> the node that holds it
	sends   []effect          // every effect queued so far, in order
	replies map[uint32]effect // the answers among them, by ticket
	posts   []effect          // the posts among them
}

// stepEpoch is where a test's wall clock starts; the manager only ever
// subtracts readings.
var stepEpoch = time.Unix(1000, 0)

func newStepEnv(t *testing.T, homes int, lease time.Duration, live *stats.Liveness) *stepEnv {
	m := New(nil, layout.DefaultGeometry())
	m.SetShards(homes)
	if lease > 0 {
		m.EnableLiveness(lease, live, nil)
	}
	return &stepEnv{t: t, mgr: m, wall: stepEpoch, from: make(map[uint32]uint32), replies: make(map[uint32]effect)}
}

// advance moves the wall clock the next calls will read.
func (e *stepEnv) advance(d time.Duration) { e.wall = e.wall.Add(d) }

// send makes one call from node and files the effects of its transition.
// Call i leaves its node at virtual time 3000*i and arrives as the test
// link would deliver it. Its ticket is i, or 0 for a one-way.
func (e *stepEnv) send(node uint32, kind proto.Kind, body []byte, oneway bool) uint32 {
	e.sent++
	c := call{
		src: node, kind: kind, body: body, wall: e.wall, svc: testLink.ServiceTime,
		arrive: testLink.Deliver(vtime.Time(3000*e.sent)+testLink.SendOverhead, len(body)+simnet.HeaderBytes),
	}
	var tk uint32
	if !oneway {
		tk = uint32(e.sent)
		c.to = ticket(tk)
		e.from[tk] = node
	}
	e.mgr.step(&c)
	if e.afterStep != nil {
		e.afterStep(e.mgr)
	}
	e.collect()
	return tk
}

func (e *stepEnv) collect() {
	for _, eff := range takeEffects(e.mgr) {
		e.sends = append(e.sends, eff)
		if eff.to.OneWay() {
			e.posts = append(e.posts, eff)
			continue
		}
		tk := ticketOf(eff.to)
		if _, dup := e.replies[tk]; dup {
			e.t.Fatalf("a second answer (%v) to one call", eff.kind)
		}
		e.replies[tk] = eff
	}
}

// answered reports whether the call behind ticket has its answer yet.
func (e *stepEnv) answered(tk uint32) bool {
	_, ok := e.replies[tk]
	return ok
}

// result is what a caller blocked on ticket has in hand now; it fails the
// test if the call is still parked.
func (e *stepEnv) result(tk uint32, resp proto.Msg) error {
	e.t.Helper()
	eff, ok := e.replies[tk]
	if !ok {
		e.t.Fatalf("the call waiting for a %v is still parked", resp.Kind())
	}
	return decodeEffect(eff, resp)
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

// stepWire is the endpoint of a leader whose followers are driven through
// step as well: a replication Call becomes the follower's transition and
// the answer it queued. Posts land in the leader's stepEnv like any other.
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
	c := call{src: uint32(w.id), kind: req.Kind(), body: proto.Encode(req), arrive: at, to: ticket(uint32(dst)), wall: w.env.wall}
	f.step(&c)
	for _, e := range takeEffects(f) {
		if !e.to.OneWay() && ticketOf(e.to) == uint32(dst) {
			return at, decodeEffect(e, resp)
		}
		w.env.t.Errorf("a follower queued a %v besides its answer", e.kind)
	}
	return at, fmt.Errorf("replica %d left the %v unanswered", dst, req.Kind())
}

func (w *stepWire) Post(dst scl.NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error) {
	panic("a step-driven manager posts through its outbox")
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
	wire := &stepWire{env: env, id: mgrNode, followers: make(map[scl.NodeID]*Manager)}
	env.mgr.ep = wire
	group := []*Manager{env.mgr}
	for i := 1; i < n; i++ {
		f := New(nil, env.mgr.geo)
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
