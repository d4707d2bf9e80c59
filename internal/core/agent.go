package core

import (
	"fmt"

	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/vtime"
)

// agent is the thread's cache agent (the real system's runtime helper):
// while the thread computes, it answers the homes' diff pulls and takes
// the lock handoff's announcements and grants. Like the servers, run
// makes a call, step queues effects in out, and flush alone sends them.
type agent struct {
	t   *Thread
	out []effect
}

// call is one request: at is its arrival plus service time, to is whom to
// answer. Each is priced from its own arrival: a store lookup has no
// queueing to model, and a shared monotone clock would let one
// late-stamped request inflate every later (virtually earlier) reply.
type call struct {
	kind proto.Kind
	body []byte
	at   vtime.Time
	to   scl.Request
}

// effect is an answer, which has a call's shape, or, with wake set, a
// lock grant for the main goroutine asleep on wake.
type effect struct {
	call
	wake chan grantMsg
	gm   grantMsg
}

// run is the shell around the agent's step: it receives, steps and
// flushes until the endpoint closes.
func (a *agent) run() {
	for {
		req, ok := a.t.ep.Recv()
		if !ok {
			return
		}
		a.step(&call{kind: req.Kind(), body: req.Body(), at: req.Arrive() + req.Svc(), to: req})
		a.flush()
	}
}

// step is one transition of the agent. Its effects wait in a.out.
func (a *agent) step(c *call) {
	t := a.t
	switch c.kind {
	case proto.KDiffPullReq:
		var m proto.DiffPullReq
		if err := proto.Decode(&m, c.body); err != nil {
			a.reply(c, &proto.Error{Code: proto.CodeGeneric, Text: err.Error()}, c.at)
			return
		}
		diffs := t.cache.Owned().TakeMany(m.Pages)
		payload := 0
		for i := range diffs {
			payload += diffs[i].PayloadBytes()
		}
		a.reply(c, &proto.DiffPullResp{Diffs: diffs}, c.at+t.rt.cfg.CPU.CopyTime(payload))
	case proto.KNextWaiter:
		// Announcement and grant bodies have this one receiver: their
		// wire-form lists, and the store records materialised out of
		// them, alias the body instead of being copied. Everything
		// downstream only reads them.
		var nw proto.NextWaiter
		mustDecode(c, &nw)
		t.ho.mu.Lock()
		// Install unless a newer train is already present. The tenure
		// check happens at the unlock that would act on the train, not
		// here: an announcement routinely arrives before the main
		// goroutine has applied the grant that starts its tenure, and
		// gating on heldGen at arrival time would drop it. A stale
		// train (gen mismatch at unlock) is simply not acted on and
		// the manager falls back to a central grant.
		if cur := t.ho.succ[nw.Lock]; nw.Gen != 0 && (cur == nil || nw.Gen > cur.gen) {
			t.ho.succ[nw.Lock] = &succTrain{gen: nw.Gen, seq: nw.Seq, train: nw.Train}
		}
		t.ho.mu.Unlock()
	case proto.KLockGrant:
		g := new(proto.LockGrant)
		mustDecode(c, g)
		gm := grantMsg{g: g, at: c.at}
		t.ho.mu.Lock()
		if ch, ok := t.ho.grantWait[g.Lock]; ok {
			delete(t.ho.grantWait, g.Lock)
			a.out = append(a.out, effect{wake: ch, gm: gm})
		} else {
			// The grant raced ahead of the waiter parking; stash it.
			t.ho.grants[g.Lock] = gm
		}
		t.ho.mu.Unlock()
	default:
		a.reply(c, &proto.Error{Code: proto.CodeGeneric, Text: fmt.Sprintf("core: agent got unexpected %v", c.kind)}, c.at)
	}
}

// mustDecode decodes a one-way message, aliasing its body. There is
// nobody to tell that it is malformed, and that is a protocol bug, so it
// fails loudly.
func mustDecode(c *call, m proto.Msg) {
	if err := proto.DecodeAlias(m, c.body); err != nil {
		panic(fmt.Sprintf("core: bad %v: %v", c.kind, err))
	}
}

// reply queues the answer to c, if anybody waits for one.
func (a *agent) reply(c *call, m proto.Msg, at vtime.Time) {
	if !c.to.OneWay() {
		a.out = append(a.out, effect{call: call{kind: m.Kind(), body: proto.Encode(m), at: at, to: c.to}})
	}
}

// flush answers and wakes, in the order step queued them. Nothing else
// in the agent does either.
func (a *agent) flush() {
	for i := range a.out {
		e := &a.out[i]
		if e.wake != nil {
			wake(a.t.rt, e.wake, e.gm)
		} else {
			e.to.ReplyBody(e.kind, e.body, e.at)
		}
	}
	clear(a.out)
	a.out = a.out[:0]
}
