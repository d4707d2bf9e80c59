package core

import (
	"fmt"

	"repro/internal/proto"
	"repro/internal/scl"
)

// agent is the thread's cache agent (the real system's runtime helper):
// while the thread computes, it answers the homes' diff pulls and takes
// the lock handoff's announcements and grants. Like the servers, run
// hands step each request, step queues its answers in out, and run
// flushes them. A grant is no send: step hands it to the thread through
// the lock's grant box.
type agent struct {
	t   *Thread
	out scl.Outbox
}

// run is the shell around the agent's step: it receives, steps and
// flushes until the endpoint closes.
func (a *agent) run() {
	for {
		req, ok := a.t.ep.Recv()
		if !ok {
			return
		}
		a.step(&req)
		a.out.Flush()
	}
}

// step is one transition of the agent. Each request is priced from its
// own arrival plus service: a store lookup has no queueing to model, and
// a shared monotone clock would let one late-stamped request inflate
// every later (virtually earlier) reply.
func (a *agent) step(c *scl.Request) {
	t := a.t
	at := c.Arrive() + c.Svc()
	switch c.Kind() {
	case proto.KDiffPullReq:
		var m proto.DiffPullReq
		if !a.out.Decode(c, &m, at) {
			return
		}
		diffs := t.cache.Owned().TakeMany(m.Pages)
		payload := 0
		for i := range diffs {
			payload += diffs[i].PayloadBytes()
		}
		a.out.Answer(*c, &proto.DiffPullResp{Diffs: diffs}, at+t.rt.cfg.CPU.CopyTime(payload))
	case proto.KNextWaiter:
		// Announcement and grant bodies have this one receiver: their
		// wire-form lists, and the store records materialised out of
		// them, alias the body instead of being copied. Everything
		// downstream only reads them.
		var nw proto.NextWaiter
		c.MustDecode(&nw)
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
		c.MustDecode(g)
		t.ho.mu.Lock()
		b := t.grantBox(g.Lock)
		t.ho.mu.Unlock()
		// The grant may race ahead of the waiter parking: the box keeps
		// it, and credits the waiter only if it is parked already.
		b.h.Done()
		b.ch <- grantMsg{g: g, at: at}
	default:
		a.out.AnswerError(*c, proto.CodeGeneric, fmt.Errorf("core: agent got unexpected %v", c.Kind()), at)
	}
}
