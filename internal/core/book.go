package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// role is one entry of the runtime's address book. The manager and each
// memory-server home are roles: an ordered list of candidate nodes and
// the index of the one holding the role now. Every call and send to a
// role reads the book, and a failover moves it forward, never back.
// What differs between the two kinds is data: what "gone" means, how a
// candidate is promoted, and how often a call re-issues.
type role struct {
	what     string           // "manager", "home 3": names the role in errors
	spare    string           // what a role of one lacks: "replicas", "standby"
	span     string           // the trace span of a failover
	cands    []scl.NodeID     // promotion order; cands[0] holds the role at boot
	reissues int              // how many times a call re-issues after a failover
	gone     func(error) bool // the failures that warrant a failover
	promote  func(i int) proto.Msg
	count    *atomic.Int64 // failovers made; nil when not collected
	ctl      scl.Endpoint  // the runtime's control endpoint: promotions go from here
	tr       *trace.Collector

	mu  sync.Mutex   // serialises this role's promotions, and only this role's
	cur atomic.Int32 // index into cands of the holder
}

// managerRole is the manager's entry: replicas 0..R-1, promoted with a
// term one above the candidate's index, so a deposed leader can never
// ack its way back in. A call re-issues up to R times.
func (rt *Runtime) managerRole() *role {
	r := &role{
		what: "manager", spare: "replicas", span: "manager-failover",
		cands: make([]scl.NodeID, rt.cfg.ManagerReplicas), reissues: rt.cfg.ManagerReplicas,
		gone:    isMgrFailure,
		promote: func(i int) proto.Msg { return &proto.PromoteMgr{Term: uint64(i) + 1} },
		ctl:     rt.ctl, tr: rt.cfg.Trace,
	}
	for i := range r.cands {
		r.cands[i] = MgrReplicaNode(i)
	}
	if rt.livenessEnabled() {
		r.count = &rt.cfg.Liveness.Live.MgrFailovers
	}
	return r
}

// homeRole is home i's entry: its primary, then its warm standby when
// there is one. A call re-issues at most once.
func (rt *Runtime) homeRole(i int) *role {
	r := &role{
		what: fmt.Sprintf("home %d", i), spare: "standby", span: "failover",
		cands: []scl.NodeID{ServerNode(i)}, reissues: 1,
		gone:    isPeerFailure,
		promote: func(int) proto.Msg { return &proto.Promote{} },
		ctl:     rt.ctl, tr: rt.cfg.Trace,
	}
	if rt.standbyEnabled() {
		r.cands = append(r.cands, StandbyNode(i))
		r.count = &rt.cfg.Liveness.Live.Failovers
	}
	return r
}

// node is the fabric node holding r now.
func (r *role) node() scl.NodeID { return r.cands[r.cur.Load()] }

// failover moves r past failed, the node a caller's send to r failed
// against, and returns the node holding r now. If the book has already
// moved past failed, another caller got here first and nothing is
// promoted. Otherwise the later candidates are promoted in order, and
// one that is gone too is skipped.
func (r *role) failover(failed scl.NodeID) (scl.NodeID, error) {
	if len(r.cands) == 1 {
		return 0, fmt.Errorf("core: %s unreachable and no %s configured", r.what, r.spare)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.node(); cur != failed {
		return cur, nil
	}
	for i := int(r.cur.Load()) + 1; i < len(r.cands); i++ {
		var ack proto.Ack
		if _, err := r.ctl.Call(r.cands[i], r.promote(i), &ack, 0); err != nil {
			if isPeerFailure(err) {
				continue
			}
			return 0, fmt.Errorf("core: promoting %s candidate %d: %w", r.what, i, err)
		}
		r.cur.Store(int32(i))
		if r.count != nil {
			r.count.Add(1)
		}
		if r.tr != nil {
			r.tr.Span("runtime", trace.CatLive, r.span, 0, 0,
				map[string]any{"role": r.what, "candidate": i, "node": uint32(r.cands[i])})
		}
		return r.cands[i], nil
	}
	return 0, fmt.Errorf("core: no %s candidate after node %d is reachable", r.what, failed)
}

// call round-trips req from ep to r's holder, re-issuing it across
// failovers.
func (r *role) call(ep scl.Endpoint, req, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	node := r.node()
	doneAt, err := ep.Call(node, req, resp, at)
	return r.reissue(ep, node, req, resp, at, doneAt, err)
}

// start sends req from ep to r's holder into p and returns the node it
// went to; p.Wait and reissue finish the call as call does.
func (r *role) start(ep scl.Endpoint, req proto.Msg, at vtime.Time, p *scl.Pending) scl.NodeID {
	node := r.node()
	ep.Start(node, req, at, p)
	return node
}

// reissue follows up a call of req to node that ended in err: while the
// holder is gone, at most r.reissues times, it fails r over and re-sends
// req, stamped at as before; the holders' dedup paths absorb a request
// the old holder already applied. If the failover fails, the call's own
// error is returned.
func (r *role) reissue(ep scl.Endpoint, node scl.NodeID, req, resp proto.Msg, at, doneAt vtime.Time, err error) (vtime.Time, error) {
	for tries := 0; err != nil && r.gone(err) && tries < r.reissues; tries++ {
		if _, ferr := r.failover(node); ferr != nil {
			break
		}
		node = r.node()
		doneAt, err = ep.Call(node, req, resp, at)
	}
	return doneAt, err
}

// send ships m from ep to r's holder: a round trip answered into resp,
// or, with resp nil, a one-way post. A role with a spare candidate gets
// an acknowledged call instead of a post: a one-way message could die
// with the holder and no error would surface, while the ack proves the
// holder applied m (a home: and forwarded it to its standby), so a lost
// ack is recovered by re-sending to the promoted candidate, whose dedup
// (absolute-byte diffs, per-writer intervals) makes that safe. A thread's
// unlock to a replicated manager is that call too, started apart
// (release).
func (r *role) send(ep scl.Endpoint, m, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	if resp == nil && len(r.cands) == 1 {
		return ep.Post(r.node(), m, at)
	}
	if resp == nil {
		resp = &proto.Ack{}
	}
	return r.call(ep, m, resp, at)
}

// checkNodePlan rejects a topology the fabric's node plan cannot number:
// two components on one node, or one among the compute threads' nodes.
func checkNodePlan(cfg *Config) error {
	owner := map[scl.NodeID]string{controlNode: "the control endpoint"}
	place := func(n scl.NodeID, what string, i int) error {
		name := fmt.Sprintf("%s %d", what, i)
		if n >= ThreadNode(1) {
			return fmt.Errorf("core: node plan puts %s at node %d, among the compute threads (nodes %d and up)", name, n, ThreadNode(1))
		}
		if other, ok := owner[n]; ok {
			return fmt.Errorf("core: node plan puts %s and %s both at node %d", other, name, n)
		}
		owner[n] = name
		return nil
	}
	var err error
	for i := 0; i < cfg.ManagerReplicas && err == nil; i++ {
		err = place(MgrReplicaNode(i), "manager replica", i)
	}
	for i := 0; i < cfg.Geo.NumServers && err == nil; i++ {
		err = place(ServerNode(i), "memory server", i)
	}
	for i := 0; cfg.Liveness != nil && cfg.Liveness.Standby && i < cfg.Geo.NumServers && err == nil; i++ {
		err = place(StandbyNode(i), "standby", i)
	}
	return err
}
