package manager

// Kill-survivable manager: every client-plane mutation is driven through
// a replicated log (internal/replog) before it is applied, so standby
// manager replicas hold the same membership leases, lock/barrier/cond
// tables, notice directory and allocation zones as the leader and can
// take over when it dies.
//
// The flow is leader-based synchronous replication in the style of
// Raft's append path, with elections externalized to the runtime (the
// clients' retry exhaustion against a dead leader is the lease-expiry
// signal; the failover controller promotes the next replica under a
// strictly higher term):
//
//   - The leader decodes a mutation, appends it to its log and pushes
//     the pending entries to every live follower with a blocking
//     ReplAppend call. Only when every live follower has acknowledged
//     does the mutation reach the shard state machines and its reply
//     reach the client. Lost followers are dropped (they stop gating);
//     a follower answering from a higher term — or the leader's own
//     sends failing terminally, the self-death signal under a fault
//     injector — deposes the leader, which fails every parked waiter
//     with CodeNotLeader so clients re-issue against the successor.
//   - Followers apply accepted entries through the SAME transitions the
//     leader ran, as one-way requests nobody waits on (applyEntry)
//     under the one replay flag (Manager.replaying) that withholds
//     posts.
//     The manager is one goroutine, so applying the log is deterministic
//     regardless of the shard count.
//   - The log is truncated to what every live follower acked AND the
//     leader applied; a follower whose next expected index was
//     truncated away is caught up with a full state snapshot
//     (manager/state.go) and resumes appends above it.
//
// A manager on its own is a group of one: it leads no followers, so a
// mutation costs it one log append and one emptying truncation, and what
// it sends, when and in what order, is the unreplicated manager's.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/proto"
	"repro/internal/replog"
	"repro/internal/scl"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// Replication configures a manager replica. Nodes lists every replica's
// fabric node in promotion order: index 0 is the initial leader, and on
// failover the runtime promotes the lowest-indexed survivor.
type Replication struct {
	Self  int          // this replica's index in Nodes
	Nodes []scl.NodeID // all replica nodes, by index
	Live  *stats.Liveness
}

// replState is a manager's replication role and log bookkeeping. Like
// all manager state it belongs to the Run goroutine alone.
type replState struct {
	self     int
	replicas []scl.NodeID
	live     *stats.Liveness

	leader  bool
	deposed bool
	term    uint64

	prop    *replog.Proposer // leader only
	acc     replog.Acceptor
	applied uint64 // entries externalized to the shard state machines

	lastPush time.Time // wall clock of the last push to the followers

	// The leader's call (push, pushAck) and the follower's decode and
	// answer (in, inAck), kept here because a message handed to an Endpoint
	// escapes: a local one is a heap object per follower per mutation. The
	// two appends stay apart: push.Entries is a view of the proposer's log,
	// which a decode into the same message would overwrite.
	push    proto.ReplAppend
	pushAck proto.ReplAck
	in      proto.ReplAppend
	inAck   proto.ReplAck
}

// SetReplication turns this manager into replica cfg.Self of a
// replicated group. Must be called before Run. Replica 0 starts as the
// leader under term 1; the others follow until promoted.
func (m *Manager) SetReplication(cfg Replication) {
	if len(cfg.Nodes) >= 2 { // New already made the group of one
		m.repl = newReplState(cfg.Self, cfg.Nodes, cfg.Live)
	}
}

func newReplState(self int, nodes []scl.NodeID, live *stats.Liveness) *replState {
	if live == nil {
		live = new(stats.Liveness)
	}
	r := &replState{self: self, replicas: append([]scl.NodeID(nil), nodes...), live: live, term: 1}
	r.acc.Term = 1
	if self == 0 {
		r.leader = true
		var peers []int
		for i := 1; i < len(nodes); i++ {
			peers = append(peers, i)
		}
		r.prop = replog.NewProposer(1, peers, 1)
	}
	return r
}

// isFollower reports whether this manager currently applies the log
// instead of serving clients (standby replica, or a deposed leader). It
// decides who refuses the client plane and who makes the decisions that
// are the leader's alone (reap, unsatisfiable, failing the parked), never
// what a transition may send: that is the request's OneWay and
// Manager.replaying.
func (m *Manager) isFollower() bool { return !m.repl.leader }

// hasPeers reports whether this manager is one replica of several: only
// then is there a replication plane, a lease to renew, or a request
// re-issued across a failover. The arms that know such a duplicate by what
// it left behind (a held lock, a filled interval) need a thread's requests
// in send order; a lone manager's one-way unlock can be overtaken.
func (m *Manager) hasPeers() bool { return len(m.repl.replicas) > 1 }

// replicate appends one client mutation to the log and pushes it to
// every live follower before the caller applies it. The returned floor
// is the virtual time when the slowest follower's ack was in hand: the
// shard clock advances to it so replication latency is on the
// critical path it really occupies. ok=false means this leader was
// deposed mid-round; the caller answers CodeNotLeader.
//
// The log holds the request's own body, not a copy: a body is its
// receiver's buffer on both transports and nothing writes it after the
// decode (DESIGN.md §11).
func (m *Manager) replicate(c *scl.Request) (floor vtime.Time, ok bool) {
	m.repl.prop.Append(uint32(c.Src()), c.Kind(), c.Body())
	return m.pushToPeers(c.Arrive())
}

// replicateEvent logs a manager-internal decision (a lease reap) so a
// promoted follower never re-makes it. Deposition is absorbed here: the
// demoted manager has already failed its parked waiters, and the reap
// it was about to act on is now the new leader's to make.
func (m *Manager) replicateEvent(kind proto.Kind, msg proto.Msg) bool {
	r := m.repl
	if !r.leader || r.deposed {
		return false
	}
	r.prop.Append(0, kind, proto.Encode(msg))
	_, ok := m.pushToPeers(m.Clock())
	return ok
}

// pushToPeers ships every pending log entry (none = lease renewal) to
// each live follower and truncates the acked+applied prefix. This Call and
// sendSnapshot's are the two sends a transition makes itself, because it
// needs their answer: log, push, then apply. Queueing them would apply a
// mutation before its followers acked it, or reorder the leader's
// transitions around the acks and move every virtual time downstream.
func (m *Manager) pushToPeers(at vtime.Time) (floor vtime.Time, ok bool) {
	r := m.repl
	r.lastPush = m.now
	// A deposition flushes at once: the waiters demote failed are told
	// before anything else this replica does.
	deposed := func() (vtime.Time, bool) { m.out.Flush(); return 0, false }
	floor = at
	for _, pi := range r.prop.LivePeers() {
	peerLoop:
		for {
			ents, needSnap := r.prop.Batch(pi)
			if needSnap {
				dropped, lost := m.sendSnapshot(pi, at)
				if lost {
					return deposed()
				}
				if dropped {
					break peerLoop
				}
				continue
			}
			// A decode leaves tail fields it does not find alone, so the
			// ack starts from zero each round.
			r.push, r.pushAck = proto.ReplAppend{Term: r.term, Entries: ents}, proto.ReplAck{}
			ack := &r.pushAck
			doneAt, err := m.ep.Call(r.replicas[pi], &r.push, ack, at)
			if err != nil {
				if isPeerGone(err) {
					r.prop.DropPeer(pi)
					r.live.ReplFailures.Add(1)
					break peerLoop
				}
				// Our own sends failing terminally means THIS node is
				// gone (the fault injector killed it): stop
				// externalizing state.
				m.demote(fmt.Sprintf("replication to replica %d failed: %v", pi, err))
				return deposed()
			}
			r.live.MgrReplAppends.Add(1)
			r.live.MgrReplEntries.Add(int64(len(ents)))
			if doneAt > floor {
				floor = doneAt
			}
			if r.prop.Ack(pi, ack) {
				m.demote(fmt.Sprintf("deposed by replica %d (term %d)", pi, ack.Term))
				return deposed()
			}
			if ack.OK {
				break peerLoop
			}
			// Gap rejection: the follower told us its next expected
			// index; the next Batch resends from there.
		}
	}
	r.applied = r.prop.Last()
	if n := r.prop.Truncate(r.applied); n > 0 {
		r.live.MgrLogTruncated.Add(int64(n))
	}
	return floor, true
}

// sendSnapshot catches a lagging follower up with the full semantic
// state, keyed to the applied index.
func (m *Manager) sendSnapshot(pi int, at vtime.Time) (dropped, deposed bool) {
	r := m.repl
	snap := &proto.ReplSnapshot{Term: r.term, Index: r.applied, State: m.encodeState()}
	var ack proto.ReplAck
	if _, err := m.ep.Call(r.replicas[pi], snap, &ack, at); err != nil {
		if isPeerGone(err) {
			r.prop.DropPeer(pi)
			r.live.ReplFailures.Add(1)
			return true, false
		}
		m.demote(fmt.Sprintf("snapshot to replica %d failed: %v", pi, err))
		return false, true
	}
	if !ack.OK {
		if ack.Term > r.term {
			m.demote(fmt.Sprintf("deposed by replica %d (term %d)", pi, ack.Term))
			return false, true
		}
		r.prop.DropPeer(pi)
		return true, false
	}
	r.prop.SnapshotInstalled(pi, snap.Index)
	r.live.MgrSnapshots.Add(1)
	return false, false
}

// isPeerGone classifies a replication-call failure as the PEER being
// unreachable (transient transport failures and their retry-exhausted
// form) rather than this node being dead (terminal failures).
func isPeerGone(err error) bool {
	if errors.Is(err, scl.ErrUnreachable) || errors.Is(err, proto.ErrPeerDied) {
		return true
	}
	return scl.IsTransient(err)
}

// demote steps a deposed leader down: every parked waiter is answered
// with CodeNotLeader (a retryable error — see scl.IsTransient — that
// the runtime redirects to the promoted replica), and every subsequent
// client-plane request is refused the same way. Client-initiated
// shutdown keeps its terminal CodeShutdown meaning: a deposed leader
// never answers with it.
func (m *Manager) demote(why string) {
	r := m.repl
	if !r.leader || r.deposed {
		return
	}
	r.deposed = true
	r.live.MgrDeposed.Add(1)
	if m.tr != nil {
		m.traceLive("manager-deposed", map[string]any{"replica": r.self, "term": r.term, "why": why})
	}
	m.failParked(proto.CodeNotLeader, "manager leader deposed")
	r.leader = false
}

// handleReplAppend is the follower half of the append path. The append
// is decoded in place: r.in's entry list is scratch that the next append
// overwrites, and each entry's Body is a window into this call's own
// body. Entries are applied by value, and nothing of one outlives its
// transition: a parked waiter holds no part of the call that parked it.
func (m *Manager) handleReplAppend(c *scl.Request) {
	r := m.repl
	ra := &r.in
	if !m.out.Decode(c, ra, m.Clock()) {
		return
	}
	if r.leader {
		if ra.Term > r.term {
			m.demote(fmt.Sprintf("append from term %d", ra.Term))
		} else {
			// A stale old leader appending to the new one: the higher
			// term in the nack deposes it.
			r.inAck = proto.ReplAck{OK: false, Term: r.term, NextIndex: r.acc.Last + 1}
			m.out.Answer(*c, &r.inAck, m.Clock())
			return
		}
	}
	var apply []proto.ReplEntry
	apply, r.inAck = r.acc.Offer(ra)
	if r.acc.Term > r.term {
		r.term = r.acc.Term
	}
	m.replaying = true
	for _, e := range apply {
		m.applyEntry(e)
	}
	m.replaying = false
	m.out.Answer(*c, &r.inAck, m.Clock())
}

// handleReplSnapshot installs a full-state snapshot on a lagging
// follower.
func (m *Manager) handleReplSnapshot(c *scl.Request) {
	r := m.repl
	var rs proto.ReplSnapshot
	if !m.out.Decode(c, &rs, m.Clock()) {
		return
	}
	if r.leader && rs.Term <= r.term {
		m.out.Answer(*c, &proto.ReplAck{OK: false, Term: r.term, NextIndex: r.acc.Last + 1}, m.Clock())
		return
	}
	if err := r.acc.InstallSnapshot(rs.Term, rs.Index); err != nil {
		m.out.Answer(*c, &proto.ReplAck{OK: false, Term: r.acc.Term, NextIndex: r.acc.Last + 1}, m.Clock())
		return
	}
	if err := m.restoreState(rs.State); err != nil {
		// A snapshot the leader just encoded failing to decode is a
		// protocol bug, not a runtime condition.
		panic(fmt.Sprintf("manager: bad replication snapshot: %v", err))
	}
	// A lease is wall-clock and meaningless across nodes: every restored
	// member starts a new one here.
	for _, mem := range m.members {
		mem.lastBeat = m.now
	}
	r.term = r.acc.Term
	m.out.Answer(*c, &proto.ReplAck{OK: true, Term: r.acc.Term, NextIndex: r.acc.Last + 1}, m.Clock())
}

// applyEntry runs one accepted log entry through the shard state
// machines, as the leader did.
func (m *Manager) applyEntry(e proto.ReplEntry) {
	kind := proto.Kind(e.Kind)
	if kind == proto.KReclaimEvent {
		var re proto.ReclaimEvent
		if err := proto.Decode(&re, e.Body); err != nil {
			panic(fmt.Sprintf("manager: bad replicated reclaim event: %v", err))
		}
		m.applyReclaimEvent(&re)
		return
	}
	c := scl.NewRequest(scl.NodeID(e.Src), kind, e.Body, nil)
	msg, idx, err := m.decodeReq(&c)
	if err != nil {
		// Entries were decodable at the leader; a mismatch here means
		// corruption, not client error.
		panic(fmt.Sprintf("manager: bad replicated %v entry: %v", kind, err))
	}
	// A waiter the entry parks keeps its request: one without the body,
	// so it holds no part of the append.
	c = scl.NewRequest(scl.NodeID(e.Src), kind, nil, nil)
	m.shards[idx].serve(&c, msg, 0)
}

// applyReclaimEvent acts on a lease reap, at the leader that just logged
// it and at every follower that replays it. The member is marked dead so a
// later promotion of this replica never re-reaps the same lease (and so
// the old and new leader can never both recompute the same barriers);
// obituary generations are remembered for the promotion-time re-broadcast.
func (m *Manager) applyReclaimEvent(re *proto.ReclaimEvent) {
	k := memberOf(proto.MemberThread, re.Thread)
	mem, ok := m.members[k]
	switch {
	case !ok:
		mem = &member{node: re.Node, dead: true}
		m.members[k] = mem
	case mem.dead:
		return // duplicate (snapshot + log overlap)
	default:
		mem.dead = true
	}
	mem.reapGen = re.Gen
	if re.Gen > m.obitGen {
		m.obitGen = re.Gen
	}
	m.deadNodes[re.Node] = true
	m.reclaimThread(re.Thread, true)
}

// handlePromote makes this replica the leader under a strictly higher
// term. Idempotent: a duplicate promotion (a client retry) at or below
// the current term of an active leader just acks.
func (m *Manager) handlePromote(c *scl.Request) {
	r := m.repl
	var pm proto.PromoteMgr
	if !m.out.Decode(c, &pm, m.Clock()) {
		return
	}
	if r.leader && !r.deposed && pm.Term <= r.term {
		m.out.Answer(*c, &proto.Ack{}, m.Clock())
		return
	}
	if pm.Term <= r.term {
		m.out.AnswerError(*c, proto.CodeGeneric,
			fmt.Errorf("manager: stale promotion to term %d (replica %d is at term %d)", pm.Term, r.self, r.term), m.Clock())
		return
	}
	m.promote(pm.Term)
	m.out.Answer(*c, &proto.Ack{}, m.Clock())
}

// promote turns this follower into the leader.
func (m *Manager) promote(term uint64) {
	r := m.repl
	r.term = term
	r.acc.Term = term
	r.leader = true
	r.deposed = false
	// The chain only ever promotes upward, so the replicas above this
	// one are the new peer set; anything below is a deposed leader the
	// higher term fences.
	var peers []int
	for i := r.self + 1; i < len(r.replicas); i++ {
		peers = append(peers, i)
	}
	r.prop = replog.NewProposer(term, peers, r.acc.Last+1)
	r.applied = r.acc.Last
	// Every surviving member gets a fresh lease: none of them could
	// heartbeat this replica before learning it leads, and a reap storm
	// at promotion would undo the failover the replication paid for.
	for _, mem := range m.members {
		if !mem.dead {
			mem.lastBeat = m.now
		}
	}
	r.live.MgrElections.Add(1)
	if m.tr != nil {
		m.traceLive("manager-promoted", map[string]any{"replica": r.self, "term": term})
	}
	// Re-broadcast obituaries for every thread reaped under earlier
	// terms: the old leader may have died between replicating the reap
	// and posting the WriterDead. The servers deduplicate by
	// generation, so the overlap with the old leader's posts is safe.
	for k, mem := range m.members {
		if k.class() != proto.MemberThread || !mem.dead {
			continue
		}
		for _, node := range m.dataNodes {
			m.post(uint32(node), &proto.WriterDead{Writer: k.id(), Gen: mem.reapGen}, 0)
		}
	}
}

// renewTicker prods a replicated manager with an empty heartbeat every
// half lease, until stop closes or the post fails terminally (the node
// was crash-killed, or the runtime is tearing the transport down). It
// touches no manager state: handleHeartbeat, on the Run goroutine, is
// where the prod becomes a lease renewal.
func (m *Manager) renewTicker(stop <-chan struct{}) {
	t := time.NewTicker(max(m.lease/2, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if _, err := m.ep.Post(m.ep.ID(), &proto.Heartbeat{}, 0); err != nil && !scl.IsTransient(err) {
			return
		}
	}
}

// renewLease is the leader lease: an empty append to the followers once
// half a lease has passed without a push. Its real job is detecting the
// leader's OWN death while idle — a killed node's outbound calls fail
// terminally, which demotes it so parked clients get their
// CodeNotLeader within a bounded stall instead of hanging until the
// next mutation.
func (m *Manager) renewLease() {
	if r := m.repl; r.leader && m.now.Sub(r.lastPush) >= m.lease/2 {
		m.pushToPeers(m.Clock())
	}
}
