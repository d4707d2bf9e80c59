// Package manager implements the Samhita manager: the component
// responsible for memory allocation, synchronization and the
// write-notice directory that drives regional consistency (Section II).
// In the heterogeneous-node mapping of Figure 1 the manager runs on the
// host processor alongside the memory servers.
//
// Every synchronization operation in Samhita goes through the manager —
// the paper explicitly calls out the resulting overhead (Section V) —
// and a manager whose one virtual clock serialized all of it would be
// the bottleneck. The manager is one goroutine: a dispatcher over a
// configurable number of synchronization homes (shards). The dispatcher
// decodes each request once and routes it by lock/barrier/condition id
// (or allocation zone) to a home, and each home is a state machine with
// its own virtual clock, so traffic on unrelated synchronization
// objects no longer queues behind one clock. The homes shard virtual
// time, not the host: the dispatcher runs each home's work in turn.
//
// On a sequenced fabric the manager additionally hands contended locks
// over peer-to-peer, at every home count: the home names the next
// waiter to the current holder (NextWaiter), and the holder forwards
// the grant plus the notice batch directly to that waiter at release
// (LockGrant), so the manager stays out of the steady-state handoff
// path and only arbitrates when the waiter set changes.
//
// Consistency bookkeeping: each release (unlock, barrier arrival,
// condition wait) carries the releasing interval's write notice — the
// pages dirtied in ordinary regions plus the fine-grained store records
// logged in consistency regions. The manager stamps it with a global
// sequence number and stores it. Each acquire (lock grant, barrier
// departure, condition wakeup) returns every notice the acquiring thread
// has not yet seen. Notices older than every thread's horizon are
// pruned. The notice directory stays global across homes (see
// noticeBoard) because the acquire protocol's horizon is one scalar.
package manager

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Address-space plan. The zones are disjoint so that a Free can be
// routed by address alone.
const (
	// ArenaZoneBase is where per-thread arena chunks are carved from.
	ArenaZoneBase layout.Addr = 1 << 20
	arenaZoneEnd  layout.Addr = 1 << 34
	// SharedZoneBase serves medium allocations (strategy two).
	SharedZoneBase layout.Addr = 1 << 34
	sharedZoneEnd  layout.Addr = 1 << 36
	// StripedZoneBase serves large allocations (strategy three); bases
	// are aligned to a full stripe group so consecutive allocations
	// start on different memory servers.
	StripedZoneBase layout.Addr = 1 << 36
	stripedZoneEnd  layout.Addr = 1 << 40
)

// Stats counts manager activity. Fields are atomics so that harnesses
// and tests can observe progress while the manager runs.
type Stats struct {
	Allocs atomic.Int64
	Frees  atomic.Int64
	// DedupAllocs / DedupFrees count allocation-plane requests answered
	// from their writer's reply record instead of changing state:
	// re-issues across manager failover.
	DedupAllocs   atomic.Int64
	DedupFrees    atomic.Int64
	LockGrants    atomic.Int64
	LockWaits     atomic.Int64 // grants that had to queue first
	Unlocks       atomic.Int64
	BarrierRounds atomic.Int64
	BarrierWaits  atomic.Int64 // arrivals that parked for their round
	CondWaits     atomic.Int64
	CondSignals   atomic.Int64
	NoticesStored atomic.Int64
	NoticesSent   atomic.Int64
	NoticesPruned atomic.Int64
	NextWaiters   atomic.Int64 // successor announcements sent to holders
	FullTrains    atomic.Int64 // announcement trains cut at maxTrain entries
	DeadRecords   atomic.Int64 // store records left out of trains (last record wins)
	Handoffs      atomic.Int64 // grants forwarded holder-to-waiter
}

// atomicTime publishes a shard clock for cross-goroutine readers.
type atomicTime struct{ v atomic.Int64 }

func (a *atomicTime) Store(t vtime.Time) { a.v.Store(int64(t)) }
func (a *atomicTime) Load() vtime.Time   { return vtime.Time(a.v.Load()) }

// Manager is the manager component: a dispatcher over one or more
// synchronization homes.
type Manager struct {
	ep  scl.Endpoint
	geo layout.Geometry

	sequenced bool
	zoneShard [3]int // home shard of the arena/shared/striped zones

	// The replicated state: zones, snapshot/fork table, notice directory,
	// homes and membership (state.go).
	tables

	// Liveness (nil live == disabled). Heartbeats are wall-clock
	// driven and processed at zero virtual cost, so enabling liveness
	// does not perturb a run's virtual-time results. Reclamation fans
	// out from the lease table to the homes.
	live      *stats.Liveness
	uncounted stats.Liveness // what tally counts into instead of live; never read
	tr        *trace.Collector
	lease     time.Duration
	lastReap  time.Time    // wall reading of the last pass over the lease table
	dataNodes []scl.NodeID // memory servers + standbys, for WriterDead obituaries

	// Replication role and log (repl.go). A manager on its own leads a
	// group of one.
	repl *replState

	// The request in flight: the wall clock when it was received (set by
	// Run, the only time the lease table ever reads), whether it replays
	// the log, and the message its body decoded into (see decodeReq). out
	// holds what its transition queued until Run flushes it.
	now       time.Time
	replaying bool
	out       scl.Outbox
	scratch   scratch

	stats Stats
}

// memberKey identifies a liveness participant: its class
// (proto.MemberThread or proto.MemberServer) above its 32-bit id, so
// keys order by class, then id.
type memberKey uint64

func memberOf(class uint8, id uint32) memberKey { return memberKey(class)<<32 | memberKey(id) }

func (k memberKey) class() uint8 { return uint8(k >> 32) }
func (k memberKey) id() uint32   { return uint32(k) }

// member is one row of the manager's lease table.
type member struct {
	node     uint32
	lastBeat time.Time
	dead     bool
	reapGen  uint64 // obituary generation, for the promotion re-broadcast
}

// New creates a manager serving the given endpoint.
func New(ep scl.Endpoint, geo layout.Geometry) *Manager {
	m := &Manager{ep: ep, geo: geo, out: scl.NewOutbox(ep), repl: newReplState(0, nil, nil)}
	m.SetShards(1)
	return m
}

// SetShards splits the manager's synchronization state into n homes.
// Must be called before Run. With n == 1 (the default) one home serves
// every object; the lock protocol does not depend on n.
func (m *Manager) SetShards(n int) {
	m.tables = newTables(m, max(n, 1))
	// Each allocation zone gets a fixed home so zone state stays
	// single-owner; the ids are salted out of the sync-id space.
	for i := range m.zoneShard {
		m.zoneShard[i] = m.shardOf(0xA10C0000 + uint32(i))
	}
}

// SetSequenced tells the manager it runs on a deterministic sequenced
// fabric, where it hands contended locks over peer-to-peer. Must be
// called before Run.
func (m *Manager) SetSequenced(b bool) { m.sequenced = b }

// p2p reports whether contended locks are handed over peer-to-peer: on
// a sequenced fabric, at every home count.
func (m *Manager) p2p() bool { return m.sequenced }

// shardOf maps a synchronization object id to its home shard with a
// splitmix64-style finalizer, mirroring layout.Geometry.ShardOf for
// pages.
func (m *Manager) shardOf(id uint32) int {
	x := uint64(id)
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(len(m.shards)))
}

// EnableLiveness turns on heartbeat membership: participants that miss
// their lease are declared dead, their locks force-released, barrier
// counts recomputed, and parked waiters that can no longer make
// progress completed with proto.ErrPeerDied. Must be called before
// Run. A nil live allocates a private counter set; tr may be nil.
func (m *Manager) EnableLiveness(lease time.Duration, live *stats.Liveness, tr *trace.Collector) {
	if live == nil {
		live = new(stats.Liveness)
	}
	m.live = live
	m.lease = lease
	m.tr = tr
}

// SetDataNodes records the fabric nodes of every memory server and warm
// standby. When a thread's lease is reaped, the manager posts a
// WriterDead obituary to each so the servers stop waiting for the dead
// writer's unshipped diffs (a writer can die between announcing a
// release and shipping its DiffBatch). Must be called before Run.
func (m *Manager) SetDataNodes(nodes []scl.NodeID) {
	m.dataNodes = append([]scl.NodeID(nil), nodes...)
}

// Stats exposes the manager's counters.
func (m *Manager) Stats() *Stats { return &m.stats }

// ZoneLive reports the outstanding allocation count of each zone
// (arena, shared, striped) — the observable the alloc-leak regression
// test watches across failover. Call only when the manager is idle.
func (m *Manager) ZoneLive() (arena, shared, striped int) {
	return m.arenaZone.Live(), m.sharedZone.Live(), m.stripedZone.Live()
}

// Clock reports the manager's virtual time: the maximum across its
// homes' clocks.
func (m *Manager) Clock() vtime.Time {
	var max vtime.Time
	for _, sh := range m.shards {
		if t := sh.mirror.Load(); t > max {
			max = t
		}
	}
	return max
}

// post queues a one-way message (NextWaiter, LockGrant, WriterDead) to a
// node. A log replay queues none: the leader already sent them. This flag
// and the one-way request a log entry is replayed as are the whole rule of
// what a replica may externalise. A post is encoded only when it is sent:
// msg must own its data, no scratch message or notice-directory view.
func (m *Manager) post(node uint32, msg proto.Msg, at vtime.Time) {
	if !m.replaying {
		m.out.Post(scl.NodeID(node), msg, at)
	}
}

// tally is where a transition counts liveness events. core hands every
// replica the same counters, so a replay, which repeats what the leader
// already counted, counts into a set nobody reads; so does a manager
// without liveness.
func (m *Manager) tally() *stats.Liveness {
	if m.replaying || m.live == nil {
		return &m.uncounted
	}
	return m.live
}

// failParked completes every parked waiter at every home with a
// classified error (see shard.failParked). That is the leader's to do, and
// demote's last act as one: a follower's waiters mirror the leader's, and a
// LockGrant for a detached one would reach its thread once per replica.
func (m *Manager) failParked(code uint16, why string) {
	if m.isFollower() {
		return
	}
	for _, sh := range m.shards {
		sh.failParked(code, why)
	}
}

// Run is the shell around the state machine: it receives a request, reads
// the wall clock into m.now, runs step and flushes the outbox, until
// Shutdown or endpoint closure. It closes the endpoint on the way out: a
// stopped manager must refuse calls, not leave an open port nobody reads,
// or a leader still pushing to a follower that consumed its Shutdown first
// would block for good.
func (m *Manager) Run() {
	defer m.ep.Close()
	if m.hasPeers() && m.lease > 0 {
		// Wall-clock lease renewal, like heartbeats: clean sequenced
		// runs have no lease and start no ticker.
		stop := make(chan struct{})
		defer close(stop)
		go m.renewTicker(stop)
	}
	// The post statement runs after every pass, the last one included:
	// no exit leaves a queued send unsent.
	for done := false; !done; m.out.Flush() {
		req, ok := m.ep.Recv()
		if !ok {
			// The endpoint died under us (e.g. a fault injector killed
			// the manager node): parked waiters learn the peer died,
			// not that it shut down in an orderly way.
			m.failParked(proto.CodePeerDied, "manager endpoint closed")
			done = true
			continue
		}
		m.now = time.Now()
		done = m.step(&req)
	}
}

// step is one transition of the state machine: it changes state, queues
// its sends in m.out and touches neither the endpoint nor a clock (a
// leader with followers excepted: see pushToPeers). c is the request as
// it arrived; nobody waits for the answer to a one-way post or to a log
// entry (c.OneWay). stop reports an orderly shutdown.
func (m *Manager) step(c *scl.Request) (stop bool) {
	switch c.Kind() {
	// Heartbeats are wall-clock bookkeeping and carry zero virtual
	// cost: handled before any clock moves so liveness does not
	// perturb virtual-time determinism.
	case proto.KHeartbeat:
		m.handleHeartbeat(c)
		return false
	// Replication control plane (leader appends, snapshots, the
	// failover controller's promotion). A group of one has none: a stray
	// append with a high term must not depose the only manager.
	case proto.KReplAppend, proto.KReplSnapshot, proto.KPromoteMgr:
		switch {
		case !m.hasPeers():
			m.out.AnswerError(*c, proto.CodeGeneric, errors.New("manager: not a replica"), m.Clock())
		case c.Kind() == proto.KReplAppend:
			m.handleReplAppend(c)
		case c.Kind() == proto.KReplSnapshot:
			m.handleReplSnapshot(c)
		default:
			m.handlePromote(c)
		}
		return false
	}
	// Fence requests from members the lease table has declared
	// dead: their state was already reclaimed, so letting them back
	// in would corrupt lock/barrier bookkeeping.
	if m.live != nil && m.deadNodes[uint32(c.Src())] {
		m.out.AnswerError(*c, proto.CodePeerDied, fmt.Errorf("manager: request from dead node %d", c.Src()), m.Clock())
		return false
	}
	// Shutdown is handled ahead of the leader fence: it must keep its
	// terminal CodeShutdown/Ack meaning on every replica (the runtime
	// shuts all of them down), and a deposed leader must never convert
	// a client's orderly stop into a retryable NotLeader.
	if c.Kind() == proto.KShutdown {
		m.shards[0].charge(c, 0)
		m.out.Answer(*c, &proto.Ack{}, m.Clock())
		m.failParked(proto.CodeShutdown, "manager shut down")
		return true
	}
	// Standby (or deposed) replicas refuse the client plane with the
	// retryable CodeNotLeader; the runtime's failover redirect is what
	// turns that refusal into a promotion.
	if m.isFollower() {
		m.out.AnswerError(*c, proto.CodeNotLeader, fmt.Errorf("manager: replica %d is not the leader", m.repl.self), m.Clock())
		return false
	}
	if c.Kind() == proto.KReclaimEvent {
		m.handleThreadDied(c)
		return false
	}
	msg, idx, err := m.decodeReq(c)
	if err != nil {
		// Shard zero charges and answers a request that failed to decode,
		// so the single-home clock accounting is unchanged.
		sh := m.shards[0]
		sh.charge(c, 0)
		sh.fail(c, err)
		return false
	}
	floor, ok := m.replicate(c)
	if !ok {
		// Deposed mid-round; demote already failed the parked
		// waiters with the same code.
		m.out.AnswerError(*c, proto.CodeNotLeader, errors.New("manager: leader deposed"), m.Clock())
		return false
	}
	m.shards[idx].serve(c, msg, floor)
	return false
}

// scratch holds one message of each client-plane kind for decodeReq to
// decode into, so a request costs no message of its own. A handler keeps
// fields or slices of the message it serves, never the message: the next
// request of its kind overwrites it.
type scratch struct {
	alloc      proto.AllocReq
	free       proto.FreeReq
	register   proto.RegisterReq
	lock       proto.LockReq
	unlock     proto.UnlockReq
	barrier    proto.BarrierReq
	condWait   proto.CondWaitReq
	condSignal proto.CondSignalReq
	snapshot   proto.SnapshotASReq
	fork       proto.ForkASReq
}

// zeroed empties a scratch message for a decode. A zero message decodes
// its lists into fresh slices, which the notice directory may keep.
func zeroed[T any, P interface {
	*T
	proto.Msg
}](p P) proto.Msg {
	var zero T
	*p = zero
	return p
}

// decodeReq decodes a client-plane request into the manager's scratch
// and resolves its home shard. It is shared by the dispatcher and by
// followers replaying the replicated log, so route decisions are
// identical on every replica.
func (m *Manager) decodeReq(c *scl.Request) (proto.Msg, int, error) {
	var msg proto.Msg
	switch s := &m.scratch; c.Kind() {
	case proto.KAllocReq:
		msg = zeroed(&s.alloc)
	case proto.KFreeReq:
		msg = zeroed(&s.free)
	case proto.KRegisterReq:
		msg = zeroed(&s.register)
	case proto.KLockReq:
		msg = zeroed(&s.lock)
	case proto.KUnlockReq:
		msg = zeroed(&s.unlock)
	case proto.KBarrierReq:
		msg = zeroed(&s.barrier)
	case proto.KCondWaitReq:
		msg = zeroed(&s.condWait)
	case proto.KCondSignalReq:
		msg = zeroed(&s.condSignal)
	case proto.KSnapshotASReq:
		msg = zeroed(&s.snapshot)
	case proto.KForkASReq:
		msg = zeroed(&s.fork)
	default:
		return nil, 0, fmt.Errorf("manager: unexpected %v", c.Kind())
	}
	if err := proto.Decode(msg, c.Body()); err != nil {
		if c.Kind() == proto.KUnlockReq && c.OneWay() {
			// Nobody to answer; an undecodable unlock is a protocol bug.
			panic(fmt.Sprintf("manager: bad UnlockReq: %v", err))
		}
		return nil, 0, err
	}
	switch r := msg.(type) {
	case *proto.AllocReq:
		zi := 0
		switch r.Strategy {
		case proto.AllocShared:
			zi = 1
		case proto.AllocStriped:
			zi = 2
		}
		return msg, m.zoneShard[zi], nil
	case *proto.FreeReq:
		return msg, m.zoneShard[zoneIndexOf(layout.Addr(r.Addr))], nil
	case *proto.RegisterReq:
		return msg, m.shardOf(r.Thread), nil
	case *proto.LockReq:
		return msg, m.shardOf(r.Lock), nil
	case *proto.UnlockReq:
		return msg, m.shardOf(r.Lock), nil
	case *proto.BarrierReq:
		return msg, m.shardOf(r.Barrier), nil
	case *proto.CondWaitReq:
		// A condition wait releases its lock, so it runs at the LOCK's
		// home; parking at the condition's home is a cross-shard item
		// from there.
		return msg, m.shardOf(r.Lock), nil
	case *proto.CondSignalReq:
		return msg, m.shardOf(r.Cond), nil
	case *proto.SnapshotASReq, *proto.ForkASReq:
		// Snapshot/fork state lives with the striped zone it describes.
		return msg, m.zoneShard[2], nil
	default:
		return nil, 0, fmt.Errorf("manager: unexpected %v", c.Kind())
	}
}

// zoneIndexOf maps an address to its allocation zone's index (Free
// routing). Out-of-zone addresses go to the arena home, whose handler
// produces the error reply.
func zoneIndexOf(addr layout.Addr) int {
	switch {
	case addr >= SharedZoneBase && addr < sharedZoneEnd:
		return 1
	case addr >= StripedZoneBase && addr < stripedZoneEnd:
		return 2
	default:
		return 0
	}
}

// ---------------------------------------------------------------------
// Liveness: heartbeat membership and lease reclamation.

// handleHeartbeat renews (or, with Bye, retires) a member's lease and
// reaps members whose lease has expired. Server heartbeats double as
// the reap prodder: the lease table keeps advancing even when every
// compute thread is parked or dead. A replicated leader also renews its
// own lease here (renewTicker's empty beats guarantee the prod).
func (m *Manager) handleHeartbeat(c *scl.Request) {
	if m.live == nil {
		return // liveness disabled: ignore
	}
	var hb proto.Heartbeat
	if err := proto.Decode(&hb, c.Body()); err != nil {
		// A heartbeat that fails to decode means a version-skewed or
		// corrupted peer whose lease is silently starving; count it and
		// leave a trace event instead of dropping it invisibly.
		m.live.HeartbeatsMalformed.Add(1)
		if m.tr != nil {
			m.traceLive("heartbeat-malformed", map[string]any{"src": uint32(c.Src()), "err": err.Error()})
		}
		return
	}
	m.live.Heartbeats.Add(1)
	if hb.Member != 0 || hb.Class != 0 {
		k := memberOf(hb.Class, hb.Member)
		switch mem, ok := m.members[k]; {
		case hb.Bye:
			// Graceful departure: the member leaves the table instead of
			// timing out, so finished threads are never declared dead.
			// A thread can leave while still holding a lock or parked in
			// a barrier/cond round (crash-free but buggy app code, or a
			// shutdown racing in-flight sync); once it is out of the
			// table no lease can ever expire for it, so its sync state
			// must be reclaimed here or it leaks forever. The thread is
			// NOT marked dead: a later re-registration is legitimate.
			delete(m.members, k)
			if ok && k.class() == proto.MemberThread {
				m.reclaimThread(k.id(), false)
			}
		case ok:
			if !mem.dead {
				mem.lastBeat = m.now
			}
		default:
			m.members[k] = &member{node: hb.Node, lastBeat: m.now}
		}
	}
	if m.isFollower() {
		// Reaps are the leader's to make and reach a follower through
		// the log; one made here could not be replicated and would leave
		// the member wrongly dead at promotion.
		return
	}
	m.reap()
	m.renewLease()
}

// reap declares members whose lease expired dead and reclaims their
// synchronization state. A lease measures a member's silence, not the
// manager's: after a gap in which this goroutine did not look at the
// table (it was starved or blocked, or nobody prodded it), the beats
// live members sent meanwhile are still queued behind the one being
// handled. A gap therefore counts against a member for at most a
// quarter lease; every member is credited the rest.
func (m *Manager) reap() {
	if unseen := m.now.Sub(m.lastReap) - m.lease/4; unseen > 0 && !m.lastReap.IsZero() {
		for _, mem := range m.members {
			mem.lastBeat = mem.lastBeat.Add(unseen)
		}
	}
	m.lastReap = m.now
	for k, mem := range m.members {
		if mem.dead || m.now.Sub(mem.lastBeat) <= m.lease {
			continue
		}
		if m.tr != nil {
			m.traceLive("member-dead", map[string]any{
				"class": k.class(), "id": k.id(), "node": mem.node,
			})
		}
		if k.class() == proto.MemberServer {
			mem.dead = true
			m.deadNodes[mem.node] = true
			m.live.ServersDead.Add(1)
			continue
		}
		m.reapThread(k.id(), mem.node)
	}
}

// reapThread declares thread tid, on fabric node node, dead and reclaims
// its synchronization state. The leader logs the reap BEFORE acting on
// it, then applies it the way a follower does: a follower promoted later
// finds the member already dead and never re-reaps it (no double barrier
// recomputation, no duplicate obituary generation).
func (m *Manager) reapThread(tid, node uint32) {
	re := proto.ReclaimEvent{Thread: tid, Node: node, Gen: m.obitGen + 1}
	if !m.replicateEvent(proto.KReclaimEvent, &re) {
		return // deposed mid-reap: the new leader owns this decision
	}
	m.tally().ThreadsDead.Add(1)
	m.applyReclaimEvent(&re)
	// Obituary to the data plane: the dead writer may have announced a
	// release whose DiffBatch it never shipped, and the servers must not
	// park fetches on that tag forever. One-way at zero virtual cost,
	// like the heartbeats that drive this path. The generation lets
	// servers deduplicate when a promoted manager re-broadcasts.
	for _, node := range m.dataNodes {
		m.post(uint32(node), &proto.WriterDead{Writer: re.Thread, Gen: re.Gen}, 0)
	}
}

// handleThreadDied reaps a thread that reports its own death (its body
// panicked) the way a lease expiry reaps one, so the peers parked on it
// are released or failed instead of waiting for it. Liveness need not be
// on. The report is acknowledged when the sender waits for an answer.
func (m *Manager) handleThreadDied(c *scl.Request) {
	var re proto.ReclaimEvent
	if err := proto.Decode(&re, c.Body()); err != nil {
		m.out.AnswerError(*c, proto.CodeGeneric, fmt.Errorf("manager: bad thread death report: %w", err), m.Clock())
		return
	}
	if mem, ok := m.members[memberOf(proto.MemberThread, re.Thread)]; !ok || !mem.dead {
		m.reapThread(re.Thread, re.Node)
	}
	m.out.Answer(*c, &proto.Ack{}, m.Clock())
}

// reclaimThread fans a thread's reclamation out to every home and then
// removes it from the write-notice horizon. markDead first fences future
// grants to the thread at every home.
func (m *Manager) reclaimThread(tid uint32, markDead bool) {
	if markDead {
		m.deadThreads[tid] = true
	}
	for _, sh := range m.shards {
		sh.reclaim(tid)
	}
	// The thread no longer pins the write-notice horizon.
	m.board.dropThread(tid)
}

// unsatisfiable reports whether a barrier that needs that many live
// arrivals can never gather them. The verdict is the leader's: a
// follower's membership is not meaningful (heartbeats only reach the
// leader), and the decision arrives via the log or a promotion.
func (m *Manager) unsatisfiable(need int) bool {
	return !m.isFollower() && need > m.liveThreads()
}

// liveThreads counts the thread members not declared dead.
func (m *Manager) liveThreads() int {
	n := 0
	for k, mem := range m.members {
		if k.class() == proto.MemberThread && !mem.dead {
			n++
		}
	}
	return n
}

// traceLive emits one liveness event. Callers check m.tr first, so an
// untraced run never builds the args map.
func (m *Manager) traceLive(name string, args map[string]any) {
	now := m.Clock()
	m.tr.Span("manager", trace.CatLive, name, now, now, args)
}
