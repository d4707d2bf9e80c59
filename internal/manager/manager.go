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
// With a single home (the default) the times, message bytes and grant
// order are those of a single event loop.
//
// On a sequenced fabric a sharded manager additionally hands contended
// locks over peer-to-peer: the home names the next waiter to the
// current holder (NextWaiter), and the holder forwards the grant plus
// the notice batch directly to that waiter at release (LockGrant), so
// the manager stays out of the steady-state handoff path and only
// arbitrates when the waiter set changes.
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
	// from the per-writer idempotency records instead of mutating a
	// zone: re-issues across manager failover.
	DedupAllocs   atomic.Int64
	DedupFrees    atomic.Int64
	LockGrants    atomic.Int64
	LockWaits     atomic.Int64 // grants that had to queue first
	Unlocks       atomic.Int64
	BarrierRounds atomic.Int64
	CondWaits     atomic.Int64
	CondSignals   atomic.Int64
	NoticesStored atomic.Int64
	NoticesSent   atomic.Int64
	NoticesPruned atomic.Int64
	NextWaiters   atomic.Int64 // successor announcements sent to holders
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

	nshards   int
	sequenced bool
	p2p       bool   // peer-to-peer lock handoff (sharded + sequenced)
	zoneShard [3]int // home shard of the arena/shared/striped zones

	// The replicated state: zones, snapshot/fork table, notice directory,
	// homes and membership (state.go).
	tables

	// Liveness (nil live == disabled). Heartbeats are wall-clock
	// driven and processed at zero virtual cost, so enabling liveness
	// does not perturb a run's virtual-time results. Reclamation fans
	// out from the lease table to the homes.
	live      *stats.Liveness
	tr        *trace.Collector
	lease     time.Duration
	lastReap  time.Time    // wall clock of the last pass over the lease table
	dataNodes []scl.NodeID // memory servers + standbys, for WriterDead obituaries

	// Replication (nil = single manager, bit-identical to the
	// historical behavior). See repl.go.
	repl *replState

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
	m := &Manager{ep: ep, geo: geo}
	m.setShards(1)
	return m
}

// SetShards splits the manager's synchronization state into n homes.
// Must be called before Run. With n == 1 (the default) the manager
// behaves exactly as the historical single-loop implementation.
func (m *Manager) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	m.setShards(n)
}

func (m *Manager) setShards(n int) {
	m.nshards = n
	m.tables = newTables(m, n)
	// Each allocation zone gets a fixed home so zone state stays
	// single-owner; the ids are salted out of the sync-id space.
	for i := range m.zoneShard {
		m.zoneShard[i] = m.shardOf(0xA10C0000 + uint32(i))
	}
}

// SetSequenced tells the manager it runs on a deterministic sequenced
// fabric, where a sharded manager hands contended locks over
// peer-to-peer. Must be called before Run.
func (m *Manager) SetSequenced(b bool) { m.sequenced = b }

// shardOf maps a synchronization object id to its home shard with a
// splitmix64-style finalizer, mirroring layout.Geometry.ShardOf for
// pages.
func (m *Manager) shardOf(id uint32) int {
	x := uint64(id)
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(m.nshards))
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

// dispatchAt routes a decoded request to its home shard. Requests that
// carry a release interval reserve their directory ticket HERE, in
// arrival order (see noticeBoard). floor is an extra virtual-time floor:
// a replicated leader's mutation is applied only after the slowest
// follower acked it, so the shard clock (and the client's reply) carries
// the replication round's latency.
func (m *Manager) dispatchAt(idx int, req *scl.Request, msg proto.Msg, floor vtime.Time) {
	var tick uint64
	switch msg.(type) {
	case *proto.UnlockReq, *proto.BarrierReq, *proto.CondWaitReq:
		tick = m.board.reserve()
	}
	m.shards[idx].serve(req, msg, floor, tick)
}

// routeErr charges and answers a request that failed to decode. Shard
// zero handles these so the single-home clock accounting is unchanged.
func (m *Manager) routeErr(req *scl.Request, err error) {
	m.shards[0].refuse(req, err)
}

// post sends a one-way message (NextWaiter, LockGrant, WriterDead) to a
// node. Send failures mean the peer's port closed; the liveness layer,
// when enabled, is the mechanism that unblocks anyone waiting on it. A
// follower replica applying the log suppresses posts entirely — the
// leader already externalized them.
func (m *Manager) post(node uint32, msg proto.Msg, at vtime.Time) {
	if m.isFollower() {
		return
	}
	_, _ = m.ep.Post(scl.NodeID(node), msg, at)
}

// failParked completes every parked waiter at every home with a
// classified error (see shard.failParked).
func (m *Manager) failParked(code uint16, why string) {
	for _, sh := range m.shards {
		sh.failParked(code, why)
	}
}

// Run processes requests until Shutdown or endpoint closure, and closes
// the endpoint on the way out: a stopped manager must refuse calls, not
// leave an open port nobody reads, or a leader still pushing to a follower
// that consumed its Shutdown first would block for good.
func (m *Manager) Run() {
	defer m.ep.Close()
	m.p2p = m.nshards > 1 && m.sequenced
	if m.repl != nil && m.lease > 0 {
		// Wall-clock lease renewal, like heartbeats: clean sequenced
		// runs have no lease and start no ticker.
		stop := make(chan struct{})
		defer close(stop)
		go m.renewTicker(stop)
	}
	for {
		req, ok := m.ep.Recv()
		if !ok {
			// The endpoint died under us (e.g. a fault injector killed
			// the manager node): parked waiters learn the peer died,
			// not that it shut down in an orderly way.
			m.failParked(proto.CodePeerDied, "manager endpoint closed")
			return
		}
		if m.handleOne(req) {
			return
		}
	}
}

// handleOne processes one incoming request; stop reports an orderly
// shutdown.
func (m *Manager) handleOne(req *scl.Request) (stop bool) {
	// Heartbeats are wall-clock bookkeeping and carry zero virtual
	// cost: handled before any clock moves so liveness does not
	// perturb virtual-time determinism.
	switch req.Kind() {
	case proto.KHeartbeat:
		m.handleHeartbeat(req)
		return false
	// Replication control plane (leader appends, snapshots, the
	// failover controller's promotion).
	case proto.KReplAppend:
		m.handleReplAppend(req)
		return false
	case proto.KReplSnapshot:
		m.handleReplSnapshot(req)
		return false
	case proto.KPromoteMgr:
		m.handlePromote(req)
		return false
	}
	// Fence requests from members the lease table has declared
	// dead: their state was already reclaimed, so letting them back
	// in would corrupt lock/barrier bookkeeping.
	if m.live != nil && m.deadNodes[uint32(req.Src())] {
		if !req.OneWay() {
			req.ReplyErrorCode(proto.CodePeerDied,
				fmt.Errorf("manager: request from dead node %d", req.Src()), m.Clock())
		}
		return false
	}
	// Shutdown is handled ahead of the leader fence: it must keep its
	// terminal CodeShutdown/Ack meaning on every replica (the runtime
	// shuts all of them down), and a deposed leader must never convert
	// a client's orderly stop into a retryable NotLeader.
	if req.Kind() == proto.KShutdown {
		sh := m.shards[0]
		sh.clock.AdvanceTo(req.Arrive())
		sh.clock.Advance(req.Svc())
		sh.mirror.Store(sh.clock.Now())
		if !req.OneWay() {
			req.Reply(&proto.Ack{}, m.Clock())
		}
		m.failParked(proto.CodeShutdown, "manager shut down")
		return true
	}
	// Standby (or deposed) replicas refuse the client plane with the
	// retryable CodeNotLeader; the runtime's failover redirect is what
	// turns that refusal into a promotion.
	if r := m.repl; r != nil && !r.leader {
		if !req.OneWay() {
			req.ReplyErrorCode(proto.CodeNotLeader,
				fmt.Errorf("manager: replica %d is not the leader", r.self), m.Clock())
		}
		return false
	}
	msg, idx, err := m.decodeReq(req)
	if err != nil {
		m.routeErr(req, err)
		return false
	}
	var floor vtime.Time
	if m.repl != nil {
		var ok bool
		if floor, ok = m.replicate(req); !ok {
			// Deposed mid-round; demote already failed the parked
			// waiters with the same code.
			if !req.OneWay() {
				req.ReplyErrorCode(proto.CodeNotLeader,
					fmt.Errorf("manager: leader deposed"), m.Clock())
			}
			return false
		}
	}
	m.dispatchAt(idx, req, msg, floor)
	return false
}

// decodeReq decodes a client-plane request and resolves its home shard.
// It is shared by the dispatcher and by followers replaying the
// replicated log, so route decisions are identical on every replica.
func (m *Manager) decodeReq(req *scl.Request) (proto.Msg, int, error) {
	msg := proto.New(req.Kind())
	if msg == nil {
		return nil, 0, fmt.Errorf("manager: unexpected %v", req.Kind())
	}
	if err := req.Decode(msg); err != nil {
		if req.Kind() == proto.KUnlockReq && req.OneWay() {
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
		return nil, 0, fmt.Errorf("manager: unexpected %v", req.Kind())
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
func (m *Manager) handleHeartbeat(req *scl.Request) {
	if m.live == nil {
		return // liveness disabled: ignore
	}
	var hb proto.Heartbeat
	if err := req.Decode(&hb); err != nil {
		// A heartbeat that fails to decode means a version-skewed or
		// corrupted peer whose lease is silently starving; count it and
		// leave a trace event instead of dropping it invisibly.
		m.live.HeartbeatsMalformed.Add(1)
		if m.tr != nil {
			m.traceLive("heartbeat-malformed", map[string]any{
				"src": uint32(req.Src()), "err": err.Error(),
			})
		}
		return
	}
	m.live.Heartbeats.Add(1)
	now := time.Now()
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
				if !mem.dead {
					m.liveThreads--
				}
				m.reclaimThread(k.id(), false)
			}
		case ok:
			if !mem.dead {
				mem.lastBeat = now
			}
		default:
			m.members[k] = &member{node: hb.Node, lastBeat: now}
			if k.class() == proto.MemberThread {
				m.liveThreads++
			}
		}
	}
	if m.isFollower() {
		// Reaps are the leader's to make and reach a follower through
		// the log; one made here could not be replicated and would leave
		// the member wrongly dead at promotion.
		return
	}
	m.reap(now)
	m.renewLease(now)
}

// reap declares members whose lease expired dead and reclaims their
// synchronization state. A lease measures a member's silence, not the
// manager's: after a gap in which this goroutine did not look at the
// table (it was starved or blocked, or nobody prodded it), the beats
// live members sent meanwhile are still queued behind the one being
// handled. A gap therefore counts against a member for at most a
// quarter lease; every member is credited the rest.
func (m *Manager) reap(now time.Time) {
	if unseen := now.Sub(m.lastReap) - m.lease/4; unseen > 0 && !m.lastReap.IsZero() {
		for _, mem := range m.members {
			mem.lastBeat = mem.lastBeat.Add(unseen)
		}
	}
	m.lastReap = now
	for k, mem := range m.members {
		if mem.dead || now.Sub(mem.lastBeat) <= m.lease {
			continue
		}
		mem.dead = true
		m.deadNodes[mem.node] = true
		if m.tr != nil {
			m.traceLive("member-dead", map[string]any{
				"class": k.class(), "id": k.id(), "node": mem.node,
			})
		}
		switch k.class() {
		case proto.MemberThread:
			m.obitGen++
			mem.reapGen = m.obitGen
			// A replicated leader logs the reap BEFORE acting on it: a
			// follower promoted later finds the member already dead and
			// never re-reaps the same lease (no double barrier
			// recomputation, no duplicate obituary generation).
			if !m.replicateEvent(proto.KReclaimEvent,
				&proto.ReclaimEvent{Thread: k.id(), Node: mem.node, Gen: m.obitGen}) {
				continue // deposed mid-reap: the new leader owns this decision
			}
			m.live.ThreadsDead.Add(1)
			m.liveThreads--
			m.reclaimThread(k.id(), true)
			// Obituary to the data plane: the dead writer may have
			// announced a release whose DiffBatch it never shipped, and
			// the servers must not park fetches on that tag forever.
			// One-way at zero virtual cost, like the heartbeats that
			// drive this path. The generation lets servers deduplicate
			// when a promoted manager re-broadcasts.
			for _, node := range m.dataNodes {
				m.post(uint32(node), &proto.WriterDead{Writer: k.id(), Gen: mem.reapGen}, 0)
			}
		case proto.MemberServer:
			m.live.ServersDead.Add(1)
		}
	}
}

// reclaimThread fans a thread's reclamation out to every home and then
// removes it from the write-notice horizon. markDead additionally
// fences future grants at the homes.
func (m *Manager) reclaimThread(tid uint32, markDead bool) {
	for _, sh := range m.shards {
		sh.reclaim(tid, markDead)
	}
	// The thread no longer pins the write-notice horizon.
	m.board.dropThread(tid)
}

// traceLive emits one liveness event. Callers check m.tr first, so an
// untraced run never builds the args map.
func (m *Manager) traceLive(name string, args map[string]any) {
	now := m.Clock()
	m.tr.Span("manager", trace.CatLive, name, now, now, args)
}
