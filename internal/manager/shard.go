package manager

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/vtime"
)

type waitKind uint8

const (
	waitLock waitKind = iota // answer with LockResp
	waitCond                 // answer with CondWaitResp
)

// waiter is a thread parked on a lock (directly or resuming from a
// condition wait).
type waiter struct {
	// to and svc are all a waiter keeps of the call that parked it: whom
	// to answer and what picking the request up cost. A waiter with no
	// ticket and not detached stands in for a request somebody else holds:
	// it was applied from the log or restored from a snapshot, and the
	// thread re-issues the request to whichever replica leads.
	to       scl.Request
	svc      vtime.Time
	thread   uint32
	node     uint32
	lastSeen uint64
	kind     waitKind
	// detached marks a waiter whose LockReq was already answered with
	// Queued (peer-to-peer handoff mode): its grant — or its eviction —
	// travels as a one-way LockGrant, never as a reply. to is nobody.
	detached bool
}

// park makes the waiter a call leaves behind.
func park(c *scl.Request, thread uint32, lastSeen uint64, kind waitKind) waiter {
	return waiter{to: *c, svc: c.Svc(), thread: thread, node: uint32(c.Src()), lastSeen: lastSeen, kind: kind}
}

// standsIn reports whether w stands in for a request of thread's, which
// the thread has now re-issued (see waiter).
func (w *waiter) standsIn(thread uint32) bool {
	return w.thread == thread && w.to.OneWay() && !w.detached
}

// standIn finds thread's stand-in among ws.
func standIn(ws []waiter, thread uint32) *waiter {
	for i := range ws {
		if ws[i].standsIn(thread) {
			return &ws[i]
		}
	}
	return nil
}

// attach hands a re-issued request's ticket to the waiter that stood in
// for it, preserving its place.
func (w *waiter) attach(c *scl.Request, lastSeen uint64) {
	w.to, w.svc, w.lastSeen = *c, c.Svc(), lastSeen
}

type lockState struct {
	held   bool
	holder uint32
	queue  []waiter

	// Peer-to-peer handoff bookkeeping (active only when the manager
	// runs on a sequenced fabric).
	holderNode uint32 // node hosting the current holder
	gen        uint64 // tenure number, bumped once per grant
	grantSeq   uint64 // notice horizon the current tenure started with
	trainLeft  int    // pre-announced successors still outstanding
	trainSeq   uint64 // anchor horizon the outstanding train was composed at
}

type barrierState struct {
	count   uint32
	arrived []waiter
	dead    map[uint32]bool // threads declared dead (SPMD: all expected)

	// Replicated-manager failover bookkeeping. Clients stamp each
	// arrival with a 1-based round number (BarrierReq.Epoch); epoch
	// counts the rounds this instance has released and counted remembers
	// the highest round each thread's arrival was counted in, so a
	// re-issued arrival (its release reply was lost to a failover) is
	// answered or re-attached instead of double-counted.
	epoch   uint64
	counted map[uint32]uint64
}

// effective is the arrival count that completes a round: the declared
// count minus dead members, floored at one.
func (bs *barrierState) effective() int {
	eff := int(bs.count) - len(bs.dead)
	if eff < 1 {
		eff = 1
	}
	return eff
}

// condEntry is a parked condition waiter; it remembers which lock to
// re-acquire on wakeup.
type condEntry struct {
	w    waiter
	lock uint32
}

type condState struct {
	waiters []condEntry
}

// shard is one synchronization home: it owns a disjoint set of locks,
// barriers, conditions and allocation zones, with its own virtual
// clock, so independent sync traffic no longer serializes on a single
// manager clock. The homes are state machines called directly, by the
// dispatcher and, for cross-shard work (parking and waking a condition
// waiter, reclamation), by one another; every entry point publishes the
// clock it advanced in mirror.
type shard struct {
	m  *Manager
	id int

	clock  *vtime.Clock
	mirror atomicTime // clock published for cross-goroutine readers
	tick   uint64     // directory ticket of the request in flight
	// lockResp is the answer to an acquire, kept here because a message
	// handed to reply escapes; reply encodes it before it returns.
	lockResp proto.LockResp
	// rec is the reply record the allocation-plane request in flight
	// fills, under Seq recSeq; nil for any other request (see repeat).
	rec    *replyRecord
	recSeq uint64

	locks    map[uint32]*lockState
	barriers map[uint32]*barrierState
	conds    map[uint32]*condState
}

func newShard(m *Manager, id int) *shard {
	return &shard{
		m:        m,
		id:       id,
		clock:    vtime.NewClock(0),
		locks:    make(map[uint32]*lockState),
		barriers: make(map[uint32]*barrierState),
		conds:    make(map[uint32]*condState),
	}
}

// serve runs one decoded client request at its home. A request that
// carries a release interval reserves its notice-directory ticket here, in
// arrival order (see noticeBoard): the handler fills it, and one that
// returns without filling (a fenced, malformed or duplicate release)
// leaves that seq a permanent gap. A replicated mutation is applied only
// after the slowest follower acked it; floor, the round's completion time,
// is folded into the clock so replication latency is visible in the reply.
func (sh *shard) serve(c *scl.Request, msg proto.Msg, floor vtime.Time) {
	sh.charge(c, floor)
	if sh.repeat(c, msg) {
		return
	}
	switch mm := msg.(type) {
	case *proto.AllocReq:
		sh.handleAlloc(c, mm)
	case *proto.FreeReq:
		sh.handleFree(c, mm)
	case *proto.RegisterReq:
		sh.m.board.ensure(mm.Thread, 0)
		sh.answer(c, &proto.Ack{})
	case *proto.LockReq:
		sh.handleLock(c, mm)
	case *proto.UnlockReq:
		sh.tick = sh.m.board.reserve()
		sh.handleUnlock(c, mm)
	case *proto.BarrierReq:
		sh.tick = sh.m.board.reserve()
		sh.handleBarrier(c, mm)
	case *proto.CondWaitReq:
		sh.tick = sh.m.board.reserve()
		sh.handleCondWait(c, mm)
	case *proto.CondSignalReq:
		sh.handleCondSignal(c, mm)
	case *proto.SnapshotASReq:
		sh.handleSnapshotAS(c, mm)
	case *proto.ForkASReq:
		sh.handleForkAS(c, mm)
	}
	sh.rec = nil
	sh.mirror.Store(sh.clock.Now())
}

// charge moves the clock past a request's arrival (and floor) and its
// pickup, and publishes it.
func (sh *shard) charge(c *scl.Request, floor vtime.Time) {
	sh.clock.AdvanceTo(c.Arrive())
	sh.clock.AdvanceTo(floor)
	sh.clock.Advance(c.Svc())
	sh.mirror.Store(sh.clock.Now())
}

// answer queues the reply to the call in flight at this home's clock, and
// keeps it as the reply record repeat armed, if any; fail queues its
// refusal.
func (sh *shard) answer(c *scl.Request, msg proto.Msg) {
	if rec := sh.rec; rec != nil {
		sh.rec = nil
		rec.seq, rec.kind, rec.body = sh.recSeq, msg.Kind(), proto.AppendEncode(rec.body[:0], msg)
		sh.answerRecord(c, rec)
		return
	}
	sh.m.out.Answer(*c, msg, sh.clock.Now())
}

func (sh *shard) fail(c *scl.Request, err error) {
	sh.answer(c, scl.Refusal(proto.CodeGeneric, err))
}

// reaches reports whether the answer to a parked waiter gets to its
// thread: through the ticket it holds, or as the post a detached waiter is
// granted by, which only a log replay withholds. Only then may the
// answer's notices advance the thread's horizon (see noticeBoard.acquire);
// for the call in flight the same test is !c.OneWay().
func (sh *shard) reaches(w *waiter) bool {
	return !w.to.OneWay() || (w.detached && !sh.m.replaying)
}

// ---------------------------------------------------------------------
// Allocation.

func (sh *shard) handleAlloc(c *scl.Request, ar *proto.AllocReq) {
	m := sh.m
	align := int(ar.Align)
	if align < 16 {
		align = 16
	}
	var zone *Zone
	switch ar.Strategy {
	case proto.AllocArenaChunk:
		// Arena chunks are line-aligned so no two threads' arenas ever
		// share a cache line — the paper's no-false-sharing guarantee
		// for locally allocated data.
		zone, align = m.arenaZone, m.geo.LineSize()
	case proto.AllocShared:
		zone = m.sharedZone
	case proto.AllocStriped:
		zone, align = m.stripedZone, m.geo.LineSize()*m.geo.NumServers
	default:
		sh.fail(c, fmt.Errorf("manager: unknown allocation strategy %d", ar.Strategy))
		return
	}
	addr, err := zone.Alloc(ar.Size, align)
	if err != nil {
		sh.fail(c, err)
		return
	}
	m.stats.Allocs.Add(1)
	sh.answer(c, &proto.AllocResp{Addr: uint64(addr)})
}

func (sh *shard) handleFree(c *scl.Request, fr *proto.FreeReq) {
	m := sh.m
	addr := layout.Addr(fr.Addr)
	var zone *Zone
	switch {
	case m.arenaZone.Contains(addr):
		zone = m.arenaZone
	case m.sharedZone.Contains(addr):
		zone = m.sharedZone
	case m.stripedZone.Contains(addr):
		zone = m.stripedZone
	default:
		sh.fail(c, fmt.Errorf("manager: free of address %#x outside all zones", fr.Addr))
		return
	}
	ss := m.snaps
	if zone == m.stripedZone && !fr.Unmapped {
		if snap, ok := ss.forks[fr.Addr]; ok {
			// Phase one of freeing a forked range: drop the manager's fork
			// bookkeeping and tell the caller the geometry to unmap at the
			// homes, but withhold the zone space — first-fit would reissue
			// it while the homes still resolve reads through the stale
			// fork mapping. The caller commits with a second, Unmapped
			// FreeReq once every home acked its ForkUnmap.
			resp := ss.forkFree(fr.Addr, snap)
			sh.answer(c, &resp)
			return
		}
	}
	if err := zone.Free(addr); err != nil {
		sh.fail(c, err)
		return
	}
	resp := &proto.FreeResp{}
	if zone == m.stripedZone {
		// Freeing a striped range (a snapshotted image, or the Unmapped
		// commit of a dead fork that was itself re-snapshotted) drops the
		// handle reference of every snapshot sealed from it; snapshots
		// with no remaining forks are released, and the caller relays the
		// release to the homes holding the sealed frames.
		resp.Release, resp.NPages = ss.originFreed(fr.Addr)
	}
	m.stats.Frees.Add(1)
	sh.answer(c, resp)
}

// ---------------------------------------------------------------------
// Locks.

func (sh *shard) lock(id uint32) *lockState {
	ls, ok := sh.locks[id]
	if !ok {
		ls = &lockState{}
		sh.locks[id] = ls
	}
	return ls
}

func (sh *shard) handleLock(c *scl.Request, lr *proto.LockReq) {
	m := sh.m
	m.board.ensure(lr.Thread, lr.LastSeen)
	ls := sh.lock(lr.Lock)
	if m.hasPeers() && ls.held && ls.holder == lr.Thread {
		// Duplicate of an acquire already granted — the grant reply was
		// lost to a leader failover and the client re-issued. Re-answer
		// from the recorded tenure without granting again, so grant
		// conservation holds across the failover.
		ns := m.board.after(lr.LastSeen, ls.grantSeq)
		sh.answer(c, &proto.LockResp{Seq: ls.grantSeq, Notices: ns})
		if !c.OneWay() {
			m.board.saw(lr.Thread, ls.grantSeq)
		}
		return
	}
	w := park(c, lr.Thread, lr.LastSeen, waitLock)
	if ls.held {
		// A re-issued acquire whose first copy is still queued (as a
		// waiter applied from the log): attach the live
		// request to it, preserving its FIFO position.
		if qw := standIn(ls.queue, lr.Thread); qw != nil {
			qw.attach(c, lr.LastSeen)
			return
		}
		m.stats.LockWaits.Add(1)
		if m.p2p() {
			// Detach the waiter: answer its RPC now with Queued so the
			// grant — composed by the current holder at its release, or
			// by this home as a fallback — can arrive as a one-way
			// LockGrant instead of a manager round trip.
			w.detached = true
			w.to = scl.Request{}
			sh.lockResp = proto.LockResp{Queued: true}
			sh.answer(c, &sh.lockResp)
			ls.queue = append(ls.queue, w)
			sh.maybeSendTrain(lr.Lock, ls)
			return
		}
		ls.queue = append(ls.queue, w)
		return
	}
	sh.grant(lr.Lock, ls, w)
}

// grant hands the lock to w and answers its acquire with fresh notices.
func (sh *shard) grant(id uint32, ls *lockState, w waiter) {
	m := sh.m
	ls.held = true
	ls.holder = w.thread
	ls.holderNode = w.node
	ls.gen++
	ls.trainLeft = 0
	m.stats.LockGrants.Add(1)
	now := sh.clock.Now()
	if w.detached {
		// Central dispatch of an already-answered waiter: the grant is a
		// one-way post whose train starts with the waiter itself, so its
		// full notice backlog is the train's head entry — and the rest of
		// the train is a snapshot of the remaining queue, so the convoy
		// behind this waiter is passed peer-to-peer from here. Attaching
		// the train to the grant itself (rather than chasing the new
		// holder with a separate announcement) is what lets short
		// critical sections hand off: a chase can only be delivered while
		// the holder is parked, and a holder whose working set is warm
		// never parks between acquire and release.
		ls.grantSeq = m.board.issued
		train := sh.composeTrain(ls, &w)
		m.board.settle(w.thread, w.lastSeen, sh.reaches(&w))
		m.post(w.node, &proto.LockGrant{Lock: id, Gen: ls.gen, Seq: ls.grantSeq, Train: train}, now)
		if n := train.Len() - 1; n > 0 {
			ls.trainLeft = n
			ls.trainSeq = ls.grantSeq
			m.stats.NextWaiters.Add(int64(n))
		}
	} else {
		ns, seq := m.board.acquire(w.thread, w.lastSeen, sh.reaches(&w))
		ls.grantSeq = seq
		if w.kind == waitLock {
			var gen uint64
			if m.p2p() {
				gen = ls.gen
			}
			sh.lockResp = proto.LockResp{Seq: seq, Notices: ns, Gen: gen}
			m.out.Answer(w.to, &sh.lockResp, now)
		} else {
			m.out.Answer(w.to, &proto.CondWaitResp{Seq: seq, Notices: ns}, now)
		}
	}
	if m.p2p() {
		sh.maybeSendTrain(id, ls)
	}
}

// maxTrain caps how many successors one announcement snapshots. The
// train carries its shared backlog once, but the grant at every hop
// carries Inline, which grows by one closing interval per hop, so an
// unbounded train would still square a convoy's bytes against its
// length.
const maxTrain = 32

// maybeSendTrain snapshots the waiter queue and announces it to the
// current holder so the lock can be passed waiter-to-waiter for the
// whole convoy without a manager round trip per hop. At most one train
// is outstanding per lock (trainLeft counts the hops still to come);
// only a prefix of plain detached lock waiters qualifies — cond
// re-acquirers and dead threads end the snapshot and keep the central
// path. Each entry's notice batch covers (that waiter's horizon,
// grantSeq]; everything filled above the anchor by the train itself
// rides the grants as Inline intervals, appended hop by hop.
func (sh *shard) maybeSendTrain(id uint32, ls *lockState) {
	m := sh.m
	if !ls.held || ls.trainLeft > 0 || len(ls.queue) == 0 {
		return
	}
	train := sh.composeTrain(ls, nil)
	n := train.Len()
	if n == 0 {
		return
	}
	m.post(ls.holderNode, &proto.NextWaiter{
		Lock:  id,
		Gen:   ls.gen,
		Seq:   ls.grantSeq,
		Train: train,
	}, sh.clock.Now())
	ls.trainLeft = n
	ls.trainSeq = ls.grantSeq
	m.stats.NextWaiters.Add(int64(n))
}

// composeTrain snapshots the qualifying prefix of the waiter queue as
// announcement-train entries, each with the notice batch covering (that
// waiter's horizon, the current grantSeq], behind head when there is one
// (a waiter the manager grants centrally, whose grant the train rides).
// Only plain detached live lock waiters qualify; the first cond
// re-acquirer or dead thread ends the snapshot and keeps the central path
// for the rest. Every batch ends at grantSeq, so each is a suffix of the
// one from the lowest horizon: that span is encoded once, straight from
// the directory, and an entry names how many of its last notices are its
// waiter's. The train leaves in wire form and no holder along it decodes
// more than its own backlog and its successor's ids. maxTrain counts the
// queued entries, not head.
func (sh *shard) composeTrain(ls *lockState, head *waiter) proto.Train {
	n, since := 0, ls.grantSeq
	if head != nil {
		since = min(since, head.lastSeen)
	}
	for _, w := range ls.queue {
		if n == maxTrain || w.kind != waitLock || !w.detached || sh.m.deadThreads[w.thread] {
			break
		}
		since = min(since, w.lastSeen)
		n++
	}
	switch {
	case n == 0 && head == nil:
		return proto.Train{}
	case n == maxTrain:
		sh.m.stats.FullTrains.Add(1)
	}
	shared := sh.m.board.span(since, ls.grantSeq)
	var train proto.TrainWriter
	add := func(w *waiter) {
		above := sort.Search(len(shared), func(i int) bool { return shared[i].Seq > w.lastSeen })
		train.Add(w.thread, w.node, len(shared)-above)
	}
	if head != nil {
		add(head)
	}
	for i := range ls.queue[:n] {
		add(&ls.queue[i])
	}
	t, dead := train.Train(shared)
	sh.m.stats.DeadRecords.Add(int64(dead))
	return t
}

// handleUnlock accepts both forms of unlock: the classic acknowledged
// round trip, and the pipelined one-way post (the releaser overlaps its
// diff shipping with this notice; interval tags at the homes restore
// the ordering the missing ack used to provide).
func (sh *shard) handleUnlock(c *scl.Request, ur *proto.UnlockReq) {
	m := sh.m
	ls := sh.lock(ur.Lock)
	if m.hasPeers() && m.board.filled(ur.Thread, ur.Interval) {
		// Duplicate of a release already applied — the ack was lost to
		// a leader failover and the client re-issued. The interval is
		// in the directory and the lock has moved on; ack without
		// re-filling or re-releasing. Checked before the holder test:
		// the lock is usually held by someone else by now.
		sh.answer(c, &proto.Ack{})
		return
	}
	if !ls.held || ls.holder != ur.Thread {
		// One-way: the lock was force-released after the sender was
		// declared dead (or the sender is confused); dropping the
		// request is the only fence available. Its reserved directory
		// ticket stays unfilled — the corpse's interval must not become
		// visible to acquirers that already moved past the reclamation.
		sh.fail(c, fmt.Errorf("manager: unlock of lock %d by non-holder thread %d", ur.Lock, ur.Thread))
		return
	}
	m.stats.Unlocks.Add(1)
	if m.p2p() && ur.HandedOff != 0 {
		sh.completeHandoff(c, ur.Lock, ls, ur)
		return
	}
	m.board.fill(sh.tick, proto.IntervalTag{Writer: ur.Thread, Interval: ur.Interval}, ur.Pages, ur.Records)
	sh.answer(c, &proto.Ack{})
	sh.release(ur.Lock, ls)
}

// completeHandoff finishes a peer-to-peer grant: the holder already
// forwarded the lock (with notices) to the successor named by the last
// NextWaiter; the manager re-points its bookkeeping without composing a
// grant of its own.
func (sh *shard) completeHandoff(c *scl.Request, id uint32, ls *lockState, ur *proto.UnlockReq) {
	m := sh.m
	prevSeq := ls.grantSeq
	seq := sh.tick
	m.board.fill(seq, proto.IntervalTag{Writer: ur.Thread, Interval: ur.Interval}, ur.Pages, ur.Records)
	idx := -1
	for i, w := range ls.queue {
		if w.thread == ur.HandedOff {
			idx = i
			break
		}
	}
	if idx < 0 {
		// The named successor is no longer queued; fall back to a
		// central release. The rest of the train (if any) is moot — the
		// old holder already dropped its copy at this unlock.
		sh.answer(c, &proto.Ack{})
		sh.release(id, ls)
		return
	}
	w := ls.queue[idx]
	ls.queue = append(ls.queue[:idx], ls.queue[idx+1:]...)
	ls.held = true
	ls.holder = w.thread
	ls.holderNode = w.node
	ls.gen++
	if ls.trainLeft > 0 {
		ls.trainLeft--
	}
	// The successor's direct grant covered the contiguous backlog up to
	// the train's anchor, plus the closing intervals of every train
	// holder since riding Inline. Its contiguous horizon is therefore
	// the anchor — the inline intervals above it are redelivered by the
	// directory at a later acquire and deduplicated client-side.
	// Recording the new tenure's horizon as seq keeps the NEXT train's
	// batches complete.
	ls.grantSeq = seq
	anchor := ls.trainSeq
	if anchor == 0 {
		anchor = prevSeq
	}
	m.board.saw(w.thread, anchor)
	m.stats.LockGrants.Add(1)
	m.stats.Handoffs.Add(1)
	sh.answer(c, &proto.Ack{})
	sh.maybeSendTrain(id, ls)
}

// release passes a held lock to the next queued live waiter, if any.
// Waiters whose thread has since been declared dead are skipped, so a
// reclaimed lock never lands on a corpse.
func (sh *shard) release(id uint32, ls *lockState) {
	m := sh.m
	ls.held = false
	// A central release voids any outstanding announcement train: the
	// departing holder dropped its copy without forwarding, so the
	// queued waiters it named must be granted from here.
	ls.trainLeft = 0
	for len(ls.queue) > 0 {
		next := ls.queue[0]
		ls.queue = ls.queue[1:]
		if m.deadThreads[next.thread] {
			m.tally().WaitersEvicted.Add(1)
			continue
		}
		sh.grant(id, ls, next)
		return
	}
}

// ---------------------------------------------------------------------
// Barriers.

func (sh *shard) handleBarrier(c *scl.Request, br *proto.BarrierReq) {
	m := sh.m
	if br.Count == 0 {
		sh.fail(c, fmt.Errorf("manager: barrier %d arrival with zero count", br.Barrier))
		return
	}
	m.board.ensure(br.Thread, br.LastSeen)
	bs, ok := sh.barriers[br.Barrier]
	if !ok {
		bs = &barrierState{
			count:   br.Count,
			dead:    make(map[uint32]bool),
			counted: make(map[uint32]uint64),
		}
		// A barrier instance created after a death starts with the
		// reduced membership: the dead can never arrive.
		for tid := range m.deadThreads {
			bs.dead[tid] = true
		}
		sh.barriers[br.Barrier] = bs
	}
	if bs.count != br.Count {
		sh.fail(c, fmt.Errorf("manager: barrier %d count mismatch: %d vs %d", br.Barrier, br.Count, bs.count))
		return
	}
	if br.Epoch != 0 {
		if br.Epoch <= bs.epoch {
			// This round already released — the release reply was lost
			// to a leader failover and the client re-issued. Its
			// interval was filled by the original arrival; answer with
			// the directory frontier without re-counting.
			ns, seq := m.board.acquire(br.Thread, br.LastSeen, !c.OneWay())
			sh.answer(c, &proto.BarrierResp{Seq: seq, Notices: ns})
			return
		}
		if bs.counted[br.Thread] >= br.Epoch {
			// Counted (as an arrival applied from the log) but
			// the round is still pending: attach the live request so
			// the eventual release answers it.
			for i := range bs.arrived {
				if bs.arrived[i].thread == br.Thread {
					bs.arrived[i].attach(c, br.LastSeen)
				}
			}
			return
		}
		bs.counted[br.Thread] = br.Epoch
	}
	// Arrival is a release: fill this interval's reserved ticket
	// immediately so every later acquire (including the other
	// arrivals) sees it.
	m.board.fill(sh.tick, proto.IntervalTag{Writer: br.Thread, Interval: br.Interval}, br.Pages, br.Records)
	bs.arrived = append(bs.arrived, park(c, br.Thread, br.LastSeen, waitLock))
	if len(bs.arrived) < bs.effective() {
		m.stats.BarrierWaits.Add(1)
		return
	}
	sh.releaseBarrier(bs, c.Svc())
}

// releaseBarrier completes a barrier round, answering every parked
// arrival. With a single home the replies post serially, advancing the
// clock by svc per reply — the centralized-barrier fan-out cost. With
// multiple homes each home releases its barriers through a combining
// tree: reply j departs at depth ceil(log2(j+2)) of a binary fan-out,
// so the release cost of a P-wide barrier grows with log P, not P.
func (sh *shard) releaseBarrier(bs *barrierState, svc vtime.Time) {
	m := sh.m
	m.stats.BarrierRounds.Add(1)
	if len(bs.dead) > 0 {
		m.tally().BarriersRecomputed.Add(1)
	}
	bs.epoch++
	if len(m.shards) == 1 {
		for _, w := range bs.arrived {
			sh.clock.Advance(svc)
			ns, seq := m.board.acquire(w.thread, w.lastSeen, sh.reaches(&w))
			m.out.Answer(w.to, &proto.BarrierResp{Seq: seq, Notices: ns}, sh.clock.Now())
		}
		bs.arrived = bs.arrived[:0]
		return
	}
	start := sh.clock.Now()
	maxAt := start
	for j, w := range bs.arrived {
		depth := vtime.Time(bits.Len(uint(j + 1)))
		at := start + svc*depth
		ns, seq := m.board.acquire(w.thread, w.lastSeen, sh.reaches(&w))
		m.out.Answer(w.to, &proto.BarrierResp{Seq: seq, Notices: ns}, at)
		if at > maxAt {
			maxAt = at
		}
	}
	sh.clock.AdvanceTo(maxAt)
	bs.arrived = bs.arrived[:0]
}

// recheckBarrier re-evaluates a barrier after a member death: parked
// arrivals either complete at the recomputed count, or — when the
// barrier can never gather enough live arrivals — fail with
// proto.ErrPeerDied rather than hang.
func (sh *shard) recheckBarrier(id uint32, bs *barrierState) {
	m := sh.m
	if len(bs.arrived) == 0 {
		return
	}
	if len(bs.arrived) >= bs.effective() {
		if m.tr != nil {
			m.traceLive("barrier-recomputed", map[string]any{
				"barrier": id, "count": bs.count, "effective": bs.effective(),
			})
		}
		sh.releaseBarrier(bs, bs.arrived[len(bs.arrived)-1].svc)
		return
	}
	if m.unsatisfiable(bs.effective()) {
		err := fmt.Errorf("manager: barrier %d unsatisfiable: needs %d live arrivals, %d live threads",
			id, bs.effective(), m.liveThreads())
		for i := range bs.arrived {
			m.tally().WaitersFailed.Add(1)
			sh.failWaiter(0, &bs.arrived[i], proto.CodePeerDied, err)
		}
		bs.arrived = bs.arrived[:0]
	}
}

// ---------------------------------------------------------------------
// Condition variables.

func (sh *shard) cond(id uint32) *condState {
	cs, ok := sh.conds[id]
	if !ok {
		cs = &condState{}
		sh.conds[id] = cs
	}
	return cs
}

func (sh *shard) handleCondWait(c *scl.Request, cw *proto.CondWaitReq) {
	m := sh.m
	ls := sh.lock(cw.Lock)
	if m.hasPeers() && m.board.filled(cw.Thread, cw.Interval) {
		// Duplicate of a wait already applied (reply lost to a leader
		// failover): the thread is parked on the condition, queued at
		// the lock after a signal, or already re-granted. Re-attach the
		// live request wherever its stand-in sits — the condition's
		// home may be another shard.
		parked := m.shards[m.shardOf(cw.Cond)].cond(cw.Cond).waiters
		for i := range parked {
			if w := &parked[i].w; w.standsIn(cw.Thread) {
				w.attach(c, w.lastSeen)
				return
			}
		}
		if ls.held && ls.holder == cw.Thread {
			ns := m.board.after(cw.LastSeen, ls.grantSeq)
			sh.answer(c, &proto.CondWaitResp{Seq: ls.grantSeq, Notices: ns})
			if !c.OneWay() {
				m.board.saw(cw.Thread, ls.grantSeq)
			}
			return
		}
		if qw := standIn(ls.queue, cw.Thread); qw != nil {
			qw.attach(c, qw.lastSeen)
			return
		}
		sh.fail(c, fmt.Errorf("manager: duplicate cond wait by thread %d has no parked original", cw.Thread))
		return
	}
	if !ls.held || ls.holder != cw.Thread {
		sh.fail(c, fmt.Errorf("manager: cond wait on lock %d by non-holder thread %d", cw.Lock, cw.Thread))
		return
	}
	m.board.ensure(cw.Thread, cw.LastSeen)
	m.stats.CondWaits.Add(1)
	// Atomically: release the interval, park on the condition (at the
	// condition's home, which may be another shard), drop the lock
	// (possibly granting it onward).
	m.board.fill(sh.tick, proto.IntervalTag{Writer: cw.Thread, Interval: cw.Interval}, cw.Pages, cw.Records)
	cs := m.shards[m.shardOf(cw.Cond)].cond(cw.Cond)
	cs.waiters = append(cs.waiters, condEntry{w: park(c, cw.Thread, cw.LastSeen, waitCond), lock: cw.Lock})
	sh.release(cw.Lock, ls)
}

func (sh *shard) handleCondSignal(c *scl.Request, sr *proto.CondSignalReq) {
	m := sh.m
	m.stats.CondSignals.Add(1)
	cs := sh.cond(sr.Cond)
	n := min(1, len(cs.waiters))
	if sr.Broadcast {
		n = len(cs.waiters)
	}
	woken := append([]condEntry(nil), cs.waiters[:n]...)
	cs.waiters = append(cs.waiters[:0:0], cs.waiters[n:]...)
	sh.answer(c, &proto.Ack{})
	// Each woken thread must re-acquire its mutex before its wait
	// returns; it competes with ordinary lock requests in FIFO order at
	// the lock's own home.
	for _, cw := range woken {
		m.shards[m.shardOf(cw.lock)].wakeFromCond(cw.lock, cw.w, sh.clock.Now())
	}
}

// wakeFromCond runs at the lock's home when a signaled waiter tries to
// re-acquire its mutex; at, the clock of the condition's home, is its
// causal floor.
func (sh *shard) wakeFromCond(lockID uint32, w waiter, at vtime.Time) {
	m := sh.m
	sh.clock.AdvanceTo(at)
	sh.mirror.Store(sh.clock.Now())
	// The same deadThreads fence release() applies: a waiter whose
	// thread was declared dead between park and wake must not be handed
	// the lock. It was already popped from the cond queue, so
	// reclaimThread can never evict it later — answer its parked call
	// with the eviction error instead of leaving it to hang.
	if m.deadThreads[w.thread] {
		m.tally().WaitersEvicted.Add(1)
		sh.failWaiter(lockID, &w, proto.CodePeerDied, fmt.Errorf("manager: thread %d declared dead", w.thread))
		return
	}
	ls := sh.lock(lockID)
	if ls.held {
		m.stats.LockWaits.Add(1)
		ls.queue = append(ls.queue, w)
		return
	}
	sh.grant(lockID, ls, w)
}

// ---------------------------------------------------------------------
// Liveness reclamation (shard-local part).

// reclaim releases everything a dead or departed thread held or was
// parked on at this home: queued lock/cond waits are evicted, held
// locks force-released to the next live waiter, and barriers it
// participated in recomputed so survivors are never left waiting for an
// arrival that cannot come. A thread declared dead is fenced from
// future grants before its homes reclaim (Manager.reclaimThread).
func (sh *shard) reclaim(tid uint32) {
	m := sh.m
	// Evicted requests still get a typed reply: if the "dead" member is
	// in fact wedged rather than gone, its parked call unblocks with
	// ErrPeerDied instead of hanging forever.
	evictErr := fmt.Errorf("manager: thread %d declared dead", tid)
	evict := func(id uint32, w waiter) {
		m.tally().WaitersEvicted.Add(1)
		sh.failWaiter(id, &w, proto.CodePeerDied, evictErr)
	}
	for id, ls := range sh.locks {
		kept := ls.queue[:0]
		for _, w := range ls.queue {
			if w.thread == tid {
				evict(id, w)
				continue
			}
			kept = append(kept, w)
		}
		ls.queue = kept
		if ls.held && ls.holder == tid {
			m.tally().LocksReclaimed.Add(1)
			if m.tr != nil {
				m.traceLive("lock-reclaimed", map[string]any{"lock": id, "holder": tid})
			}
			sh.release(id, ls)
		}
	}
	for _, cs := range sh.conds {
		kept := cs.waiters[:0]
		for _, cw := range cs.waiters {
			if cw.w.thread == tid {
				evict(0, cw.w)
				continue
			}
			kept = append(kept, cw)
		}
		cs.waiters = kept
	}
	// Barriers assume SPMD participation: every live thread is expected
	// at every barrier, so a death reduces the effective count even for
	// barriers the thread never reached (it can never arrive now).
	for id, bs := range sh.barriers {
		if bs.dead[tid] {
			continue
		}
		bs.dead[tid] = true
		kept := bs.arrived[:0]
		for _, w := range bs.arrived {
			if w.thread == tid {
				evict(0, w)
				continue
			}
			kept = append(kept, w)
		}
		bs.arrived = kept
		sh.recheckBarrier(id, bs)
	}
	sh.mirror.Store(sh.clock.Now())
}

// failParked completes every parked waiter at this home with a
// classified error so no thread ever hangs on a manager that stopped:
// code is proto.CodeShutdown for an orderly stop, proto.CodePeerDied
// when the manager itself went away.
func (sh *shard) failParked(code uint16, why string) {
	err := fmt.Errorf("manager: %s", why)
	for id, ls := range sh.locks {
		for i := range ls.queue {
			sh.failWaiter(id, &ls.queue[i], code, err)
		}
		ls.queue = nil
	}
	for _, bs := range sh.barriers {
		for i := range bs.arrived {
			sh.failWaiter(0, &bs.arrived[i], code, err)
		}
		bs.arrived = nil
	}
	for _, cs := range sh.conds {
		for i := range cs.waiters {
			sh.failWaiter(0, &cs.waiters[i].w, code, err)
		}
		cs.waiters = nil
	}
}

// failWaiter completes one parked waiter with a classified error. A
// detached waiter already received its Queued reply, so its failure
// travels as a LockGrant carrying the code.
func (sh *shard) failWaiter(lock uint32, w *waiter, code uint16, err error) {
	if w.detached {
		sh.m.post(w.node, &proto.LockGrant{Lock: lock, Code: code}, sh.clock.Now())
		return
	}
	sh.m.out.AnswerError(w.to, code, err, sh.clock.Now())
}
