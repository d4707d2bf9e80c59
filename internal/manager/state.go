package manager

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/proto"
)

// Replication snapshot: the full semantic state of a manager, used to
// catch a follower up when the entries it still needs have been
// truncated out of the leader's log. Everything a log replay would have
// built is here — zones, notice directory, lock/barrier/cond tables,
// membership — EXCEPT whom to answer: a snapshot-restored replica's
// parked waiters hold no ticket, exactly as if it had applied the log,
// and the live clients re-issue after a failover.
//
// Each table is written down once, as a walk against the bidirectional
// proto.Codec that wire messages use: the same walk encodes a table or
// fills it, and proto.Map keeps the bytes a function of the state alone
// by visiting keys in ascending order. The encoding is internal to the
// manager (leader and follower run the same binary in a replica group);
// it is versioned with a leading magic byte so a mismatch fails loudly
// instead of misdecoding, and testdata/state.golden pins its bytes.

// Version 2 added the zones' per-writer allocation-plane idempotency
// records (AllocReq/FreeReq dedup across failover). Version 3 added the
// address-space snapshot/fork table, so forks survive leader kills.
// Version 4 replaced the five per-writer tables with one reply record per
// writer, kept the dead-thread fence once instead of once per home, and
// dropped the live-thread count, which the members give.
const stateVersion = 4

// tables is the manager's replicated state: what a log replay builds and
// a snapshot carries. restoreState replaces it whole.
type tables struct {
	arenaZone   *Zone
	sharedZone  *Zone
	stripedZone *Zone
	// snaps is the snapshot/fork table; owned by the striped zone's home
	// shard.
	snaps *snapState

	board  *noticeBoard
	shards []*shard

	members     map[memberKey]*member
	deadNodes   map[uint32]bool // fence requests from declared-dead nodes
	deadThreads map[uint32]bool // fence grants to declared-dead threads
	obitGen     uint64          // monotonic generation stamped on WriterDead obituaries

	// replies answers a re-issued allocation-plane request (record.go).
	replies map[uint32]*replyRecord
}

func newTables(m *Manager, nshards int) tables {
	t := tables{
		arenaZone:   NewZone("arena", ArenaZoneBase, arenaZoneEnd),
		sharedZone:  NewZone("shared", SharedZoneBase, sharedZoneEnd),
		stripedZone: NewZone("striped", StripedZoneBase, stripedZoneEnd),
		snaps:       newSnapState(),
		board:       newBoard(&m.stats),
		shards:      make([]*shard, nshards),
		members:     make(map[memberKey]*member),
		deadNodes:   make(map[uint32]bool),
		deadThreads: make(map[uint32]bool),
		replies:     make(map[uint32]*replyRecord),
	}
	for i := range t.shards {
		t.shards[i] = newShard(m, i)
	}
	return t
}

// encodeState serializes the manager's semantic state.
func (m *Manager) encodeState() []byte {
	return proto.Marshal(func(c *proto.Codec) { _ = walkState(c, &m.tables) })
}

// restoreState replaces the manager's semantic state with a snapshot. It
// decodes into fresh tables and swaps them in only when the whole
// snapshot decoded, so a bad one changes nothing.
func (m *Manager) restoreState(data []byte) error {
	fresh := newTables(m, len(m.shards))
	var mismatch error
	err := proto.Unmarshal(data, func(c *proto.Codec) { mismatch = walkState(c, &fresh) })
	switch {
	case mismatch != nil:
		return mismatch
	case err != nil:
		return fmt.Errorf("manager: snapshot decode: %w", err)
	}
	m.tables = fresh
	return nil
}

// walkState is the snapshot's layout. It stops at a version or shard
// count that is not this replica's, which only a decoder can meet.
func walkState(c *proto.Codec, t *tables) error {
	v := uint8(stateVersion)
	if c.U8(&v); v != stateVersion {
		return fmt.Errorf("manager: snapshot version %d (want %d)", v, stateVersion)
	}
	walkZone(c, t.arenaZone)
	walkZone(c, t.sharedZone)
	walkZone(c, t.stripedZone)
	walkBoard(c, t.board)
	proto.Map(c, &t.members, walkMemberKey, at(walkMember))
	walkSet(c, &t.deadNodes)
	walkSet(c, &t.deadThreads)
	c.U64(&t.obitGen)
	n := uint64(len(t.shards))
	if c.U64(&n); n != uint64(len(t.shards)) {
		return fmt.Errorf("manager: snapshot has %d shards, replica has %d", n, len(t.shards))
	}
	for _, sh := range t.shards {
		walkShard(c, sh)
	}
	walkSnapState(c, t.snaps)
	proto.Map(c, &t.replies, (*proto.Codec).U32, at(walkReplyRecord))
	return nil
}

// at adapts a row's walk to a table that holds its rows by pointer:
// decoding allocates the row it fills.
func at[T any](walk func(*proto.Codec, *T)) func(*proto.Codec, **T) {
	return func(c *proto.Codec, p **T) {
		if c.Decoding() {
			*p = new(T)
		}
		walk(c, *p)
	}
}

// walkSet walks a set of 32-bit ids: a map whose values take no bytes.
func walkSet(c *proto.Codec, set *map[uint32]bool) {
	proto.Map(c, set, (*proto.Codec).U32, func(_ *proto.Codec, in *bool) { *in = true })
}

func walkAddr(c *proto.Codec, a *layout.Addr) { c.U64((*uint64)(a)) }

func walkZone(c *proto.Codec, z *Zone) {
	walkAddr(c, &z.next)
	proto.List(c, &z.free, func(c *proto.Codec, s *span) {
		walkAddr(c, &s.base)
		c.U64(&s.size)
	})
	proto.Map(c, &z.allocs, walkAddr, (*proto.Codec).U64)
}

// walkBoard walks the directory. The second word is the delivery
// frontier, which equals issued whenever a snapshot can be taken
// (between requests); the format keeps it.
func walkBoard(c *proto.Codec, b *noticeBoard) {
	c.U64(&b.issued)
	frontier := b.issued
	c.U64(&frontier)
	proto.List(c, &b.notices, proto.WalkNotice)
	proto.Map(c, &b.lastSeen, (*proto.Codec).U32, (*proto.Codec).U64)
	proto.Map(c, &b.lastInterval, (*proto.Codec).U32, (*proto.Codec).U64)
}

func walkMemberKey(c *proto.Codec, k *memberKey) {
	class, id := k.class(), k.id()
	c.U8(&class)
	c.U32(&id)
	*k = memberOf(class, id)
}

// walkMember leaves lastBeat out: it is wall-clock and meaningless
// across nodes, so the restorer re-stamps it (handleReplSnapshot).
func walkMember(c *proto.Codec, mem *member) {
	c.U32(&mem.node)
	c.Bool(&mem.dead)
	c.U64(&mem.reapGen)
}

// walkWaiter flattens a parked waiter; the restored form holds no ticket
// (see the comment at the top of the file).
func walkWaiter(c *proto.Codec, w *waiter) {
	c.U32(&w.thread)
	c.U32(&w.node)
	c.U64(&w.lastSeen)
	c.U8((*uint8)(&w.kind))
	c.Bool(&w.detached)
}

func walkShard(c *proto.Codec, sh *shard) {
	proto.Map(c, &sh.locks, (*proto.Codec).U32, at(walkLock))
	proto.Map(c, &sh.barriers, (*proto.Codec).U32, at(walkBarrier))
	proto.Map(c, &sh.conds, (*proto.Codec).U32, at(walkCond))
}

// walkLock leaves the announcement train out: a restored home composes a
// new one at the next grant.
func walkLock(c *proto.Codec, ls *lockState) {
	c.Bool(&ls.held)
	c.U32(&ls.holder)
	c.U32(&ls.holderNode)
	c.U64(&ls.gen)
	c.U64(&ls.grantSeq)
	proto.List(c, &ls.queue, walkWaiter)
}

func walkBarrier(c *proto.Codec, bs *barrierState) {
	c.U32(&bs.count)
	c.U64(&bs.epoch)
	proto.Map(c, &bs.counted, (*proto.Codec).U32, (*proto.Codec).U64)
	walkSet(c, &bs.dead)
	proto.List(c, &bs.arrived, walkWaiter)
}

func walkCond(c *proto.Codec, cs *condState) {
	proto.List(c, &cs.waiters, func(c *proto.Codec, e *condEntry) {
		c.U32(&e.lock)
		walkWaiter(c, &e.w)
	})
}
