package manager

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
)

// Replication snapshot: the full semantic state of a manager, used to
// catch a follower up when the entries it still needs have been
// truncated out of the leader's log. Everything a log replay would have
// built is here — zones, notice directory, lock/barrier/cond tables,
// membership — EXCEPT live parked requests: a snapshot-restored replica
// holds replay waiters (no-op replies) in their place, exactly as if it
// had applied the log, and the live clients re-issue after a failover.
//
// The encoding rides the proto varint Writer/Reader and is internal to
// the manager (leader and follower run the same binary in a replica
// group); it is versioned with a leading magic byte so a mismatch fails
// loudly instead of misdecoding.

// Version 2 added the zones' per-writer allocation-plane idempotency
// records (AllocReq/FreeReq dedup across failover). Version 3 added the
// address-space snapshot/fork table, so forks survive leader kills.
const stateVersion = 3

// encodeState serializes the manager's semantic state.
func (m *Manager) encodeState() []byte {
	w := &proto.Writer{}
	w.U8(stateVersion)
	encodeZone(w, m.arenaZone)
	encodeZone(w, m.sharedZone)
	encodeZone(w, m.stripedZone)
	m.board.encode(w)

	// Membership. lastBeat is wall-clock and meaningless across nodes;
	// the restorer re-stamps it.
	keys := make([]memberKey, 0, len(m.members))
	for k := range m.members {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].class != keys[j].class {
			return keys[i].class < keys[j].class
		}
		return keys[i].id < keys[j].id
	})
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		mem := m.members[k]
		w.U8(k.class)
		w.U32(k.id)
		w.U32(mem.node)
		w.U8(boolByte(mem.dead))
		w.U64(mem.reapGen)
	}
	encodeU32Set(w, m.deadNodes)
	w.U64(m.obitGen)
	w.I64(m.liveThreads.Load())

	w.U64(uint64(len(m.shards)))
	for _, sh := range m.shards {
		sh.encode(w)
	}
	m.snaps.encode(w)
	return w.B
}

// restoreState replaces the manager's semantic state with a snapshot.
func (m *Manager) restoreState(data []byte) error {
	r := &proto.Reader{B: data}
	if v := r.U8(); r.Err() != nil || v != stateVersion {
		return fmt.Errorf("manager: snapshot version %d (want %d)", v, stateVersion)
	}
	arena := decodeZone(r, "arena", ArenaZoneBase, arenaZoneEnd)
	shared := decodeZone(r, "shared", SharedZoneBase, sharedZoneEnd)
	striped := decodeZone(r, "striped", StripedZoneBase, stripedZoneEnd)
	board := newBoard(&m.stats)
	board.decode(r)

	members := make(map[memberKey]*member)
	now := time.Now()
	n := r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		k := memberKey{class: r.U8(), id: r.U32()}
		mem := &member{node: r.U32(), lastBeat: now}
		mem.dead = r.U8() != 0
		mem.reapGen = r.U64()
		members[k] = mem
	}
	deadNodes := decodeU32Set(r)
	obitGen := r.U64()
	liveThreads := r.I64()

	nsh := r.U64()
	if r.Err() == nil && int(nsh) != len(m.shards) {
		return fmt.Errorf("manager: snapshot has %d shards, replica has %d", nsh, len(m.shards))
	}
	shards := make([]*shard, len(m.shards))
	for i := range shards {
		shards[i] = newShard(m, i)
		shards[i].decode(r)
	}
	snaps := newSnapState()
	snaps.decode(r)
	if r.Err() != nil {
		return fmt.Errorf("manager: snapshot decode: %w", r.Err())
	}
	m.arenaZone, m.sharedZone, m.stripedZone = arena, shared, striped
	m.snaps = snaps
	m.board = board
	m.members = members
	m.deadNodes = deadNodes
	m.obitGen = obitGen
	m.liveThreads.Store(liveThreads)
	m.shards = shards
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func encodeZone(w *proto.Writer, z *Zone) {
	w.U64(uint64(z.next))
	w.U64(uint64(len(z.free)))
	for _, s := range z.free {
		w.U64(uint64(s.base))
		w.U64(s.size)
	}
	addrs := make([]uint64, 0, len(z.allocs))
	for a := range z.allocs {
		addrs = append(addrs, uint64(a))
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.U64(uint64(len(addrs)))
	for _, a := range addrs {
		w.U64(a)
		w.U64(z.allocs[layout.Addr(a)])
	}
	// Per-writer idempotency records, in writer order (byte-determinism).
	writers := make([]uint32, 0, len(z.lastAlloc))
	for wr := range z.lastAlloc {
		writers = append(writers, wr)
	}
	sort.Slice(writers, func(i, j int) bool { return writers[i] < writers[j] })
	w.U64(uint64(len(writers)))
	for _, wr := range writers {
		r := z.lastAlloc[wr]
		w.U32(wr)
		w.U64(r.seq)
		w.U64(uint64(r.addr))
	}
	encodeU32U64Map(w, z.lastFree)
}

func decodeZone(r *proto.Reader, name string, base, limit layout.Addr) *Zone {
	z := NewZone(name, base, limit)
	z.next = layout.Addr(r.U64())
	nf := r.U64()
	for i := uint64(0); i < nf && r.Err() == nil; i++ {
		z.free = append(z.free, span{base: layout.Addr(r.U64()), size: r.U64()})
	}
	na := r.U64()
	for i := uint64(0); i < na && r.Err() == nil; i++ {
		a := layout.Addr(r.U64())
		z.allocs[a] = r.U64()
	}
	nd := r.U64()
	for i := uint64(0); i < nd && r.Err() == nil; i++ {
		wr := r.U32()
		z.lastAlloc[wr] = allocRecord{seq: r.U64(), addr: layout.Addr(r.U64())}
	}
	z.lastFree = decodeU32U64Map(r)
	return z
}

func encodeU32Set(w *proto.Writer, set map[uint32]bool) {
	ids := make([]uint64, 0, len(set))
	for id := range set {
		ids = append(ids, uint64(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.U64s(ids)
}

func decodeU32Set(r *proto.Reader) map[uint32]bool {
	set := make(map[uint32]bool)
	for _, id := range r.U64s() {
		set[uint32(id)] = true
	}
	return set
}

func encodeU32U64Map(w *proto.Writer, mp map[uint32]uint64) {
	ids := sortedKeys(mp)
	w.U64(uint64(len(ids)))
	for _, id := range ids {
		w.U32(id)
		w.U64(mp[id])
	}
}

func decodeU32U64Map(r *proto.Reader) map[uint32]uint64 {
	mp := make(map[uint32]uint64)
	n := r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		id := r.U32()
		mp[id] = r.U64()
	}
	return mp
}

// encode serializes the directory. The second word is the delivery
// frontier, which equals issued whenever a snapshot can be taken
// (between requests); the format keeps it.
func (b *noticeBoard) encode(w *proto.Writer) {
	w.U64(b.issued)
	w.U64(b.issued)
	proto.Notices(w, nil, &b.notices)
	encodeU32U64Map(w, b.lastSeen)
	encodeU32U64Map(w, b.lastInterval)
}

func (b *noticeBoard) decode(r *proto.Reader) {
	b.issued = r.U64()
	r.U64() // delivery frontier == issued
	proto.Notices(nil, r, &b.notices)
	b.lastSeen = decodeU32U64Map(r)
	b.lastInterval = decodeU32U64Map(r)
}

// encodeWaiter flattens a parked waiter; the restored form is a replay
// waiter (no-op reply) — see the package comment above.
func encodeWaiter(w *proto.Writer, wt *waiter) {
	w.U32(wt.thread)
	w.U32(wt.node)
	w.U64(wt.lastSeen)
	w.U8(uint8(wt.kind))
	w.U8(boolByte(wt.detached))
}

func decodeWaiter(r *proto.Reader) waiter {
	wt := waiter{
		thread:   r.U32(),
		node:     r.U32(),
		lastSeen: r.U64(),
	}
	wt.kind = waitKind(r.U8())
	wt.detached = r.U8() != 0
	if !wt.detached {
		kind := proto.KLockReq
		if wt.kind == waitCond {
			kind = proto.KCondWaitReq
		}
		wt.req = scl.NewReplayRequest(scl.NodeID(wt.node), kind, nil, 0)
	}
	return wt
}

func (sh *shard) encode(w *proto.Writer) {
	lockIDs := sortedKeys(sh.locks)
	w.U64(uint64(len(lockIDs)))
	for _, id := range lockIDs {
		ls := sh.locks[id]
		w.U32(id)
		w.U8(boolByte(ls.held))
		w.U32(ls.holder)
		w.U32(ls.holderNode)
		w.U64(ls.gen)
		w.U64(ls.grantSeq)
		w.U64(uint64(len(ls.queue)))
		for i := range ls.queue {
			encodeWaiter(w, &ls.queue[i])
		}
	}
	barIDs := sortedKeys(sh.barriers)
	w.U64(uint64(len(barIDs)))
	for _, id := range barIDs {
		bs := sh.barriers[id]
		w.U32(id)
		w.U32(bs.count)
		w.U64(bs.epoch)
		encodeU32U64Map(w, bs.counted)
		encodeU32Set(w, bs.dead)
		w.U64(uint64(len(bs.arrived)))
		for i := range bs.arrived {
			encodeWaiter(w, &bs.arrived[i])
		}
	}
	condIDs := sortedKeys(sh.conds)
	w.U64(uint64(len(condIDs)))
	for _, id := range condIDs {
		cs := sh.conds[id]
		w.U32(id)
		w.U64(uint64(len(cs.waiters)))
		for i := range cs.waiters {
			w.U32(cs.waiters[i].lock)
			encodeWaiter(w, &cs.waiters[i].w)
		}
	}
	encodeU32Set(w, sh.deadThreads)
}

func (sh *shard) decode(r *proto.Reader) {
	nl := r.U64()
	for i := uint64(0); i < nl && r.Err() == nil; i++ {
		id := r.U32()
		ls := &lockState{}
		ls.held = r.U8() != 0
		ls.holder = r.U32()
		ls.holderNode = r.U32()
		ls.gen = r.U64()
		ls.grantSeq = r.U64()
		nq := r.U64()
		for j := uint64(0); j < nq && r.Err() == nil; j++ {
			ls.queue = append(ls.queue, decodeWaiter(r))
		}
		sh.locks[id] = ls
	}
	nb := r.U64()
	for i := uint64(0); i < nb && r.Err() == nil; i++ {
		id := r.U32()
		bs := &barrierState{count: r.U32()}
		bs.epoch = r.U64()
		bs.counted = decodeU32U64Map(r)
		bs.dead = decodeU32Set(r)
		na := r.U64()
		for j := uint64(0); j < na && r.Err() == nil; j++ {
			bs.arrived = append(bs.arrived, decodeWaiter(r))
		}
		sh.barriers[id] = bs
	}
	nc := r.U64()
	for i := uint64(0); i < nc && r.Err() == nil; i++ {
		id := r.U32()
		cs := &condState{}
		nw := r.U64()
		for j := uint64(0); j < nw && r.Err() == nil; j++ {
			lock := r.U32()
			cs.waiters = append(cs.waiters, condEntry{lock: lock, w: decodeWaiter(r)})
		}
		sh.conds[id] = cs
	}
	sh.deadThreads = decodeU32Set(r)
}

func sortedKeys[V any](m map[uint32]V) []uint32 {
	ks := make([]uint32, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
