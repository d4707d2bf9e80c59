package manager

import (
	"fmt"
	"sort"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
)

// snapState is the manager's address-space snapshot/fork table, owned —
// like the striped zone it describes — by the striped zone's home shard
// (decodeReq routes SnapshotAS/ForkAS there), so it needs no locking.
// It is part of the replicated state snapshot: forks survive leader kills
// exactly like allocations do, and a SnapshotAS, ForkAS or fork FreeReq
// re-issued across a failover is answered from its writer's reply record
// (record.go) instead of sealing, allocating or decrementing twice.
type snapState struct {
	nextSnap uint64
	snaps    map[uint64]*snapInfo // snapshot id -> geometry + refcount
	forks    map[uint64]uint64    // fork base address -> snapshot id
}

// snapInfo records one sealed snapshot: the original striped range and
// how many live forks reference it. Refs starts at 1 for the snapshot
// handle itself and rises with each fork; freeing a fork's range drops
// one ref, freeing the original image drops the handle's ref
// (handleGone keeps a later allocation that reuses origBase from
// dropping it twice), and a record whose refs reach zero is released —
// the reply names it so the caller can tell the homes to drop its
// sealed frames.
type snapInfo struct {
	origBase   uint64
	npages     uint64
	refs       int64
	handleGone bool
}

func newSnapState() *snapState {
	return &snapState{
		snaps: make(map[uint64]*snapInfo),
		forks: make(map[uint64]uint64),
	}
}

func (sh *shard) handleSnapshotAS(c *scl.Request, sr *proto.SnapshotASReq) {
	m := sh.m
	ss := m.snaps
	base := layout.Addr(sr.Base)
	if sr.NPages == 0 || !m.stripedZone.Contains(base) {
		sh.fail(c, fmt.Errorf("manager: snapshot of %#x (+%d pages) outside the striped zone", sr.Base, sr.NPages))
		return
	}
	// Fork pages must be homed by the server holding the congruent sealed
	// frame, which requires the original image to sit on a stripe-group
	// boundary — the alignment every striped allocation gets. Reject a
	// mid-buffer snapshot that breaks the congruence.
	if align := uint64(m.geo.LineSize() * m.geo.NumServers); sr.Base%align != 0 {
		sh.fail(c, fmt.Errorf("manager: snapshot base %#x not stripe-group aligned (%d)", sr.Base, align))
		return
	}
	ss.nextSnap++
	id := ss.nextSnap
	ss.snaps[id] = &snapInfo{origBase: sr.Base, npages: sr.NPages, refs: 1}
	sh.answer(c, &proto.SnapshotASResp{Snap: id})
}

func (sh *shard) handleForkAS(c *scl.Request, fr *proto.ForkASReq) {
	m := sh.m
	ss := m.snaps
	si, ok := ss.snaps[fr.Snap]
	if !ok {
		sh.fail(c, fmt.Errorf("manager: fork of unknown snapshot %d", fr.Snap))
		return
	}
	// The fork's base gets the striped zone's stripe-group alignment —
	// the same alignment the original image was allocated with — so
	// every page offset keeps its home server and the sealed frames can
	// be served without any cross-server indirection.
	align := m.geo.LineSize() * m.geo.NumServers
	addr, err := m.stripedZone.Alloc(si.npages*uint64(m.geo.PageSize), align)
	if err != nil {
		sh.fail(c, err)
		return
	}
	si.refs++
	ss.forks[uint64(addr)] = fr.Snap
	m.stats.Allocs.Add(1)
	sh.answer(c, &proto.ForkASResp{Base: uint64(addr), OrigBase: si.origBase, NPages: si.npages})
}

// forkFree runs phase one of freeing a forked range: the fork's table
// entry and snapshot reference go away immediately (so a racing ForkAS
// between the two free phases cannot revive state the caller was told
// to tear down), but the zone space is NOT freed — the reply tells the
// caller the geometry to unmap at the homes, and a second, Unmapped
// FreeReq commits the space once every home has acked. A parent
// snapshot whose refs reach zero is released and named in the reply.
func (ss *snapState) forkFree(addr, snap uint64) proto.FreeResp {
	delete(ss.forks, addr)
	resp := proto.FreeResp{Fork: true, Snap: snap}
	if si, ok := ss.snaps[snap]; ok {
		resp.NPages = si.npages
		si.refs--
		if si.refs <= 0 {
			delete(ss.snaps, snap)
			resp.Release = append(resp.Release, snap)
		}
	}
	return resp
}

// originFreed drops the handle reference of every snapshot sealed from
// the freed range: the source allocation pins its snapshots, so a
// snapshot with no remaining forks is released with it. Returns the
// released ids (sorted, for replay determinism) and the largest
// released page count, which sizes the homes' frame-release fanout.
func (ss *snapState) originFreed(addr uint64) (release []uint64, npages uint64) {
	ids := make([]uint64, 0, len(ss.snaps))
	for id := range ss.snaps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		si := ss.snaps[id]
		if si.origBase != addr || si.handleGone {
			continue
		}
		si.handleGone = true
		si.refs--
		if si.refs <= 0 {
			delete(ss.snaps, id)
			release = append(release, id)
			if si.npages > npages {
				npages = si.npages
			}
		}
	}
	return release, npages
}

// walkSnapState is the table's part of the replication snapshot.
func walkSnapState(c *proto.Codec, ss *snapState) {
	c.U64(&ss.nextSnap)
	proto.Map(c, &ss.snaps, (*proto.Codec).U64, at(func(c *proto.Codec, si *snapInfo) {
		c.U64(&si.origBase)
		c.U64(&si.npages)
		c.I64(&si.refs)
		c.Bool(&si.handleGone)
	}))
	proto.Map(c, &ss.forks, (*proto.Codec).U64, (*proto.Codec).U64)
}
