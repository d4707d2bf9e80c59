package memserver

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/vtime"
)

// sealInfo marks a subFetch as a snapshot seal: its pages are frozen
// into sealed frames instead of returned as bytes.
type sealInfo struct {
	snap  uint64
	split bool // one share of a multi-shard seal (Svc charged once at dispatch)
	join  *sealJoin
}

// sealJoin joins the per-shard completions of a SealAS. Like fetchJoin
// it keeps the lowest-numbered failing shard's error so the winning
// error does not depend on the order parked shares complete in, but the
// success reply is a bare Ack — the frames stay on the server.
type sealJoin struct {
	req       *scl.Request
	remaining int
	done      vtime.Time
	err       error
	errShard  int
	errCode   uint16
}

func (j *sealJoin) complete(shardID int, at vtime.Time, err error, code uint16) {
	if at > j.done {
		j.done = at
	}
	if err != nil && (j.err == nil || shardID < j.errShard) {
		j.err, j.errShard, j.errCode = err, shardID, code
	}
	j.remaining--
	if j.remaining > 0 {
		return
	}
	if j.err != nil {
		j.req.ReplyErrorCode(j.errCode, j.err, j.done)
		return
	}
	j.req.Reply(&proto.Ack{}, j.done)
}

// dispatchSealAS freezes this server's share of a snapshot's pages. The
// client form (Pages empty) covers every in-range page homed here; the
// standby form (Pages set) is a primary shard forwarding exactly the
// pages it sealed. Needs carry the same interval-tag happens-before a
// fetch would quote: a seal must not freeze a page before the diffs the
// snapshotting thread has already released are applied.
func (s *Server) dispatchSealAS(req *scl.Request) {
	var m proto.SealAS
	if err := req.Decode(&m); err != nil {
		req.ReplyError(err, s.Clock())
		return
	}
	if s.standby.Load() && len(m.Pages) == 0 {
		req.ReplyErrorCode(proto.CodeNotPromoted,
			fmt.Errorf("memserver %d: standby not promoted", s.index), s.Clock())
		return
	}
	var pages []layout.PageID
	if len(m.Pages) > 0 {
		pages = make([]layout.PageID, len(m.Pages))
		for i, pu := range m.Pages {
			pages[i] = layout.PageID(pu)
		}
	} else {
		first := s.geo.PageOf(layout.Addr(m.Base))
		for i := uint64(0); i < m.NPages; i++ {
			p := first + layout.PageID(i)
			if s.geo.HomeOf(p) == s.index {
				pages = append(pages, p)
			}
		}
	}
	// Create the snapshot's frame map up front so "sealed with zero
	// frames" (an all-zero image) is recorded, not mistaken for "never
	// sealed here".
	s.snaps.ensure(m.Snap)

	subs := make([]*subFetch, s.nshards)
	sub := func(id int) *subFetch {
		if subs[id] == nil {
			subs[id] = &subFetch{req: req}
		}
		return subs[id]
	}
	for _, p := range pages {
		f := sub(s.geo.ShardOf(p, s.nshards))
		f.pages = append(f.pages, p)
	}
	for i := range m.Needs {
		f := sub(s.geo.ShardOf(layout.PageID(m.Needs[i].Page), s.nshards))
		f.needs = append(f.needs, m.Needs[i])
	}
	count := 0
	for _, f := range subs {
		if f != nil {
			count++
		}
	}
	if count == 0 {
		req.Reply(&proto.Ack{}, req.Arrive()+req.Svc())
		return
	}
	j := &sealJoin{req: req, remaining: count}
	for id, f := range subs {
		if f == nil {
			continue
		}
		f.seal = &sealInfo{snap: m.Snap, split: count > 1, join: j}
		s.shards[id].serveFetch(f)
	}
}

// sealPages freezes this shard's share of a snapshot: each page's
// current bytes become a word-run-compressed sealed frame keyed by the
// original page id, shared read-only by every future fork. Hot pages
// are compressed in place; cold pages contribute their already-encoded
// blob without a round trip through raw bytes; pages never materialized
// are implicitly zero and store no frame. Like replyFetch, lazily-owned
// pages are pulled up to date first — the seal must capture the
// writer's retained bytes.
func (sh *shard) sealPages(sub *subFetch, tags []proto.IntervalTag) {
	s := sh.srv
	ready := sub.req.Arrive()
	if sub.seal.split {
		ready += sub.req.Svc()
	}
	for _, tag := range tags {
		if at, ok := sh.appliedAt[tag]; ok && at > ready {
			ready = at
		}
	}
	if err := sh.pullOwned(nil, sub.pages, &ready); err != nil {
		sub.seal.join.complete(sh.id, sh.cal.maxEnd,
			fmt.Errorf("memserver %d: seal %d: %w", s.index, sub.seal.snap, err), proto.CodeGeneric)
		return
	}
	sealed := make([]uint64, 0, len(sub.pages))
	bytes := 0
	for _, p := range sub.pages {
		var blob []byte
		if b, ok := sh.pages[p]; ok {
			blob = compressPage(nil, b)
			bytes += len(b)
		} else if sh.tier != nil && sh.tier.cold[p] != nil {
			blob = append([]byte(nil), sh.tier.cold[p]...)
			bytes += s.geo.PageSize
		} else if fb, ok := s.snaps.lookup(p); ok {
			// Snapshotting a fork range: a page the fork never CoW-broke
			// still reads as its parent snapshot's sealed frame, so the new
			// snapshot must seal those inherited bytes — not implicit zeros.
			// The blob is copied so the new frame survives the parent
			// snapshot's release.
			if fb == nil {
				continue // parent frame is an explicit zero page
			}
			blob = append([]byte(nil), fb...)
			bytes += s.geo.PageSize
		} else {
			continue // never materialized: implicit zero frame
		}
		s.snaps.store(sub.seal.snap, p, blob)
		sealed = append(sealed, uint64(p))
	}
	if ts := s.tierStats; ts != nil {
		ts.SealedPages.Add(int64(len(sealed)))
	}
	work := s.cpu.CopyTime(bytes) + sh.drainPending()
	if !sub.seal.split {
		work += sub.req.Svc()
	}
	done := sh.book(ready, work) + work
	// Forward this shard's sealed share to the standby (same shard
	// routing there). Zero frames need no forward: a fork page with no
	// frame reads as zero on both replicas.
	if len(sealed) > 0 {
		sh.replicate(&proto.SealAS{Snap: sub.seal.snap, Pages: sealed})
	}
	sub.seal.join.complete(sh.id, done, nil, 0)
}

// handleForkMap registers a fork range: pages in [Base, Base+NPages)
// are images of the congruent pages of the sealed snapshot — served
// from its shared frames until first write. Replicated to the standby
// so forks survive a primary kill. Idempotent (a retried ForkMap
// re-registers the same range).
func (s *Server) handleForkMap(req *scl.Request) {
	var m proto.ForkMap
	if err := req.Decode(&m); err != nil {
		if !req.OneWay() {
			req.ReplyError(err, s.Clock())
		}
		return
	}
	fr := forkRange{
		base:   s.geo.PageOf(layout.Addr(m.Base)),
		orig:   s.geo.PageOf(layout.Addr(m.OrigBase)),
		npages: m.NPages,
		snap:   m.Snap,
	}
	if n := s.snaps.register(fr); n != 0 {
		if ts := s.tierStats; ts != nil {
			ts.SnapshotRefs.Add(int64(n))
		}
	}
	if s.hasReplica {
		var ack proto.Ack
		if _, err := s.ep.Call(s.replica, &m, &ack, req.Arrive()); err != nil {
			if s.live != nil {
				s.live.ReplFailures.Add(1)
			}
		} else if s.live != nil {
			s.live.ReplBatches.Add(1)
		}
	}
	if !req.OneWay() {
		req.Reply(&proto.Ack{}, req.Arrive()+req.Svc())
	}
}

// handleForkUnmap undoes a ForkMap: the fork-range entry is removed
// from the snap store (so no page can resolve through the dead range
// again), released snapshots drop their sealed frames, and each shard
// purges the private pages the fork materialized in the range. The ack
// follows the purge — the caller's Unmapped FreeReq, which lets the
// manager reuse the striped space, must not race a shard still holding
// the old bytes. Replicated to the standby
// like ForkMap so a promoted standby does not resurrect the range.
func (s *Server) handleForkUnmap(req *scl.Request) {
	var m proto.ForkUnmap
	if err := req.Decode(&m); err != nil {
		if !req.OneWay() {
			req.ReplyError(err, s.Clock())
		}
		return
	}
	base := s.geo.PageOf(layout.Addr(m.Base))
	if m.NPages > 0 {
		if s.snaps.unregister(base) {
			if ts := s.tierStats; ts != nil {
				ts.SnapshotRefs.Add(-1)
			}
		}
	}
	for _, snap := range m.Release {
		if n := s.snaps.release(snap); n > 0 {
			if ts := s.tierStats; ts != nil {
				ts.SealedPages.Add(-int64(n))
			}
		}
	}
	if s.hasReplica {
		var ack proto.Ack
		if _, err := s.ep.Call(s.replica, &m, &ack, req.Arrive()); err != nil {
			if s.live != nil {
				s.live.ReplFailures.Add(1)
			}
		} else if s.live != nil {
			s.live.ReplBatches.Add(1)
		}
	}
	// Purge the fork's private pages from their shards. Like writerDead
	// this is teardown bookkeeping with no virtual-time cost.
	for i := uint64(0); i < m.NPages; i++ {
		p := base + layout.PageID(i)
		if s.geo.HomeOf(p) == s.index {
			s.shards[s.geo.ShardOf(p, s.nshards)].dropPage(p)
		}
	}
	if !req.OneWay() {
		req.Reply(&proto.Ack{}, req.Arrive()+req.Svc())
	}
}
