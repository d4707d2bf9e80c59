package memserver

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// seal freezes this server's share of a snapshot's pages. The client
// form (Pages empty) covers every in-range page homed here; the standby
// form (Pages set) is a primary shard forwarding exactly the pages it
// sealed. Needs carry the same interval-tag happens-before a fetch would
// quote: a seal must not freeze a page before the diffs the
// snapshotting thread has already released are applied, so a seal's
// shares park and wake exactly like a fetch's. j is the request's join.
func (s *Server) seal(j *join, m *proto.SealAS) {
	if s.standby.Load() && len(m.Pages) == 0 {
		s.out.AnswerError(j.req, proto.CodeNotPromoted, fmt.Errorf("memserver %d: standby not promoted", s.index), s.Clock())
		s.recycle(j)
		return
	}
	// Create the snapshot's frame map up front so "sealed with zero
	// frames" (an all-zero image) is recorded, not mistaken for "never
	// sealed here".
	s.snaps.ensure(m.Snap)
	j.snap = m.Snap
	sealPage := func(pg layout.PageID) {
		p := s.route(j, pg)
		p.pages = append(p.pages, pg)
	}
	for _, pu := range m.Pages {
		sealPage(layout.PageID(pu))
	}
	if len(m.Pages) == 0 {
		first := s.geo.PageOf(layout.Addr(m.Base))
		for i := uint64(0); i < m.NPages; i++ {
			if pg := first + layout.PageID(i); s.geo.HomeOf(pg) == s.index {
				sealPage(pg)
			}
		}
	}
	s.routeNeeds(j, m.Needs)
	if len(j.shares) == 0 {
		s.out.Answer(j.req, &proto.Ack{}, j.begin+j.svc)
		s.recycle(j)
		return
	}
	s.dispatch(j)
}

// sealPages freezes a seal share ready at ready: each page's current
// bytes become a word-run-compressed sealed frame keyed by the original
// page id, shared read-only by every future fork. Hot pages are
// compressed in place; cold pages contribute their already-encoded blob
// without a round trip through raw bytes; pages never materialized are
// implicitly zero and store no frame.
func (sh *shard) sealPages(p *share, ready vtime.Time) {
	s, j := sh.srv, p.j
	sealed := make([]uint64, 0, len(p.pages))
	bytes := 0
	for _, pg := range p.pages {
		var blob []byte
		if b, ok := sh.pages[pg]; ok {
			blob = compressPage(nil, b)
			bytes += len(b)
		} else if sh.tier != nil && sh.tier.cold[pg] != nil {
			blob = append([]byte(nil), sh.tier.cold[pg]...)
			bytes += s.geo.PageSize
		} else if fb, ok := s.snaps.lookup(pg); ok {
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
		s.snaps.store(j.snap, pg, blob)
		sealed = append(sealed, uint64(pg))
	}
	if ts := s.tierStats; ts != nil {
		ts.SealedPages.Add(int64(len(sealed)))
	}
	work := s.cpu.CopyTime(bytes) + sh.drainPending() + j.svc
	done := sh.book(ready, work) + work
	// Forward this shard's sealed share to the standby (same shard
	// routing there). Zero frames need no forward: a fork page with no
	// frame reads as zero on both replicas.
	if len(sealed) > 0 && !s.forward(&proto.SealAS{Snap: j.snap, Pages: sealed}, sh.cal.maxEnd) {
		j.mute = true
	}
	s.complete(j, sh.id, done, nil, 0)
}

// forkMap registers a fork range: pages in [Base, Base+NPages) are
// images of the congruent pages of the sealed snapshot — served from its
// shared frames until first write. Forwarded to the standby so forks
// survive a primary kill. Idempotent (a retried ForkMap re-registers the
// same range). It reports whether the request may be answered (see
// forward); at is its arrival.
func (s *Server) forkMap(m *proto.ForkMap, at vtime.Time) bool {
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
	return s.forward(m, at)
}

// forkUnmap undoes a ForkMap: the fork-range entry is removed from the
// snap store (so no page can resolve through the dead range again),
// released snapshots drop their sealed frames, and each shard purges the
// private pages the fork materialized in the range. The ack follows the
// purge — the caller's Unmapped FreeReq, which lets the manager reuse
// the striped space, must not race a shard still holding the old bytes.
// Forwarded to the standby like ForkMap so a promoted standby does not
// resurrect the range. It reports whether the request may be answered,
// like forkMap.
func (s *Server) forkUnmap(m *proto.ForkUnmap, at vtime.Time) bool {
	base := s.geo.PageOf(layout.Addr(m.Base))
	if m.NPages > 0 && s.snaps.unregister(base) {
		if ts := s.tierStats; ts != nil {
			ts.SnapshotRefs.Add(-1)
		}
	}
	for _, snap := range m.Release {
		if n := s.snaps.release(snap); n > 0 {
			if ts := s.tierStats; ts != nil {
				ts.SealedPages.Add(-int64(n))
			}
		}
	}
	ok := s.forward(m, at)
	// Purge the fork's private pages from their shards. Like writerDead
	// this is teardown bookkeeping with no virtual-time cost.
	for i := uint64(0); i < m.NPages; i++ {
		p := base + layout.PageID(i)
		if s.geo.HomeOf(p) == s.index {
			s.shards[s.geo.ShardOf(p, s.nshards)].dropPage(p)
		}
	}
	return ok
}
