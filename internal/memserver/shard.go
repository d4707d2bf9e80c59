package memserver

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// Bounds for applying one sub-batch's page diffs with a transient
// worker pool instead of serially: the batch must touch at least
// parallelApplyPages distinct pages and carry at least
// parallelApplyBytes of payload, and at most maxApplyWorkers goroutines
// share the copying. The workers only memcpy into already-materialized
// pages — they never touch the calendar, the gate or the fabric — so
// they are invisible to virtual time and to the sequencer.
const (
	parallelApplyPages = 4
	parallelApplyBytes = 16 << 10
	maxApplyWorkers    = 4
)

// shard owns a disjoint, line-granular slice of the server's page space
// (Geometry.ShardOf) plus everything whose consistency is per-page:
// the service calendar, applied-tag table, parked fetches and lazy
// ownership claims. All of it belongs to the server's one goroutine.
type shard struct {
	srv *Server
	id  int

	cal calendar
	// clock mirrors cal.maxEnd (updated only via book) so Clock() can
	// merge shard clocks from another goroutine (tests, the runtime).
	clock atomic.Int64

	pages     map[layout.PageID][]byte
	appliedAt map[proto.IntervalTag]vtime.Time
	parked    []*share // in park order
	owner     map[layout.PageID]uint32
	// deadWriters holds writers the manager has reaped: their announced
	// but unshipped interval tags will never be applied, so fetches must
	// not wait on them (see proto.WriterDead).
	deadWriters map[uint32]struct{}

	// tier, when non-nil, layers a byte-budgeted LRU hot set over a
	// compressed cold tier under the pages map (see tier.go). pending
	// accrues the virtual time of tier moves and sealed-frame
	// decompression during an operation; the operation drains it into
	// its work term via drainPending. scratch is the reusable
	// decompression target for sealed-frame reads, which serve forked
	// pages without materializing private copies.
	tier    *tierStore
	pending vtime.Time
	scratch []byte
}

// book books a service slot on the shard calendar, keeping the atomic
// clock mirror in sync. All shard code books through this wrapper.
func (sh *shard) book(at, dur vtime.Time) vtime.Time {
	start := sh.cal.book(at, dur)
	sh.clock.Store(int64(sh.cal.maxEnd))
	return start
}

// run serves one share of a request on this shard.
func (sh *shard) run(p *share) {
	switch p.j.req.Kind() {
	case proto.KDiffBatch, proto.KEvictFlush:
		sh.applyBatch(p)
	default:
		sh.serveFetch(p)
	}
}

// serveFetch serves a fetch or seal share at once, or parks it until it
// is no longer blocked.
func (sh *shard) serveFetch(p *share) {
	if sh.blocked(p) {
		sh.srv.stats.ParkedFetches.Add(1)
		sh.parked = append(sh.parked, p)
		return
	}
	sh.serve(p)
}

// blocked reports whether p quotes an interval tag that has not been
// applied here and still can be: its writer is not dead.
func (sh *shard) blocked(p *share) bool {
	for i := range p.needs {
		for _, tag := range p.needs[i].Tags {
			if _, ok := sh.appliedAt[tag]; !ok {
				if _, dead := sh.deadWriters[tag.Writer]; !dead {
					return true
				}
			}
		}
	}
	return false
}

// wake serves the parked shares an applied tag or a writer's death has
// unblocked, in the order they parked: shares that become ready together
// book the calendar first-parked first, whatever the run.
func (sh *shard) wake() {
	parked := sh.parked
	sh.parked = parked[:0] // refilled in place: serve never parks
	for _, p := range parked {
		if sh.blocked(p) {
			sh.parked = append(sh.parked, p)
		} else {
			sh.serve(p)
		}
	}
	clear(parked[len(sh.parked):])
}

// ready is when a fetch or seal share whose tags have all landed can
// start: no earlier than its begin and the application of every tag it
// quotes, and after the lazily-owned pages it covers have been pulled up
// to date (batched per writer).
func (sh *shard) ready(p *share) (vtime.Time, error) {
	ready := p.j.begin
	for i := range p.needs {
		for _, tag := range p.needs[i].Tags {
			if at, ok := sh.appliedAt[tag]; ok && at > ready {
				ready = at
			}
		}
	}
	if p.j.frames {
		return ready, nil // a frame is no page's latest copy: nothing to pull
	}
	err := sh.pullOwned(p.j, p.lines, p.pages, &ready)
	return ready, err
}

// serve copies a fetch share's segments into its request's reply, or
// seals a seal share's pages, booking one service slot. A pull that
// fails (the owning writer's cache agent is unreachable) fails the share
// with a clean protocol error instead of wedging or killing the server;
// ownership is retained, so a later fetch can retry.
func (sh *shard) serve(p *share) {
	s, j := sh.srv, p.j
	ready, err := sh.ready(p)
	if err != nil {
		if j.req.Kind() == proto.KSealAS {
			err = fmt.Errorf("memserver %d: seal %d: %w", s.index, j.snap, err)
		} else {
			err = fmt.Errorf("memserver %d: lines %v pages %v: %w", s.index, p.lines, p.pages, err)
		}
		s.complete(j, sh.id, sh.cal.maxEnd, err, proto.CodeGeneric)
		return
	}
	if j.req.Kind() == proto.KSealAS {
		sh.sealPages(p, ready)
		return
	}
	for i, line := range p.lines {
		first := s.geo.FirstPage(line)
		for k := 0; k < s.geo.LinePages; k++ {
			copy(j.data[p.offs[i]+k*s.geo.PageSize:], sh.readPage(first+layout.PageID(k)))
		}
	}
	for i, pg := range p.pages {
		var b []byte
		if j.frames {
			b = sh.scratchFor(pg)
		} else {
			b = sh.readPage(pg)
		}
		copy(j.data[p.offs[len(p.lines)+i]:], b)
	}
	n := s.geo.LineSize()*len(p.lines) + s.geo.PageSize*len(p.pages)
	work := j.svc + s.cpu.CopyTime(n) + sh.drainPending()
	done := sh.book(ready, work) + work
	s.stats.BytesServed.Add(int64(n))
	s.complete(j, sh.id, done, nil, 0)
}

// applyBatch applies this shard's share of a batch and, for a
// DiffBatch, marks its interval tag applied here.
func (sh *shard) applyBatch(p *share) {
	s, j, m := sh.srv, p.j, &p.batch
	ready := j.begin
	// A batch is normally one-way: there is nobody to answer if a pull
	// from an unreachable writer fails mid-apply. The batch still
	// completes — its tag is marked applied and parked fetches wake —
	// because the failed pull retained its ownership record, so the
	// woken fetch re-attempts the pull itself and surfaces a clean error
	// if the writer is still gone. Stalling the tag would deadlock every
	// fetcher quoting it.
	bytes, err := sh.applyDiffs(j, m.Tag.Writer, m.Diffs, &ready)
	if err == nil {
		var rb int
		rb, err = sh.applyRecords(j, m.Records, &ready)
		bytes += rb
	}
	_ = err // counted in PullFailures by pullFrom; the tag must proceed
	for _, pu := range m.OwnedPages {
		pg := layout.PageID(pu)
		// Two writers can each believe they are a page's sole writer the
		// first time they share it. Pull the previous owner's retained
		// diffs before handing the claim over, so both writers' bytes
		// merge at the home (multiple-writer protocol).
		if prev, ok := sh.owner[pg]; ok && prev != m.Tag.Writer {
			if err := sh.pullFrom(j, prev, []uint64{pu}, &ready); err != nil {
				// Leave the previous claim in place; the handover will
				// be re-attempted when the page is next fetched.
				continue
			}
		}
		sh.owner[pg] = m.Tag.Writer
		s.stats.OwnedClaims.Add(1)
	}
	work := s.cpu.ApplyTime(bytes) + sh.drainPending() + j.svc
	done := sh.book(ready, work) + work
	var fwd proto.Msg = m
	if j.req.Kind() == proto.KDiffBatch {
		sh.appliedAt[m.Tag] = done
		sh.wake()
	} else if s.hasReplica {
		// An EvictFlush is forwarded as one, built only when it will be.
		fwd = &proto.EvictFlush{Writer: m.Tag.Writer, Diffs: m.Diffs}
	}
	// Forward to the standby after the local apply (and its pulls), then
	// answer.
	if !s.forward(fwd, sh.cal.maxEnd) {
		j.mute = true
	}
	s.complete(j, sh.id, done, nil, 0)
}

// applyDiffs installs diffs sent by the given writer, returning the
// payload bytes applied. It runs in two phases. Phase one is serial and
// does everything with cross-page or fabric side effects: a page
// another writer still lazily owns has that owner's retained diffs
// pulled first (or they would be orphaned when the claim is cleared;
// the writer's own claim is simply superseded, since its release path
// folds retained runs into the diff it ships), claims are dropped,
// pages are materialized, runs are bounds-checked and sized. Phase two
// is pure memcpy of runs into pages — each diff touches its own page
// (the release path emits one diff per dirty page, and pulled diffs
// come from per-page retention tables), so large batches fan the copies
// out across a bounded transient worker pool.
//
// A failed pull aborts the apply before any copy, returning zero bytes
// with the error; the foreign claim stays recorded so the pull can be
// retried later. (Clean sequenced runs never fail pulls, so this path
// only differs from the historical partial-apply behaviour under fault
// injection.)
func (sh *shard) applyDiffs(j *join, writer uint32, diffs []proto.PageDiff, ready *vtime.Time) (int, error) {
	bytes := 0
	for i := range diffs {
		d := &diffs[i]
		p := layout.PageID(d.Page)
		if prev, ok := sh.owner[p]; ok && prev != writer {
			if err := sh.pullFrom(j, prev, []uint64{d.Page}, ready); err != nil {
				return 0, err
			}
		}
		delete(sh.owner, p)
		pg := sh.page(p)
		for _, run := range d.Runs {
			if int(run.Off)+len(run.Data) > len(pg) {
				panic(fmt.Sprintf("memserver: diff run overflows page %d: off=%d len=%d", d.Page, run.Off, len(run.Data)))
			}
			bytes += len(run.Data)
		}
	}
	if len(diffs) >= parallelApplyPages && bytes >= parallelApplyBytes {
		sh.srv.stats.ParallelApplies.Add(1)
		workers := maxApplyWorkers
		if len(diffs) < workers {
			workers = len(diffs)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(diffs); i += workers {
					sh.applyOne(&diffs[i])
				}
			}(w)
		}
		wg.Wait()
	} else {
		for i := range diffs {
			sh.applyOne(&diffs[i])
		}
	}
	sh.srv.stats.DiffBytes.Add(int64(bytes))
	return bytes, nil
}

// applyOne copies one page diff's runs into its (already materialized,
// already bounds-checked) page.
func (sh *shard) applyOne(d *proto.PageDiff) {
	pg := sh.pages[layout.PageID(d.Page)]
	for _, run := range d.Runs {
		copy(pg[run.Off:], run.Data)
	}
}

// applyRecords installs fine-grained consistency-region updates,
// returning the payload bytes applied. Any retained ownership diff for
// the page is pulled first: retained bytes are older than the records
// and must not clobber them later.
func (sh *shard) applyRecords(j *join, recs []proto.StoreRecord, ready *vtime.Time) (int, error) {
	bytes := 0
	for i := range recs {
		r := &recs[i]
		p := sh.srv.geo.PageOf(layout.Addr(r.Addr))
		if prev, ok := sh.owner[p]; ok {
			if err := sh.pullFrom(j, prev, []uint64{uint64(p)}, ready); err != nil {
				return bytes, err
			}
		}
		off := sh.srv.geo.PageOffset(layout.Addr(r.Addr))
		pg := sh.page(p)
		if off+len(r.Data) > len(pg) {
			panic(fmt.Sprintf("memserver: record overflows page %d: off=%d len=%d", p, off, len(r.Data)))
		}
		copy(pg[off:], r.Data)
		sh.srv.stats.Records.Add(1)
		bytes += len(r.Data)
	}
	return bytes, nil
}

// writerDead processes a manager obituary: the writer's lease was
// reaped, so any of its interval tags not yet applied here never will
// be — the release pipeline announces the interval to the manager
// before shipping the DiffBatch, and the writer died in between.
// Parked fetches stop waiting on those tags (waking if nothing else is
// pending) and future fetches skip them, serving the freshest bytes
// that did arrive rather than parking forever.
func (sh *shard) writerDead(w uint32) {
	sh.deadWriters[w] = struct{}{}
	sh.wake()
}

// pullOwned brings every lazily-owned page of the given lines and
// pages up to date by pulling retained diffs from their writers' cache
// agents — one batched pull per writer across the whole request, so a
// combined fetch never multiplies the pull round trips. The shard
// blocks on each pull — a fetch that hits an owned page pays the extra
// round trip, which is the single-writer optimization's bargain:
// writers release for free, occasional readers pay one pull.
func (sh *shard) pullOwned(j *join, lines []layout.LineID, pages []layout.PageID, ready *vtime.Time) error {
	byWriter := make(map[uint32][]uint64)
	for _, line := range lines {
		first := sh.srv.geo.FirstPage(line)
		for i := 0; i < sh.srv.geo.LinePages; i++ {
			p := first + layout.PageID(i)
			if w, ok := sh.owner[p]; ok {
				byWriter[w] = append(byWriter[w], uint64(p))
			}
		}
	}
	for _, p := range pages {
		if w, ok := sh.owner[p]; ok {
			byWriter[w] = append(byWriter[w], uint64(p))
		}
	}
	// Pull in writer order: the pulls chain on ready, so iteration order
	// is part of the virtual-time result and must be deterministic.
	writers := make([]uint32, 0, len(byWriter))
	for w := range byWriter {
		writers = append(writers, w)
	}
	slices.Sort(writers)
	for _, w := range writers {
		if err := sh.pullFrom(j, w, byWriter[w], ready); err != nil {
			return err
		}
	}
	return nil
}

// pullFrom fetches and applies the retained diffs of the given pages
// from one writer's cache agent, clearing their ownership and advancing
// ready past the round trip and the apply work. If the writer's agent
// is unreachable the error is returned (and counted) with ownership
// left intact, so the pull can be retried by a later fetch — a dead
// writer must not take the memory server down with it.
func (sh *shard) pullFrom(j *join, w uint32, pages []uint64, ready *vtime.Time) error {
	s := sh.srv
	if s.standby.Load() {
		// A standby never pulls: its primary already pulled and
		// replicated the bytes as an EvictFlush ahead of this message,
		// so the claim is simply dropped.
		for _, pu := range pages {
			delete(sh.owner, layout.PageID(pu))
		}
		return nil
	}
	if s.agentAddr == nil {
		panic(fmt.Sprintf("memserver %d: pages owned by writer %d but no agent address map", s.index, w))
	}
	var resp proto.DiffPullResp
	doneAt, err := s.call(s.agentAddr(w), &proto.DiffPullReq{Pages: pages}, &resp, *ready)
	if err != nil {
		s.stats.PullFailures.Add(1)
		return fmt.Errorf("memserver %d: diff pull from writer %d: %w", s.index, w, err)
	}
	if doneAt > *ready {
		*ready = doneAt
	}
	s.stats.Pulls.Add(1)
	pulled := 0
	for i := range resp.Diffs {
		pulled += resp.Diffs[i].PayloadBytes()
	}
	s.stats.PulledBytes.Add(int64(pulled))
	// Clear ownership before applying: the pull IS the supersession, and
	// applyDiffs would otherwise recurse into pulling w again.
	for _, pu := range pages {
		delete(sh.owner, layout.PageID(pu))
	}
	// Pulled bytes exist only in this server's memory now (the writer's
	// retained diffs were taken destructively): replicate them before
	// applying, so the standby sees them ahead of any batch that
	// depends on them.
	if !s.forward(&proto.EvictFlush{Writer: w, Diffs: resp.Diffs}, sh.cal.maxEnd) {
		j.mute = true
	}
	if _, err := sh.applyDiffs(j, w, resp.Diffs, ready); err != nil {
		return err
	}
	*ready += s.cpu.ApplyTime(pulled)
	return nil
}

// hot returns the bytes of p if it is in the hot set, or in the cold
// tier and promoted back into it; nil otherwise.
func (sh *shard) hot(p layout.PageID) []byte {
	if b, ok := sh.pages[p]; ok {
		if sh.tier != nil {
			sh.tier.touch(p)
			sh.tier.st.HotHits.Add(1)
		}
		return b
	}
	if sh.tier != nil {
		return sh.tier.promote(sh, p)
	}
	return nil
}

// page returns the backing bytes of p for mutation, materializing it if
// absent: promoted from the cold tier, copied out of a sealed snapshot
// frame (the copy-on-write break — the fork's private page diverges from
// the shared frame here), or zero-filled. The returned page is always
// installed in the hot set.
func (sh *shard) page(p layout.PageID) []byte {
	if b := sh.hot(p); b != nil {
		return b
	}
	b := make([]byte, sh.srv.geo.PageSize)
	if blob, ok := sh.srv.snaps.lookup(p); ok {
		decompressPage(b, blob)
		sh.pending += sh.srv.cpu.ApplyTime(len(b))
		if ts := sh.srv.tierStats; ts != nil {
			ts.CoWBreaks.Add(1)
		}
	}
	sh.pages[p] = b
	sh.srv.stats.PagesHosted.Add(1)
	if sh.tier != nil {
		sh.tier.noteHot(sh, p)
	}
	return b
}

// readPage returns the bytes of p for reading only. Unlike page it
// serves forked pages straight out of their shared sealed frame —
// decompressed into a per-shard scratch buffer, never installed — so a
// storm of forks reading one image costs no per-fork page copies. The
// caller must copy the result out before the next readPage call.
func (sh *shard) readPage(p layout.PageID) []byte {
	if b := sh.hot(p); b != nil {
		return b
	}
	// A page never materialized and mapping no frame reads as zeros,
	// WITHOUT being hosted. A pure read must not install — a speculative
	// fetch past the end of a live buffer (the prefetcher runs one line
	// ahead of a stream) would otherwise pin a zero page over the sealed
	// frames a later fork registration maps at this address.
	return sh.scratchFor(p)
}

// scratchFor returns, in the shard's scratch buffer, the sealed frame
// fork page p maps, whatever private copy the shard holds of it, or
// zeros when p maps none.
func (sh *shard) scratchFor(p layout.PageID) []byte {
	if sh.scratch == nil {
		sh.scratch = make([]byte, sh.srv.geo.PageSize)
	}
	if blob, ok := sh.srv.snaps.lookup(p); ok {
		decompressPage(sh.scratch, blob)
		sh.pending += sh.srv.cpu.ApplyTime(len(sh.scratch))
	} else {
		clear(sh.scratch)
	}
	return sh.scratch
}

// dropPage discards a private page a dead fork materialized on this
// shard — hot copy, cold blob and lazy ownership claim — so the striped
// space can be reused without the old bytes bleeding into a later
// allocation. Pure bookkeeping, no virtual-time cost: teardown happens
// off the data path, like writerDead.
func (sh *shard) dropPage(p layout.PageID) {
	delete(sh.owner, p)
	if _, ok := sh.pages[p]; ok {
		delete(sh.pages, p)
		if sh.tier != nil {
			sh.tier.forget(sh, p)
		}
	} else if sh.tier != nil {
		sh.tier.dropCold(sh, p)
	}
}

// drainPending settles the tier at the end of a shard operation: the
// hot set is trimmed back to budget (demotions accrue their move time)
// and the accumulated tier/frame virtual time is returned for the
// operation's work term. Deferring eviction to operation end means a
// page can never be demoted out from under a multi-phase apply.
func (sh *shard) drainPending() vtime.Time {
	if sh.tier != nil {
		sh.tier.enforce(sh)
	}
	p := sh.pending
	sh.pending = 0
	return p
}

// failParked fails every parked share on this shard with a typed error
// (shutdown or peer death), in park order. A split request's join
// answers once all its shares have reported, by data or by failure.
func (sh *shard) failParked(code uint16, why string) {
	parked := sh.parked
	sh.parked = nil
	for _, p := range parked {
		sh.srv.complete(p.j, sh.id, sh.cal.maxEnd, fmt.Errorf("memserver: %s with fetch pending", why), code)
	}
}
