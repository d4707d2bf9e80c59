package memserver

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
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

// subFetch is one shard's share of a fetch: the lines, pages and
// interval-tag needs that map to this shard. An unsplit fetch (join
// nil) is replied to directly; a split one copies its segments into
// join.data at the recorded offsets and completes the join.
type subFetch struct {
	req      *scl.Request
	lines    []layout.LineID
	pages    []layout.PageID
	needs    []proto.PageNeed
	multi    bool
	join     *fetchJoin
	lineOffs []int // parallel to lines: offsets into join.data
	pageOffs []int // parallel to pages: offsets into join.data
	// seal, when set, turns this sub-fetch into a snapshot seal: instead
	// of returning the pages' bytes it freezes them as sealed frames
	// (see seal.go). It rides the fetch machinery because it has the
	// same happens-before needs — a seal quoting interval tags must wait
	// for those diffs exactly like a read would.
	seal *sealInfo
}

// fetchJoin reassembles a fetch split across shards. The shards fill
// disjoint segments of data (a pooled buffer sized to tile exactly),
// and the last one to finish replies: with the full payload at the max
// per-shard completion time, or — if any shard failed — with the
// lowest-numbered failing shard's error, so the winning error does not
// depend on the order parked shares complete in.
type fetchJoin struct {
	req       *scl.Request
	remaining int
	data      []byte
	done      vtime.Time
	err       error
	errShard  int
	errCode   uint16
}

func (j *fetchJoin) complete(s *Server, shardID int, at vtime.Time, err error, code uint16) {
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
		s.stats.FailedFetches.Add(1)
		j.req.ReplyErrorCode(j.errCode, j.err, j.done)
	} else {
		j.req.Reply(&proto.FetchLinesResp{Data: j.data}, j.done)
	}
	// Reply encoded (copied) the payload; the assembly buffer can go
	// back to the pool.
	proto.PutBuf(j.data)
}

// ackJoin joins the per-shard completions of an RPC-style (non-one-way)
// split request; the last shard acks at the max completion time.
type ackJoin struct {
	req       *scl.Request
	remaining int
	done      vtime.Time
}

func (j *ackJoin) complete(at vtime.Time) {
	if at > j.done {
		j.done = at
	}
	j.remaining--
	if j.remaining == 0 {
		j.req.Reply(&proto.Ack{}, j.done)
	}
}

// parkedFetch is a sub-fetch waiting for interval tags to be applied on
// its shard; waiting shrinks as tags land.
type parkedFetch struct {
	sub     *subFetch
	tags    []proto.IntervalTag
	waiting map[proto.IntervalTag]struct{}
}

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
	parked    map[*parkedFetch]struct{}
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

// serveFetch answers a (sub-)fetch immediately or parks it until every
// quoted interval tag has been applied on this shard.
func (sh *shard) serveFetch(sub *subFetch) {
	var tags []proto.IntervalTag
	waiting := make(map[proto.IntervalTag]struct{})
	for i := range sub.needs {
		for _, tag := range sub.needs[i].Tags {
			tags = append(tags, tag)
			if _, ok := sh.appliedAt[tag]; !ok {
				if _, dead := sh.deadWriters[tag.Writer]; dead {
					continue // the batch will never come; serve what arrived
				}
				waiting[tag] = struct{}{}
			}
		}
	}
	if len(waiting) == 0 {
		sh.replyFetch(sub, tags)
		return
	}
	sh.srv.stats.ParkedFetches.Add(1)
	sh.parked[&parkedFetch{sub: sub, tags: tags, waiting: waiting}] = struct{}{}
}

// replyFetch answers a sub-fetch whose needed tags have all been
// applied: it is ready no earlier than its own arrival and the
// application times of those tags; lazily-owned pages across all
// requested lines and pages are pulled up to date (batched per writer);
// then the assembly books one service slot. A pull that fails (the
// owning writer's cache agent is unreachable) degrades to a clean
// protocol error back to the fetcher — ownership is retained so a later
// fetch can retry — instead of wedging or killing the server.
func (sh *shard) replyFetch(sub *subFetch, tags []proto.IntervalTag) {
	if sub.seal != nil {
		sh.sealPages(sub, tags)
		return
	}
	s := sh.srv
	ready := sub.req.Arrive()
	if sub.join != nil {
		// A split request pays the fixed per-request service cost once:
		// the dispatcher's pickup and demux happen before any shard can
		// start, so every share is ready at Arrive+Svc and only the
		// data-dependent work is charged per shard. (The unsplit path
		// keeps Svc inside the booked slot, matching the historical
		// single-loop accounting exactly.)
		ready += sub.req.Svc()
	}
	for _, tag := range tags {
		if at, ok := sh.appliedAt[tag]; ok && at > ready {
			ready = at
		}
	}
	if err := sh.pullOwned(sub.lines, sub.pages, &ready); err != nil {
		err = fmt.Errorf("memserver %d: lines %v pages %v: %w", s.index, sub.lines, sub.pages, err)
		if sub.join != nil {
			sub.join.complete(s, sh.id, sh.cal.maxEnd, err, proto.CodeGeneric)
			return
		}
		s.stats.FailedFetches.Add(1)
		sub.req.ReplyError(err, sh.cal.maxEnd)
		return
	}
	lineSize := s.geo.LineSize()
	n := lineSize*len(sub.lines) + s.geo.PageSize*len(sub.pages)
	if sub.join == nil {
		data := proto.GetBuf(n)
		for _, line := range sub.lines {
			first := s.geo.FirstPage(line)
			for i := 0; i < s.geo.LinePages; i++ {
				data = append(data, sh.readPage(first+layout.PageID(i))...)
			}
		}
		for _, p := range sub.pages {
			data = append(data, sh.readPage(p)...)
		}
		work := sub.req.Svc() + s.cpu.CopyTime(len(data)) + sh.drainPending()
		done := sh.book(ready, work) + work
		s.stats.BytesServed.Add(int64(len(data)))
		if sub.multi {
			sub.req.Reply(&proto.FetchLinesResp{Data: data}, done)
		} else {
			sub.req.Reply(&proto.FetchLineResp{Data: data}, done)
		}
		proto.PutBuf(data)
		return
	}
	// Split fetch: copy this shard's segments into the joined reply at
	// the offsets the dispatcher fixed from the request order.
	for i, line := range sub.lines {
		off := sub.lineOffs[i]
		first := s.geo.FirstPage(line)
		for k := 0; k < s.geo.LinePages; k++ {
			copy(sub.join.data[off+k*s.geo.PageSize:], sh.readPage(first+layout.PageID(k)))
		}
	}
	for i, p := range sub.pages {
		copy(sub.join.data[sub.pageOffs[i]:], sh.readPage(p))
	}
	work := s.cpu.CopyTime(n) + sh.drainPending()
	done := sh.book(ready, work) + work
	s.stats.BytesServed.Add(int64(n))
	sub.join.complete(s, sh.id, done, nil, 0)
}

// applyBatch applies this shard's share of a DiffBatch and marks the
// interval tag applied here.
func (sh *shard) applyBatch(req *scl.Request, m *proto.DiffBatch, join *ackJoin, split bool) {
	s := sh.srv
	ready := req.Arrive()
	if split {
		// Fixed per-request service is charged once, as a ready offset
		// shared by every share (see replyFetch).
		ready += req.Svc()
	}
	// DiffBatch is normally one-way: there is nobody to answer if a pull
	// from an unreachable writer fails mid-apply. The batch still
	// completes — its tag is marked applied and parked fetches wake —
	// because the failed pull retained its ownership record, so the
	// woken fetch re-attempts the pull itself and surfaces a clean error
	// if the writer is still gone. Stalling the tag would deadlock every
	// fetcher quoting it.
	bytes, err := sh.applyDiffs(m.Tag.Writer, m.Diffs, &ready)
	if err == nil {
		var rb int
		rb, err = sh.applyRecords(m.Records, &ready)
		bytes += rb
	}
	_ = err // counted in PullFailures by pullFrom; the tag must proceed
	for _, pu := range m.OwnedPages {
		p := layout.PageID(pu)
		// Two writers can each believe they are a page's sole writer the
		// first time they share it. Pull the previous owner's retained
		// diffs before handing the claim over, so both writers' bytes
		// merge at the home (multiple-writer protocol).
		if prev, ok := sh.owner[p]; ok && prev != m.Tag.Writer {
			if err := sh.pullFrom(prev, []uint64{pu}, &ready); err != nil {
				// Leave the previous claim in place; the handover will
				// be re-attempted when the page is next fetched.
				continue
			}
		}
		sh.owner[p] = m.Tag.Writer
		s.stats.OwnedClaims.Add(1)
	}
	work := s.cpu.ApplyTime(bytes) + sh.drainPending()
	if !split {
		work += req.Svc()
	}
	done := sh.book(ready, work) + work
	sh.appliedAt[m.Tag] = done
	sh.wakeParked(m.Tag)
	// Forward to the standby AFTER the local apply (and its pulls),
	// then ack: a sender whose ack never comes re-sends the batch to
	// the promoted standby, and re-applying absolute-byte diffs is
	// idempotent.
	sh.replicate(m)
	if join != nil {
		join.complete(done)
	}
}

// applyFlush applies this shard's share of an EvictFlush.
func (sh *shard) applyFlush(req *scl.Request, m *proto.EvictFlush, join *ackJoin, split bool) {
	s := sh.srv
	ready := req.Arrive()
	if split {
		ready += req.Svc()
	}
	// One-way, like DiffBatch: a failed owner pull is counted and the
	// retained ownership record lets a later fetch retry it.
	bytes, _ := sh.applyDiffs(m.Writer, m.Diffs, &ready)
	work := s.cpu.ApplyTime(bytes) + sh.drainPending()
	if !split {
		work += req.Svc()
	}
	done := sh.book(ready, work) + work
	sh.replicate(m)
	if join != nil {
		join.complete(done)
	}
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
func (sh *shard) applyDiffs(writer uint32, diffs []proto.PageDiff, ready *vtime.Time) (int, error) {
	bytes := 0
	for i := range diffs {
		d := &diffs[i]
		p := layout.PageID(d.Page)
		if prev, ok := sh.owner[p]; ok && prev != writer {
			if err := sh.pullFrom(prev, []uint64{d.Page}, ready); err != nil {
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
func (sh *shard) applyRecords(recs []proto.StoreRecord, ready *vtime.Time) (int, error) {
	bytes := 0
	for i := range recs {
		r := &recs[i]
		p := sh.srv.geo.PageOf(layout.Addr(r.Addr))
		if prev, ok := sh.owner[p]; ok {
			if err := sh.pullFrom(prev, []uint64{uint64(p)}, ready); err != nil {
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
	for pf := range sh.parked {
		for tag := range pf.waiting {
			if tag.Writer == w {
				delete(pf.waiting, tag)
			}
		}
		if len(pf.waiting) == 0 {
			delete(sh.parked, pf)
			sh.replyFetch(pf.sub, pf.tags)
		}
	}
}

func (sh *shard) wakeParked(tag proto.IntervalTag) {
	for pf := range sh.parked {
		if _, ok := pf.waiting[tag]; !ok {
			continue
		}
		delete(pf.waiting, tag)
		if len(pf.waiting) == 0 {
			delete(sh.parked, pf)
			sh.replyFetch(pf.sub, pf.tags)
		}
	}
}

// pullOwned brings every lazily-owned page of the given lines and
// pages up to date by pulling retained diffs from their writers' cache
// agents — one batched pull per writer across the whole request, so a
// combined fetch never multiplies the pull round trips. The shard
// blocks on each pull — a fetch that hits an owned page pays the extra
// round trip, which is the single-writer optimization's bargain:
// writers release for free, occasional readers pay one pull.
func (sh *shard) pullOwned(lines []layout.LineID, pages []layout.PageID, ready *vtime.Time) error {
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
	sort.Slice(writers, func(i, j int) bool { return writers[i] < writers[j] })
	for _, w := range writers {
		if err := sh.pullFrom(w, byWriter[w], ready); err != nil {
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
func (sh *shard) pullFrom(w uint32, pages []uint64, ready *vtime.Time) error {
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
	doneAt, err := s.ep.Call(s.agentAddr(w), &proto.DiffPullReq{Pages: pages}, &resp, *ready)
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
	sh.replicate(&proto.EvictFlush{Writer: w, Diffs: resp.Diffs})
	if _, err := sh.applyDiffs(w, resp.Diffs, ready); err != nil {
		return err
	}
	*ready += s.cpu.ApplyTime(pulled)
	return nil
}

// replicate forwards an applied mutation to the warm standby and waits
// for its ack. The forward is per shard: this shard is the only sender
// of its pages' mutations, and the standby's identical shard mapping
// routes each forward wholly to the matching shard, so per-page apply
// order is preserved end to end.
//
// The forward is a synchronous call, not a one-way post: it sits inside
// the window between applying a sender's batch and acking the sender,
// so the sender's ack means the bytes are durable on BOTH replicas. A
// one-way forward lost to packet drop (or to this primary's own death)
// would leave the standby silently missing an interval — after a
// promotion, fetches quoting that interval's tag would park forever and
// reads of its pages would return stale bytes. With the call, a dropped
// forward is retried by the endpoint's retry layer, and a forward this
// primary cannot complete keeps the sender unacked, so the sender
// re-sends the batch to the promoted standby itself (re-applying
// absolute-byte diffs is idempotent). The round trip is wall-clock
// only: the ack carries no virtual cost, so replication stays invisible
// to virtual-time results, exactly like the one-way forward was.
func (sh *shard) replicate(m proto.Msg) {
	s := sh.srv
	if !s.hasReplica {
		return
	}
	var ack proto.Ack
	if _, err := s.ep.Call(s.replica, m, &ack, sh.cal.maxEnd); err != nil {
		if s.live != nil {
			s.live.ReplFailures.Add(1)
		}
		return
	}
	if s.live != nil {
		s.live.ReplBatches.Add(1)
		s.live.ReplBytes.Add(int64(len(proto.Encode(m))))
	}
}

// page returns the backing bytes of p for mutation, materializing it if
// absent: promoted from the cold tier, copied out of a sealed snapshot
// frame (the copy-on-write break — the fork's private page diverges from
// the shared frame here), or zero-filled. The returned page is always
// installed in the hot set.
func (sh *shard) page(p layout.PageID) []byte {
	if b, ok := sh.pages[p]; ok {
		if sh.tier != nil {
			sh.tier.touch(p)
			sh.tier.st.HotHits.Add(1)
		}
		return b
	}
	if sh.tier != nil {
		if b := sh.tier.promote(sh, p); b != nil {
			return b
		}
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
	if b, ok := sh.pages[p]; ok {
		if sh.tier != nil {
			sh.tier.touch(p)
			sh.tier.st.HotHits.Add(1)
		}
		return b
	}
	if sh.tier != nil {
		if b := sh.tier.promote(sh, p); b != nil {
			return b
		}
	}
	if blob, ok := sh.srv.snaps.lookup(p); ok {
		if sh.scratch == nil {
			sh.scratch = make([]byte, sh.srv.geo.PageSize)
		}
		decompressPage(sh.scratch, blob)
		sh.pending += sh.srv.cpu.ApplyTime(len(sh.scratch))
		return sh.scratch
	}
	// Never-materialized page: serve zeros WITHOUT hosting it. A pure
	// read must not install — a speculative fetch past the end of a live
	// buffer (the prefetcher runs one line ahead of a stream) would
	// otherwise pin a zero page over the sealed frames a later fork
	// registration maps at this address.
	if sh.scratch == nil {
		sh.scratch = make([]byte, sh.srv.geo.PageSize)
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

// failParked answers every parked fetch on this shard with a typed
// error (shutdown or peer death). Split halves complete their join —
// the join replies once all shards have reported, whether by data or
// by failure.
func (sh *shard) failParked(code uint16, why string) {
	for pf := range sh.parked {
		err := fmt.Errorf("memserver: %s with fetch pending", why)
		if pf.sub.seal != nil {
			pf.sub.seal.join.complete(sh.id, sh.cal.maxEnd, err, code)
			continue
		}
		if pf.sub.join != nil {
			pf.sub.join.complete(sh.srv, sh.id, sh.cal.maxEnd, err, code)
			continue
		}
		pf.sub.req.ReplyErrorCode(code, err, sh.cal.maxEnd)
	}
	sh.parked = make(map[*parkedFetch]struct{})
}
