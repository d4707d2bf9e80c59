package core

import (
	"fmt"
	"sync"

	"repro/internal/layout"
	"repro/internal/manager"
	"repro/internal/pagecache"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vtime"
)

var shutdownMsg proto.Shutdown

// Thread is one Samhita compute thread: a goroutine with its own fabric
// endpoint, virtual clock and local software cache. (As in the paper,
// each "thread" is really an independent process with no hardware-
// coherent memory shared with its peers; everything flows through the
// global address space.)
type Thread struct {
	rt     *Runtime
	id     int
	p      int
	node   uint32 // compute node (placement)
	writer uint32 // protocol writer id (thread id + 1)

	ep    scl.Endpoint
	clock *vtime.Clock
	st    stats.Thread
	cache *pagecache.Cache

	// mark is the virtual time up to which the clock has been attributed
	// to a bucket; everything between mark and Now() is unattributed.
	mark vtime.Time
	// frozen, when set by StopMeasurement, is the record reported
	// instead of whatever accumulates afterwards.
	frozen *stats.Thread

	// spanBuf is the reusable byte scratch the float64 span accessors
	// marshal through (grown on demand, never shrunk).
	spanBuf []byte

	// lockDepth tracks consistency-region nesting: stores while >0 are
	// instrumented into the fine-grained log.
	lockDepth int
	// lastSeen is the highest manager notice sequence applied.
	lastSeen uint64

	// The messages of a mutex passage, kept here because a message handed
	// to an Endpoint escapes: a local one is a heap object per call. Each
	// is set whole before its call, so nothing of the last passage (and no
	// tail field a decode would leave alone) survives into the next.
	lockReq   proto.LockReq
	lockResp  proto.LockResp
	unlockReq proto.UnlockReq
	// pageData is a peer grant's lock-carried extents, emptied once the
	// grant is posted (they alias the cache).
	pageData []proto.PagePayload

	// tenureCold marks pages this thread had to fetch while inside a
	// consistency region, or received ready-made with a peer-to-peer
	// grant. A successor on the handoff chain is very likely cold on
	// exactly these pages, so the releasing unlock ships its copy of the
	// record-bearing ones with the grant (entry consistency: the data
	// guarded by the lock travels with the lock). Warm holders never
	// fault in-region, keep this empty, and ship nothing. Main-goroutine
	// only.
	tenureCold map[layout.PageID]bool

	// arena is the thread-local allocator (strategy one).
	arenaNext      layout.Addr
	arenaRemaining int

	// allocSeq numbers this thread's allocation-plane requests (alloc
	// and free). A retry across manager failover re-sends the same Seq,
	// and the manager's per-writer dedup answers it with the original
	// outcome instead of allocating (or freeing) twice. Main-goroutine
	// only; starts at 1 so 0 stays "no dedup".
	allocSeq uint64

	// barEpoch counts this thread's arrivals per barrier (1-based).
	// Stamped into BarrierReq only when the manager is replicated, so a
	// re-issued arrival after a leader failover is deduplicated against
	// the round the replicated log already counted it in. Main-goroutine
	// only.
	barEpoch map[uint32]uint64

	// ho is the peer-to-peer lock-handoff state (a manager on a
	// sequenced fabric). The cache agent receives NextWaiter and
	// LockGrant posts; the main goroutine consumes them — hence the
	// mutex. All maps stay empty unless the manager detaches a waiter.
	ho struct {
		mu         sync.Mutex
		succ       map[uint32]*succTrain      // lock -> announcement train to forward grants along
		grants     map[uint32]grantMsg        // lock -> grant that arrived before the waiter parked
		grantWait  map[uint32]chan grantMsg   // lock -> parked waiter's wake channel
		heldGen    map[uint32]uint64          // lock -> tenure gen while this thread holds it
		acquireSeq map[uint32]uint64          // lock -> lastSeen right after acquiring it
		seenTags   map[proto.IntervalTag]bool // intervals applied inline, dedupe redelivery
	}

	// actor is the trace label ("thread 3").
	actor string
}

// grantMsg is a received LockGrant plus its virtual arrival time.
type grantMsg struct {
	g  *proto.LockGrant
	at vtime.Time
}

// succTrain is the client's copy of an announcement train: the queued
// waiters this holder (and the holders after it) will pass the lock to
// directly. gen fences it to one tenure — the train is only acted on if
// it matches the tenure the unlock closes; seq is the anchor horizon the
// train's notice batches were composed at; inline accumulates the
// closing intervals of the train holders so far (oldest first), which
// every later successor needs on top of its manager-composed batch.
// Both lists stay in wire form (aliasing the announcement or grant body
// they arrived in): this thread only forwards them.
type succTrain struct {
	gen    uint64
	seq    uint64
	train  proto.Train
	inline proto.NoticeList
}

var _ vm.Thread = (*Thread)(nil)

func (t *Thread) initCache() {
	t.ho.succ = make(map[uint32]*succTrain)
	t.ho.grants = make(map[uint32]grantMsg)
	t.ho.grantWait = make(map[uint32]chan grantMsg)
	t.ho.heldGen = make(map[uint32]uint64)
	t.ho.acquireSeq = make(map[uint32]uint64)
	t.ho.seenTags = make(map[proto.IntervalTag]bool)
	t.tenureCold = make(map[layout.PageID]bool)
	t.barEpoch = make(map[uint32]uint64)
	depth := 0
	if t.rt.cfg.Prefetch {
		depth = t.rt.cfg.PrefetchDepth
		if depth <= 0 {
			depth = 1
		}
	}
	t.cache = pagecache.New(pagecache.Config{
		Geo:           t.rt.cfg.Geo,
		CPU:           t.rt.cfg.CPU,
		CapacityLines: t.rt.cfg.CacheLines,
		PrefetchDepth: depth,
		Writer:        t.writer,
		NoLazyOwner:   t.rt.standbyEnabled(),
		Gate:          t.rt.gate,
	}, (*threadBackend)(t), t.clock, &t.st)
}

// ID implements vm.Thread.
func (t *Thread) ID() int { return t.id }

// P implements vm.Thread.
func (t *Thread) P() int { return t.p }

// Clock implements vm.Thread.
func (t *Thread) Clock() vtime.Time { return t.clock.Now() }

// Stats implements vm.Thread.
func (t *Thread) Stats() *stats.Thread { return &t.st }

// Cache exposes the thread's software cache (used by tests and the
// bench harness).
func (t *Thread) Cache() *pagecache.Cache { return t.cache }

// register announces the thread to the manager before the run starts.
func (t *Thread) register() error {
	var ack proto.Ack
	at, err := t.rt.mgr.call(t.ep, &proto.RegisterReq{Thread: t.writer, Node: t.node}, &ack, t.clock.Now())
	if err != nil {
		return err
	}
	t.clock.AdvanceTo(at)
	t.st.MsgsSent++
	t.mark = t.clock.Now() // registration is setup, not measured time
	return nil
}

// finish attributes any trailing unmeasured time to the compute bucket
// and quiesces the thread's traffic. The endpoint stays open — the
// cache agent keeps serving diff pulls until the Runtime retires the
// thread after every body has returned.
func (t *Thread) finish() {
	t.settleCompute()
	// The drain counts every prefetch still in flight unused, on each
	// record that counted its issue: the live one, and the frozen one
	// for a prefetch in flight at StopMeasurement.
	t.cache.DrainPrefetches()
	if t.frozen != nil {
		t.st = *t.frozen
	}
}

// reportDeath tells the manager this thread's body died (a recovered
// panic), and the manager reaps it as it reaps a thread whose lease ran
// out: the peers parked at a barrier it will never reach, or queued for
// a lock it holds, are released or failed with proto.ErrPeerDied instead
// of waiting for it. Best effort: a thread that died because its node or
// the manager is gone has nobody to tell, and its lease, when liveness is
// on, reaps it instead.
func (t *Thread) reportDeath() {
	_, _ = t.rt.mgr.send(t.ep, &proto.ReclaimEvent{Thread: t.writer, Node: uint32(ThreadNode(int(t.writer)))}, nil, t.clock.Now())
}

// flushOwned pushes every still-retained owned diff to its home so the
// homes are self-sufficient once this thread's agent goes away. Called
// by the Runtime after the thread's body has returned. A flush that
// cannot be delivered (the thread's node was crash-killed mid-run) is
// an error for the Runtime to report, not a panic: the rest of the
// retirement must still happen.
func (t *Thread) flushOwned() error {
	at, err := t.flushDiffs(t.cache.Owned().DrainAll(), t.clock.Now(), nil)
	if err != nil {
		return fmt.Errorf("final owned flush: %w", err)
	}
	t.clock.AdvanceTo(at)
	return nil
}

// ResetMeasurement implements vm.Thread. The new record leaves out the
// outcomes of prefetches still in flight, as it leaves out their issue.
func (t *Thread) ResetMeasurement() {
	t.st = stats.Thread{ID: t.id}
	t.cache.UncountPrefetches()
	t.frozen = nil
	t.mark = t.clock.Now()
}

// StopMeasurement implements vm.Thread. The outcomes of prefetches
// still in flight land on the frozen record too, as their issue did.
func (t *Thread) StopMeasurement() {
	t.settleCompute()
	snap := t.st.Snapshot()
	t.frozen = &snap
	t.cache.FreezePrefetches(t.frozen)
}

// SleepUntil implements vm.Thread: the open-loop idle wait. Work done
// since the last settle is attributed to compute first, then the jump
// to tm (if any) is attributed to idle time so deliberate slack never
// inflates the service-time buckets. Advancing a thread's own clock
// sends no messages, so the sequenced fabric stays deterministic.
func (t *Thread) SleepUntil(tm vtime.Time) {
	t.settleCompute()
	now := t.clock.Now()
	if tm <= now {
		return
	}
	t.clock.AdvanceTo(tm)
	t.st.IdleTime += t.clock.Now() - now
	t.mark = t.clock.Now()
}

// settleCompute attributes [mark, now) to compute time.
func (t *Thread) settleCompute() {
	now := t.clock.Now()
	t.st.ComputeTime += now - t.mark
	t.mark = now
}

// settleSync attributes [mark, now) to synchronization time.
func (t *Thread) settleSync() {
	now := t.clock.Now()
	t.st.SyncTime += now - t.mark
	t.mark = now
}

// fail aborts the thread; accessor errors are the DSM equivalent of a
// fatal segmentation fault. The panic value is an error wrapping err,
// so the run's failure stays matchable with errors.Is (peer death,
// shutdown, unreachability) after the runtime recovers it.
func (t *Thread) fail(op string, err error) {
	panic(fmt.Errorf("samhita thread %d: %s: %w", t.id, op, err))
}

// exchange is how the thread speaks to a role: role.send of m at virtual
// time at (answered into resp, or one-way with resp nil), failing the
// thread with op on error, advancing its clock to the completion and
// counting the message.
func (t *Thread) exchange(op string, r *role, m, resp proto.Msg, at vtime.Time) {
	done, err := r.send(t.ep, m, resp, at)
	if err != nil {
		t.fail(op, err)
	}
	t.clock.AdvanceTo(done)
	t.st.MsgsSent++
}

// fanOut calls f once per home, in home order, for every home that homes
// a page of [first, first+npages) or the page of one of items, with that
// home's items in their order. The range walk stops once it has found
// every home. Items on one home (an evicted line) go out as they are.
func fanOut[T any](geo layout.Geometry, first layout.PageID, npages uint64, items []T, page func(*T) uint64, f func(home int, part []T)) {
	hit := make([]bool, geo.NumServers)
	found := 0
	for i := uint64(0); i < npages && found < geo.NumServers; i++ {
		if h := geo.HomeOf(first + layout.PageID(i)); !hit[h] {
			hit[h] = true
			found++
		}
	}
	homeOf := func(i int) int { return geo.HomeOf(layout.PageID(page(&items[i]))) }
	mixed := false
	for i := range items {
		hit[homeOf(i)] = true
		mixed = mixed || homeOf(i) != homeOf(0)
	}
	for h := range hit {
		if !hit[h] {
			continue
		}
		part := items
		if mixed || len(items) > 0 && homeOf(0) != h {
			part = nil
			for i := range items {
				if homeOf(i) == h {
					part = append(part, items[i])
				}
			}
		}
		f(h, part)
	}
}

// flushDiffs ships diffs to their homes, one EvictFlush per home in home
// order, each issued when the one before it completed: a send, or with
// ack set a round trip (role.send). It returns the virtual time the last
// one completed, or stops at the first that fails.
func (t *Thread) flushDiffs(diffs []proto.PageDiff, at vtime.Time, ack proto.Msg) (vtime.Time, error) {
	var err error
	fanOut(t.rt.cfg.Geo, 0, 0, diffs, func(d *proto.PageDiff) uint64 { return d.Page }, func(home int, part []proto.PageDiff) {
		if err != nil {
			return
		}
		var done vtime.Time
		if done, err = t.rt.homes[home].send(t.ep, &proto.EvictFlush{Writer: t.writer, Diffs: part}, ack, at); err == nil {
			at = done
			t.st.MsgsSent++
		}
	})
	return at, err
}

// ---------------------------------------------------------------------
// Memory accessors (vm.Thread).

// Compute charges pure arithmetic to the virtual clock.
func (t *Thread) Compute(flops int) {
	if flops > 0 {
		t.clock.Advance(vtime.Time(flops) * t.rt.cfg.CPU.FlopTime)
	}
}

// ReadBytes implements vm.Thread.
func (t *Thread) ReadBytes(a vm.Addr, buf []byte) {
	if err := t.cache.Read(a, buf); err != nil {
		t.fail("read", err)
	}
}

// inRegion reports whether the thread's stores are consistency-region
// stores, logged as fine-grained records: it holds at least one lock.
func (t *Thread) inRegion() bool { return t.lockDepth > 0 }

// WriteBytes implements vm.Thread.
func (t *Thread) WriteBytes(a vm.Addr, data []byte) {
	if err := t.cache.Write(a, data, t.inRegion()); err != nil {
		t.fail("write", err)
	}
}

// ReadFloat64 implements vm.Thread.
func (t *Thread) ReadFloat64(a vm.Addr) float64 {
	var b [8]byte
	t.ReadBytes(a, b[:])
	return vm.GetFloat64(b[:])
}

// WriteFloat64 implements vm.Thread.
func (t *Thread) WriteFloat64(a vm.Addr, v float64) {
	var b [8]byte
	vm.PutFloat64(b[:], v)
	t.WriteBytes(a, b[:])
}

// ReadInt64 implements vm.Thread.
func (t *Thread) ReadInt64(a vm.Addr) int64 {
	var b [8]byte
	t.ReadBytes(a, b[:])
	return vm.GetInt64(b[:])
}

// WriteInt64 implements vm.Thread.
func (t *Thread) WriteInt64(a vm.Addr, v int64) {
	var b [8]byte
	vm.PutInt64(b[:], v)
	t.WriteBytes(a, b[:])
}

// span returns the reusable marshalling scratch, at least n bytes long.
func (t *Thread) span(n int) []byte {
	if cap(t.spanBuf) < n {
		t.spanBuf = make([]byte, n)
	}
	return t.spanBuf[:n]
}

// ReadFloat64s implements vm.Thread: one bulk cache access for the
// whole span (one residency walk per page, AccessTime once plus a
// per-byte term) instead of one access per element.
func (t *Thread) ReadFloat64s(a vm.Addr, dst []float64) {
	if len(dst) == 0 {
		return
	}
	b := t.span(8 * len(dst))
	if err := t.cache.ReadSpan(a, b); err != nil {
		t.fail("read-span", err)
	}
	for i := range dst {
		dst[i] = vm.GetFloat64(b[8*i:])
	}
}

// WriteFloat64s implements vm.Thread: the span-write fast path. Beyond
// the bulk cost model, the cache tracks the written extents so the next
// release can publish them and peers invalidate partially instead of
// refetching whole falsely-shared pages; in consistency regions the
// span logs one store record per contiguous page chunk.
func (t *Thread) WriteFloat64s(a vm.Addr, src []float64) {
	if len(src) == 0 {
		return
	}
	b := t.span(8 * len(src))
	for i, v := range src {
		vm.PutFloat64(b[8*i:], v)
	}
	if err := t.cache.WriteSpan(a, b, t.inRegion()); err != nil {
		t.fail("write-span", err)
	}
}

// AddFloat64 implements vm.Thread: a fused read-modify-write through
// one cache access (and one store record in consistency regions).
func (t *Thread) AddFloat64(a vm.Addr, v float64) float64 {
	var sum float64
	err := t.cache.ReadModifyWrite8(a, t.inRegion(), func(b []byte) {
		sum = vm.GetFloat64(b) + v
		vm.PutFloat64(b, sum)
	})
	if err != nil {
		t.fail("add", err)
	}
	return sum
}

// AddInt64 implements vm.Thread.
func (t *Thread) AddInt64(a vm.Addr, v int64) int64 {
	var sum int64
	err := t.cache.ReadModifyWrite8(a, t.inRegion(), func(b []byte) {
		sum = vm.GetInt64(b) + v
		vm.PutInt64(b, sum)
	})
	if err != nil {
		t.fail("add", err)
	}
	return sum
}

// ---------------------------------------------------------------------
// Allocation (vm.Thread).

// Malloc implements vm.Thread: the thread-local arena path (allocation
// strategy one). Arena chunks come from the manager rarely; the common
// case is a pure-local bump allocation with no communication, and arena
// chunks are cache-line aligned so threads never false-share them.
func (t *Thread) Malloc(n int) vm.Addr {
	if n <= 0 {
		t.fail("malloc", fmt.Errorf("non-positive size %d", n))
	}
	n = int(layout.AlignUp(layout.Addr(n), 16))
	if n > t.arenaRemaining {
		chunk := arenaChunk
		if n > chunk {
			chunk = int(layout.AlignUp(layout.Addr(n), t.rt.cfg.Geo.LineSize()))
		}
		addr := t.managerAlloc(uint64(chunk), proto.AllocArenaChunk)
		t.arenaNext = addr
		t.arenaRemaining = chunk
	}
	a := t.arenaNext
	t.arenaNext += layout.Addr(n)
	t.arenaRemaining -= n
	t.st.ArenaAllocs++
	return a
}

// GlobalAlloc implements vm.Thread: manager-served allocation, using the
// shared zone for medium requests and striping across memory servers for
// large ones (strategies two and three).
func (t *Thread) GlobalAlloc(n int) vm.Addr {
	if n <= 0 {
		t.fail("global alloc", fmt.Errorf("non-positive size %d", n))
	}
	strategy := proto.AllocShared
	if n >= t.rt.cfg.StripeMin {
		strategy = proto.AllocStriped
	}
	t.st.SharedAllocs++
	return t.managerAlloc(uint64(n), strategy)
}

func (t *Thread) managerAlloc(size uint64, strategy uint8) vm.Addr {
	start := t.clock.Now()
	t.allocSeq++
	var resp proto.AllocResp
	t.exchange("alloc", t.rt.mgr, &proto.AllocReq{
		Thread: t.writer, Size: size, Align: 16, Strategy: strategy, Seq: t.allocSeq,
	}, &resp, start)
	if tr := t.rt.cfg.Trace; tr != nil {
		tr.Span(t.actor, trace.CatAlloc, "alloc", start, t.clock.Now(), map[string]any{"bytes": size})
	}
	return layout.Addr(resp.Addr)
}

// Free implements vm.Thread. Arena memory is reclaimed wholesale when
// the arena chunk itself is released, so arena frees are no-ops (the
// paper's arenas behave the same way); manager-served allocations are
// returned to their zone.
//
// Freeing a forked range is two-phase (see proto.FreeReq): the manager
// withholds the zone space while this thread unmaps the range at every
// home, then a second, Unmapped free commits it. Without the barrier,
// first-fit reuse of the striped space would race the homes' stale
// fork mappings and resolve fresh allocations to dead snapshot frames.
// Either flavour of free may also release snapshots whose refcount hit
// zero; the homes are told to drop their sealed frames.
func (t *Thread) Free(a vm.Addr) {
	if a < manager.SharedZoneBase {
		return
	}
	t.allocSeq++
	var resp proto.FreeResp
	t.exchange("free", t.rt.mgr, &proto.FreeReq{Thread: t.writer, Addr: uint64(a), Seq: t.allocSeq}, &resp, t.clock.Now())
	for resp.Fork || len(resp.Release) > 0 {
		// One acked ForkUnmap round to every home of the range drops the
		// fork mapping and its materialized pages (when resp.Fork) and/or
		// the sealed frames of released snapshots.
		first := t.rt.cfg.Geo.PageOf(layout.Addr(a))
		m := &proto.ForkUnmap{Release: resp.Release}
		if resp.Fork {
			m.Base, m.NPages = uint64(a), resp.NPages
			// Lines this thread cached through the dying fork would shadow
			// whatever the striped zone reuses the range for.
			t.cache.DropRange(first, resp.NPages)
		}
		t.ackedAtHomes("free", first, resp.NPages, m)
		if !resp.Fork {
			return
		}
		// Commit: every home acked the unmap, so the manager may return
		// the range to the zone. The commit itself can release snapshots
		// that were sealed FROM the dying fork, which loops us back for
		// one more (release-only) fan-out.
		t.allocSeq++
		var next proto.FreeResp
		t.exchange("free", t.rt.mgr, &proto.FreeReq{Thread: t.writer, Addr: uint64(a), Seq: t.allocSeq, Unmapped: true}, &next, t.clock.Now())
		resp = next
	}
}

// ackedAtHomes round-trips m to every home of [first, first+npages), in
// home order, one after another.
func (t *Thread) ackedAtHomes(op string, first layout.PageID, npages uint64, m proto.Msg) {
	fanOut(t.rt.cfg.Geo, first, npages, nil, nil, func(home int, _ []struct{}) {
		t.exchange(op, t.rt.homes[home], m, &proto.Ack{}, t.clock.Now())
	})
}

// ---------------------------------------------------------------------
// Address-space snapshots and copy-on-write forks (vm.Thread).

// SnapshotAS implements vm.Thread: seal the n bytes at base into an
// immutable snapshot. The thread first flushes its own dirty pages in
// the range home (eviction-style — no interval is consumed) so the seal
// captures its unreleased writes, then asks the manager for a snapshot
// id, then tells every home in the range to freeze its share — quoting
// the same interval tags a fetch would, so no page seals before the
// released intervals this thread knows about have been applied. The
// seal fan-out is acked: when SnapshotAS returns, every sealed frame
// exists and a ForkAS handed to any thread is safe to use.
func (t *Thread) SnapshotAS(base vm.Addr, n int) uint64 {
	if n <= 0 {
		t.fail("snapshot", fmt.Errorf("non-positive size %d", n))
	}
	t.settleCompute()
	start := t.clock.Now()
	geo := t.rt.cfg.Geo
	if geo.PageOffset(layout.Addr(base)) != 0 {
		t.fail("snapshot", fmt.Errorf("base %#x is not page-aligned", uint64(base)))
	}
	first := geo.PageOf(layout.Addr(base))
	npages := uint64((n + geo.PageSize - 1) / geo.PageSize)
	if err := t.cache.FlushRange(first, npages); err != nil {
		t.fail("snapshot", err)
	}
	needs := t.cache.RangeNeeds(first, npages)

	t.allocSeq++
	var resp proto.SnapshotASResp
	t.exchange("snapshot", t.rt.mgr, &proto.SnapshotASReq{
		Thread: t.writer, Base: uint64(base), NPages: npages, Seq: t.allocSeq,
	}, &resp, t.clock.Now())
	fanOut(geo, first, npages, needs, func(n *proto.PageNeed) uint64 { return n.Page }, func(home int, part []proto.PageNeed) {
		t.exchange("snapshot", t.rt.homes[home], &proto.SealAS{
			Snap: resp.Snap, Base: uint64(base), NPages: npages, Needs: part,
		}, &proto.Ack{}, t.clock.Now())
	})
	// Lines fetched from here on belong to the new epoch; tests tell a
	// fork's post-snapshot fetches from stale pre-snapshot residency.
	t.cache.BumpSnapshotEpoch()
	if tr := t.rt.cfg.Trace; tr != nil {
		tr.Span(t.actor, trace.CatAlloc, "snapshot", start, t.clock.Now(),
			map[string]any{"pages": npages, "snap": resp.Snap})
	}
	t.settleSync()
	return resp.Snap
}

// ForkAS implements vm.Thread: materialize a copy-on-write image of a
// sealed snapshot. O(1) in the image size — one manager allocation plus
// one acked ForkMap per home server; no page bytes move until first
// use. The manager allocates the fork range stripe-group aligned, so
// every fork page is homed by the server holding the congruent sealed
// frame.
func (t *Thread) ForkAS(snap uint64) vm.Addr {
	t.settleCompute()
	start := t.clock.Now()
	t.allocSeq++
	var resp proto.ForkASResp
	t.exchange("fork", t.rt.mgr, &proto.ForkASReq{Thread: t.writer, Snap: snap, Seq: t.allocSeq}, &resp, t.clock.Now())
	t.st.SharedAllocs++
	first := t.rt.cfg.Geo.PageOf(layout.Addr(resp.Base))
	// A stream through a neighbouring buffer may have prefetched the
	// just-allocated range as zero lines; they would shadow the sealed
	// frames.
	t.cache.DropRange(first, resp.NPages)
	// Acked registration at every home in the range: a read through the
	// fork issued after ForkAS returns must find the mapping.
	t.ackedAtHomes("fork", first, resp.NPages, &proto.ForkMap{
		Snap: snap, Base: resp.Base, OrigBase: resp.OrigBase, NPages: resp.NPages,
	})
	if tr := t.rt.cfg.Trace; tr != nil {
		tr.Span(t.actor, trace.CatAlloc, "fork", start, t.clock.Now(),
			map[string]any{"pages": resp.NPages, "snap": snap})
	}
	t.settleSync()
	return layout.Addr(resp.Base)
}

// ---------------------------------------------------------------------
// Release/acquire plumbing shared by the synchronization objects.

// finishRelease computes the deferred shared-page diffs and ships one
// DiffBatch per home (shipBatches).
func (t *Thread) finishRelease(rs *pagecache.ReleaseSet) {
	start := t.clock.Now()
	t.cache.FinishRelease(rs)
	t.shipBatches(rs, start, func(*proto.DiffBatch) bool { return true })
}

// shipBatches ships the release's batches that want selects, one per
// home, in home order; a fetch racing ahead of a batch parks at the home
// on its tag. Each batch is issued one send overhead after the last (the
// NIC serializes them) and the clock ends at the latest completion, a
// post's or, to replicated homes, an ack's. start is when the release's
// work began, for the trace.
func (t *Thread) shipBatches(rs *pagecache.ReleaseSet, start vtime.Time, want func(*proto.DiffBatch) bool) {
	homes := 0
	issue := t.clock.Now()
	for home, b := range rs.ByHome {
		if b == nil || !want(b) {
			continue
		}
		t.exchange("diff batch", t.rt.homes[home], b, nil, issue)
		issue += t.rt.cfg.Link.SendOverhead
		homes++
	}
	if tr := t.rt.cfg.Trace; tr != nil && homes > 0 {
		tr.Span(t.actor, trace.CatRelease, "release", start, t.clock.Now(),
			map[string]any{"pages": len(rs.Pages), "records": len(rs.Records), "homes": homes})
	}
}

// carriesRecords and carriesNoRecords split a release's batches for
// Unlock: the ones with store records go ahead of the notice.
func carriesRecords(b *proto.DiffBatch) bool   { return len(b.Records) > 0 }
func carriesNoRecords(b *proto.DiffBatch) bool { return len(b.Records) == 0 }

// releaseAcquire is RegC's rule for a barrier and a cond wait: ship the
// interval, then acquire, with the manager call req builds made inline
// and stamped with the time the release started, so the round trip
// overlaps the diff work (the sequencer delivers nothing while the thread
// holds its token). Records have no tag for a fetch to park on, so a
// release with records is stamped after its batches instead.
func (t *Thread) releaseAcquire(op string, resp proto.Msg, req func(rs *pagecache.ReleaseSet) proto.Msg) {
	t.clock.Advance(t.rt.cfg.CPU.LockTime)
	rs := t.cache.BeginRelease()
	at := t.clock.Now()
	t.finishRelease(rs)
	if len(rs.Records) > 0 {
		at = t.clock.Now()
	}
	t.exchange(op, t.rt.mgr, req(rs), resp, at)
}

// applyNotices consumes acquire-side notices and advances the seen
// horizon. Intervals already applied inline from a peer-to-peer
// LockGrant are filtered here — the manager redelivers them once (the
// holder's closing interval is posted to the directory after the grant
// was composed, so it lands above the successor's horizon), and the
// redelivery can arrive through any acquire path: a barrier response,
// a cond-wait response, or a later lock grant. Re-applying the stale
// records in place would roll shared words back over newer stores.
func (t *Thread) applyNotices(seq uint64, notices []proto.Notice) {
	t.ho.mu.Lock()
	if len(t.ho.seenTags) > 0 {
		filtered := make([]proto.Notice, 0, len(notices))
		for _, n := range notices {
			if t.ho.seenTags[n.Tag] {
				delete(t.ho.seenTags, n.Tag)
				continue
			}
			filtered = append(filtered, n)
		}
		notices = filtered
	}
	t.ho.mu.Unlock()
	if err := t.cache.ApplyNotices(notices); err != nil {
		t.fail("apply notices", err)
	}
	if seq > t.lastSeen {
		t.lastSeen = seq
	}
}

// awaitGrant parks the thread until the LockGrant for a queued lock
// acquisition arrives (forwarded by the releasing holder, or composed
// centrally by the manager).
func (t *Thread) awaitGrant(lock uint32) grantMsg {
	t.ho.mu.Lock()
	if gm, ok := t.ho.grants[lock]; ok {
		delete(t.ho.grants, lock)
		t.ho.mu.Unlock()
		return gm
	}
	ch := make(chan grantMsg, 1)
	t.ho.grantWait[lock] = ch
	t.ho.mu.Unlock()
	return t.rt.sleep(ch)
}

// endTenure drops this thread's handoff state for lock and returns the
// train a handoff may follow, with the tenure's generation: one fenced
// to this tenure, still naming a successor, in a tenure that saw no
// other acquire (else its pre-composed backlogs are incomplete), or nil.
func (t *Thread) endTenure(lock uint32) (*succTrain, uint64) {
	t.ho.mu.Lock()
	defer t.ho.mu.Unlock()
	ss := t.ho.succ[lock]
	gen, held := t.ho.heldGen[lock]
	aseq := t.ho.acquireSeq[lock]
	delete(t.ho.succ, lock)
	delete(t.ho.heldGen, lock)
	delete(t.ho.acquireSeq, lock)
	if ss != nil && held && ss.gen == gen && t.lastSeen == aseq && ss.train.Len() > 0 {
		return ss, gen
	}
	return nil, 0
}

// applyGrant consumes a LockGrant: this thread's notice backlog, the
// head of the grant's train, plus — on a peer-to-peer handoff — the
// closing intervals of the train holders since the anchor, riding Inline
// in release order. Those intervals reach the manager's directory too
// (via each holder's UnlockReq), so this thread WILL see them again in a
// later acquire's notice batch; seenTags (checked in applyNotices)
// dedupes the redelivery wherever it surfaces. If the train names waiters
// after this thread, the rest is installed so this thread's own release
// can keep passing the lock waiter-to-waiter.
func (t *Thread) applyGrant(lock uint32, g *proto.LockGrant) {
	own, rest := g.Train.Head()
	t.applyNotices(g.Seq, own.Notices.Notices())
	// Install lock-carried extents before the inline intervals: the
	// shipped bytes are the releaser's post-write copy (newer than every
	// interval this grant names), so inline records replaying on top are
	// idempotent, and this holder's region stores to them won't fault
	// mid-tenure on the serialized handoff chain. A page installed here
	// stays a shipping candidate at this holder's own release, which
	// ships the bytes its own records wrote. The cache refuses a copy the
	// releaser's horizon g.Seq cannot vouch for.
	for pd := g.PageData; len(pd) > 0; {
		p, n := pd[0].Page, 1
		for n < len(pd) && pd[n].Page == p {
			n++
		}
		t.cache.InstallGrantExtents(layout.PageID(p), pd[:n], g.Seq)
		// Marked even when this thread was already warm: a shipped page
		// means the chain is in cold mode, and the next successor down
		// the train may still need it.
		t.tenureCold[layout.PageID(p)] = true
		pd = pd[n:]
	}
	inline := g.Inline.Notices()
	if len(inline) > 0 {
		if err := t.cache.ApplyNotices(inline); err != nil {
			t.fail("apply handoff intervals", err)
		}
	}
	t.ho.mu.Lock()
	for _, n := range inline {
		t.ho.seenTags[n.Tag] = true
	}
	t.ho.heldGen[lock] = g.Gen
	t.ho.acquireSeq[lock] = t.lastSeen
	if rest.Len() > 0 {
		t.ho.succ[lock] = &succTrain{gen: g.Gen, seq: g.Seq, train: rest, inline: g.Inline}
	}
	t.ho.mu.Unlock()
}

// ---------------------------------------------------------------------
// Synchronization objects.

// traceSince records a span of what on sync object id, from start to now,
// when tracing is on.
func (t *Thread) traceSince(start vtime.Time, cat trace.Category, what string, id uint32) {
	if tr := t.rt.cfg.Trace; tr != nil {
		tr.Span(t.actor, cat, fmt.Sprintf("%s %d", what, id), start, t.clock.Now(), nil)
	}
}

// smhMutex is a Samhita mutual-exclusion lock. Lock is an acquire point;
// Unlock is a release point carrying the interval's write notice; the
// span between them is a consistency region whose stores are propagated
// as fine-grained updates.
type smhMutex struct {
	rt *Runtime
	id uint32
}

// Lock implements vm.Mutex.
func (m *smhMutex) Lock(th vm.Thread) {
	t := th.(*Thread)
	t.settleCompute()
	defer t.traceSince(t.clock.Now(), trace.CatLock, "lock", m.id)
	t.clock.Advance(t.rt.cfg.CPU.LockTime)
	t.lockReq = proto.LockReq{Lock: m.id, Thread: t.writer, LastSeen: t.lastSeen}
	t.lockResp = proto.LockResp{}
	resp := &t.lockResp
	t.exchange("lock", t.rt.mgr, &t.lockReq, resp, t.clock.Now())
	t.st.LockOps++
	if resp.Queued {
		// Detached wait (peer-to-peer handoff mode): the lock is
		// contended and the grant arrives as a one-way LockGrant from
		// the releasing holder (or the manager as fallback).
		gm := t.awaitGrant(m.id)
		if gm.g.Code != 0 {
			t.fail("lock", fmt.Errorf("lock %d: %w", m.id, proto.CodeErr(gm.g.Code)))
		}
		t.clock.AdvanceTo(gm.at)
		t.applyGrant(m.id, gm.g)
	} else {
		t.applyNotices(resp.Seq, resp.Notices)
		if resp.Gen != 0 {
			t.ho.mu.Lock()
			t.ho.heldGen[m.id] = resp.Gen
			t.ho.acquireSeq[m.id] = t.lastSeen
			t.ho.mu.Unlock()
		}
	}
	t.lockDepth++
	t.settleSync()
}

// Unlock implements vm.Mutex.
func (m *smhMutex) Unlock(th vm.Thread) {
	t := th.(*Thread)
	if t.lockDepth <= 0 {
		t.fail("unlock", fmt.Errorf("unlock without matching lock"))
	}
	t.settleCompute()
	defer t.traceSince(t.clock.Now(), trace.CatLock, "unlock", m.id)
	t.clock.Advance(t.rt.cfg.CPU.LockTime)
	// Pipelined release: the write notice (the peer grant's Inline and
	// the UnlockReq) is issued before the diffs are even computed, so the
	// next holder is granted at once — neither the unlock ack nor the
	// diff work sits on the serialized lock-handoff chain — and any fetch
	// that races ahead of the diffs parks at the home on this interval's
	// tag until the batches behind the notice arrive.
	//
	// Exception: a batch carrying fine-grained records must leave BEFORE
	// the notice, with the diffs bound for the same home. Records are
	// applied in place at acquirers without invalidating the page, so no
	// tag-parked fetch orders this batch against the next holder's at the
	// home — arrival order is the only order, and announcing first would
	// let the next holder's batch overtake ours. Every home still gets
	// exactly one batch for the interval.
	rs := t.cache.BeginRelease()
	start := t.clock.Now()
	t.cache.FinishRecordHomes(rs)
	t.shipBatches(rs, start, carriesRecords)
	// Peer-to-peer handoff: if an announcement train names a successor
	// for this tenure and this critical section saw no other acquire
	// (lastSeen unchanged — otherwise the pre-composed notice batches
	// would be incomplete for the successors), forward the grant
	// directly — carrying this interval and the train's earlier closing
	// intervals inline, plus the rest of the train — and tell the
	// manager it happened.
	var handedOff uint32
	if ss, gen := t.endTenure(m.id); ss != nil {
		// The train goes out whole, as the bytes it came in as: only its
		// head's waiter and node are read. The closing interval rides
		// Inline only if it wrote something, as the directory files it.
		// Inline may alias a body that can be decoded again, so it is
		// appended to a copy.
		waiter, node := ss.train.Next()
		inline := ss.inline
		if len(rs.Pages) > 0 || len(rs.Records) > 0 {
			inline = inline.With(&proto.Notice{Tag: rs.Tag, Pages: rs.Pages, Records: rs.Records})
		}
		// Ship the bytes this tenure's records wrote on pages it had to
		// fetch in-region (or received the same way): the successor is
		// almost certainly cold on exactly those, and a mid-tenure fetch
		// sits on the serialized handoff chain. Only when the train is
		// anchored at this thread's own horizon: the successor installs
		// them as a copy of everything up to ss.seq, and a train the
		// manager dispatched at a peer-to-peer handoff is anchored at the
		// unlock it filed there, above this holder's horizon. This copy
		// cannot vouch for the intervals in between, which the successor's
		// backlog names; the next hop of the train ships again. The
		// extents alias the cache, which Post encodes before it returns.
		t.pageData = t.pageData[:0]
		if len(t.tenureCold) > 0 && len(rs.Records) > 0 && ss.seq <= t.lastSeen {
			t.pageData = t.cache.AppendGrantExtents(t.pageData, rs.Records, func(p layout.PageID) bool { return t.tenureCold[p] })
		}
		gat, err := t.ep.Post(scl.NodeID(node), &proto.LockGrant{
			Lock: m.id, Gen: gen + 1, Seq: ss.seq,
			Inline: inline, Train: ss.train, PageData: t.pageData,
		}, t.clock.Now())
		clear(t.pageData)
		if err != nil {
			t.fail("unlock", err)
		}
		t.clock.AdvanceTo(gat)
		t.st.MsgsSent++
		handedOff = waiter
	}
	t.unlockReq = proto.UnlockReq{
		Lock: m.id, Thread: t.writer, Interval: rs.Tag.Interval,
		Pages: rs.Pages, Records: rs.Records, HandedOff: handedOff,
	}
	// With replicas the release is an acknowledged call (role.send): the
	// ack proves the release was replicated, and the manager dedups a
	// re-issued one by interval.
	t.exchange("unlock", t.rt.mgr, &t.unlockReq, nil, t.clock.Now())
	start = t.clock.Now()
	t.cache.FinishRelease(rs)
	t.shipBatches(rs, start, carriesNoRecords)
	t.st.LockOps++
	t.lockDepth--
	if t.lockDepth == 0 && len(t.tenureCold) > 0 {
		clear(t.tenureCold)
	}
	t.settleSync()
}

// smhBarrier is a Samhita barrier: a release followed by an acquire for
// all n participants, mediated by the manager.
type smhBarrier struct {
	rt *Runtime
	id uint32
	n  uint32
}

// Wait implements vm.Barrier.
func (b *smhBarrier) Wait(th vm.Thread) {
	t := th.(*Thread)
	t.settleCompute()
	defer t.traceSince(t.clock.Now(), trace.CatBarrier, "barrier", b.id)
	var epoch uint64
	if t.rt.cfg.ManagerReplicas > 1 {
		t.barEpoch[b.id]++
		epoch = t.barEpoch[b.id]
	}
	var resp proto.BarrierResp
	t.releaseAcquire("barrier", &resp, func(rs *pagecache.ReleaseSet) proto.Msg {
		return &proto.BarrierReq{
			Barrier: b.id, Count: b.n, Thread: t.writer,
			LastSeen: t.lastSeen, Interval: rs.Tag.Interval,
			Pages: rs.Pages, Records: rs.Records, Epoch: epoch,
		}
	})
	t.st.BarrierOps++
	t.applyNotices(resp.Seq, resp.Notices)
	t.settleSync()
}

// smhCond is a Samhita condition variable.
type smhCond struct {
	rt *Runtime
	id uint32
}

// Wait implements vm.Cond: release the interval and the mutex, sleep
// until signalled, re-acquire the mutex (with fresh notices).
func (c *smhCond) Wait(th vm.Thread, mu vm.Mutex) {
	t := th.(*Thread)
	m, ok := mu.(*smhMutex)
	if !ok {
		t.fail("cond wait", fmt.Errorf("mutex is not a Samhita mutex"))
	}
	if t.lockDepth <= 0 {
		t.fail("cond wait", fmt.Errorf("cond wait without holding the mutex"))
	}
	t.settleCompute()
	// The wait releases the mutex, ending this tenure: a successor
	// announcement must never be acted on after the manager has already
	// re-granted the lock centrally.
	t.endTenure(m.id)
	var resp proto.CondWaitResp
	t.releaseAcquire("cond wait", &resp, func(rs *pagecache.ReleaseSet) proto.Msg {
		return &proto.CondWaitReq{
			Cond: c.id, Lock: m.id, Thread: t.writer,
			LastSeen: t.lastSeen, Interval: rs.Tag.Interval,
			Pages: rs.Pages, Records: rs.Records,
		}
	})
	t.st.CondOps++
	t.applyNotices(resp.Seq, resp.Notices)
	t.settleSync()
}

// Signal implements vm.Cond.
func (c *smhCond) Signal(th vm.Thread) { c.signal(th, false) }

// Broadcast implements vm.Cond.
func (c *smhCond) Broadcast(th vm.Thread) { c.signal(th, true) }

func (c *smhCond) signal(th vm.Thread, broadcast bool) {
	t := th.(*Thread)
	t.settleCompute()
	t.exchange("cond signal", t.rt.mgr, &proto.CondSignalReq{
		Cond: c.id, Thread: t.writer, Broadcast: broadcast,
	}, &proto.Ack{}, t.clock.Now())
	t.st.CondOps++
	t.settleSync()
}

// ---------------------------------------------------------------------
// pagecache.Backend implementation.

// threadBackend adapts a Thread to the cache's Backend interface.
type threadBackend Thread

// fetchLine round-trips one line's fetch to its home. The answer is
// decoded into a pooled frame (proto.GetBuf), which is what the cache
// keeps as the line's storage; the body it came in goes back to the pool
// (scl's decodeResponse).
func (t *Thread) fetchLine(line layout.LineID, needs []proto.PageNeed, at vtime.Time) (data []byte, home int, doneAt vtime.Time, err error) {
	geo := t.rt.cfg.Geo
	home = geo.HomeOf(geo.FirstPage(line))
	resp := proto.FetchLineResp{Data: proto.GetBuf(geo.LineSize())}
	doneAt, err = t.rt.homes[home].call(t.ep, &proto.FetchLineReq{Line: uint64(line), Needs: needs}, &resp, at)
	return resp.Data, home, doneAt, err
}

// FetchLine implements pagecache.Backend.
func (b *threadBackend) FetchLine(line layout.LineID, needs []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	t := (*Thread)(b)
	data, home, doneAt, err := t.fetchLine(line, needs, at)
	if err != nil {
		return nil, at, err
	}
	if tr := t.rt.cfg.Trace; tr != nil {
		tr.Span(t.actor, trace.CatFetch, fmt.Sprintf("fetch line %d", line), at, doneAt,
			map[string]any{"home": home, "needs": len(needs)})
	}
	t.st.MsgsSent++
	t.markTenureCold([]layout.LineID{line}, nil)
	return data, doneAt, nil
}

// markTenureCold records a demand fetch that happened inside a
// consistency region: the pages just pulled are handoff-shipping
// candidates at this tenure's release (see Thread.tenureCold).
func (t *Thread) markTenureCold(lines []layout.LineID, pages []layout.PageID) {
	if t.lockDepth == 0 {
		return
	}
	geo := t.rt.cfg.Geo
	for _, l := range lines {
		first := geo.FirstPage(l)
		for i := 0; i < geo.LinePages; i++ {
			t.tenureCold[first+layout.PageID(i)] = true
		}
	}
	for _, p := range pages {
		t.tenureCold[p] = true
	}
}

// FetchLines implements pagecache.Backend: one combined request for a
// demand miss plus companion pages the same home must refill anyway
// (fetch combining). Whole lines and single invalidated pages share one
// round trip and one service booking at the home.
func (b *threadBackend) FetchLines(lines []layout.LineID, pages []layout.PageID, needs []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	t := (*Thread)(b)
	geo := t.rt.cfg.Geo
	var home int
	if len(lines) > 0 {
		home = geo.HomeOf(geo.FirstPage(lines[0]))
	} else {
		home = geo.HomeOf(pages[0])
	}
	req := &proto.FetchLinesReq{Needs: needs}
	for _, l := range lines {
		req.Lines = append(req.Lines, uint64(l))
	}
	for _, p := range pages {
		req.Pages = append(req.Pages, uint64(p))
	}
	resp := proto.FetchLinesResp{Data: proto.GetBuf(len(lines)*geo.LineSize() + len(pages)*geo.PageSize)}
	doneAt, err := t.rt.homes[home].call(t.ep, req, &resp, at)
	if err != nil {
		return nil, at, err
	}
	if tr := t.rt.cfg.Trace; tr != nil {
		tr.Span(t.actor, trace.CatFetch,
			fmt.Sprintf("fetch %d lines + %d pages", len(lines), len(pages)), at, doneAt,
			map[string]any{"home": home, "needs": len(needs)})
	}
	t.st.MsgsSent++
	t.markTenureCold(lines, pages)
	return resp.Data, doneAt, nil
}

// StartPrefetch implements pagecache.Backend: the asynchronous
// line request of Samhita's anticipatory paging.
func (b *threadBackend) StartPrefetch(line layout.LineID, needs []proto.PageNeed, at vtime.Time, h *pagecache.Handoff) <-chan pagecache.PrefetchResult {
	t := (*Thread)(b)
	ch := make(chan pagecache.PrefetchResult, 1)
	t.st.MsgsSent++
	spawn(t.rt, nil, prefetch.run, prefetch{t: t, line: line, needs: needs, at: at, h: h, ch: ch})
	return ch
}

// prefetch is one line fetch in flight; run is its helper goroutine.
type prefetch struct {
	t     *Thread
	line  layout.LineID
	needs []proto.PageNeed
	at    vtime.Time
	h     *pagecache.Handoff
	ch    chan<- pagecache.PrefetchResult
}

func (p prefetch) run() {
	data, home, doneAt, err := p.t.fetchLine(p.line, p.needs, p.at)
	if tr := p.t.rt.cfg.Trace; tr != nil && err == nil {
		tr.Span(p.t.actor, trace.CatPrefetch, fmt.Sprintf("prefetch line %d", p.line), p.at, doneAt,
			map[string]any{"home": home})
	}
	p.h.Done() // credit a parked consumer, if any (never unconditionally)
	p.ch <- pagecache.PrefetchResult{Data: data, ReadyAt: doneAt, Err: err}
}

// FlushEvict implements pagecache.Backend.
func (b *threadBackend) FlushEvict(diffs []proto.PageDiff, at vtime.Time) (vtime.Time, error) {
	return (*Thread)(b).flushDiffs(diffs, at, nil)
}

// FlushSync implements pagecache.Backend: the acknowledged flush the
// snapshot path uses so a SealAS sent afterwards cannot overtake the
// flushed bytes on the fabric.
func (b *threadBackend) FlushSync(diffs []proto.PageDiff, at vtime.Time) (vtime.Time, error) {
	return (*Thread)(b).flushDiffs(diffs, at, &proto.Ack{})
}
