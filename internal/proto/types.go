package proto

import "errors"

// IntervalTag identifies one release interval of one writer. Interval
// numbers are assigned locally by each thread (monotonically increasing),
// so a thread can ship its DiffBatch to the homes *before* telling the
// manager about the release — the tag, not a manager-issued sequence
// number, is what fetchers wait on.
type IntervalTag struct {
	Writer   uint32
	Interval uint64
}

func walkTag(c *Codec, t *IntervalTag) {
	c.U32(&t.Writer)
	c.U64(&t.Interval)
}

// DiffRun is one maximal run of changed bytes within a page.
type DiffRun struct {
	Off  uint32 // byte offset within the page
	Data []byte // new contents
}

func walkRun(c *Codec, r *DiffRun) {
	c.U32(&r.Off)
	c.Payload(&r.Data)
}

// PageDiff is the set of changed byte runs of one page, computed by
// comparing the dirty page against its twin.
type PageDiff struct {
	Page uint64
	Runs []DiffRun
}

func walkDiff(c *Codec, d *PageDiff) {
	c.U64(&d.Page)
	List(c, &d.Runs, walkRun)
}

// PayloadBytes reports the number of data bytes carried by the diff.
func (d *PageDiff) PayloadBytes() int {
	n := 0
	for i := range d.Runs {
		n += len(d.Runs[i].Data)
	}
	return n
}

// StoreRecord is one instrumented store performed inside a consistency
// region: absolute global address plus the stored bytes. These are the
// paper's "fine grain (data object level) updates".
type StoreRecord struct {
	Addr uint64
	Data []byte
}

func walkRecord(c *Codec, r *StoreRecord) {
	c.U64(&r.Addr)
	c.Payload(&r.Data)
}

// RecordBytes sums the payload bytes of a record list.
func RecordBytes(recs []StoreRecord) int {
	n := 0
	for i := range recs {
		n += len(recs[i].Data)
	}
	return n
}

// Span-extent words. A release whose ordinary-region stores all went
// through the span data plane knows exactly which byte ranges of each
// dirtied page changed, and publishes them in the write notice so
// acquirers can invalidate only those ranges (partial staleness)
// instead of the whole page. The extents ride the existing Pages list
// as tagged extra words — bit 63 set, which no real page id reaches —
// immediately after the plain page word they qualify, so the wire
// format, the manager (which stores Pages verbatim in its notice
// directory), and every pre-span receiver are untouched: an old-style
// release simply emits no extent words and an extent-unaware reader
// must treat the page as fully invalid.
const spanExtentBit = uint64(1) << 63

// PackSpanExtent encodes a changed byte range [off, off+n) of the
// preceding page word. off is limited to 31 bits and n to 32 (a page is
// 4 KiB; the headroom is deliberate).
func PackSpanExtent(off, n int) uint64 {
	return spanExtentBit | uint64(off)<<32 | uint64(uint32(n))
}

// IsSpanExtent reports whether a Pages word is an extent word rather
// than a page id.
func IsSpanExtent(w uint64) bool { return w&spanExtentBit != 0 }

// SpanExtent decodes an extent word.
func SpanExtent(w uint64) (off, n int) {
	return int((w &^ spanExtentBit) >> 32), int(uint32(w))
}

// NoticePages counts the plain page words of a Pages list, skipping
// extent words (for display and bookkeeping, not protocol logic).
func NoticePages(pages []uint64) int {
	n := 0
	for _, w := range pages {
		if !IsSpanExtent(w) {
			n++
		}
	}
	return n
}

// Notice is a write notice distributed by the manager at acquire points.
// Pages names pages dirtied in ordinary regions (the receiver must
// invalidate any cached copy); Records carries consistency-region stores
// (the receiver applies them in place — no invalidation, no refetch).
// Pages may carry span-extent words (see PackSpanExtent) after a page
// word, narrowing that page's invalidation to the listed byte ranges.
type Notice struct {
	Seq     uint64 // manager-issued global sequence number
	Tag     IntervalTag
	Pages   []uint64
	Records []StoreRecord
}

// WalkNotice is exported for the manager's replication snapshot, which
// carries the notice directory outside any wire message.
func WalkNotice(c *Codec, n *Notice) {
	c.U64(&n.Seq)
	walkTag(c, &n.Tag)
	c.U64s(&n.Pages)
	c.records(&n.Records)
}

// ---------------------------------------------------------------------
// Memory-server messages.

// PageNeed lists the interval tags whose diffs must be applied to a page
// before the home may serve it.
type PageNeed struct {
	Page uint64
	Tags []IntervalTag
}

func walkNeed(c *Codec, n *PageNeed) {
	c.U64(&n.Page)
	List(c, &n.Tags, walkTag)
}

// FetchLineReq asks a home server for one cache line (LinePages
// consecutive pages, all homed on that server).
type FetchLineReq struct {
	Line  uint64
	Needs []PageNeed
}

func (m *FetchLineReq) Kind() Kind { return KFetchLineReq }

func (m *FetchLineReq) Walk(c *Codec) {
	c.U64(&m.Line)
	List(c, &m.Needs, walkNeed)
}

// FetchLineResp carries the line contents.
type FetchLineResp struct {
	Data []byte
}

func (m *FetchLineResp) Kind() Kind { return KFetchLineResp }

func (m *FetchLineResp) Walk(c *Codec) {
	c.Payload(&m.Data)
}

// FetchLinesReq asks a home server for several cache lines and/or
// individual pages at once — fetch combining: an acquire that
// invalidated K pages homed on one server issues a single combined
// request instead of K misses. Lines names whole cache lines (cold
// misses); Pages names single pages whose lines the fetcher already
// holds, so revalidating them moves one page, not a whole line. Needs
// quotes the union of the outstanding interval tags across everything
// requested; the home answers once every quoted tag's DiffBatch has
// been applied. Frames asks instead for the sealed frames the Pages map
// through their fork, whatever private copy the home holds of them: the
// home quotes no needs, pulls no diffs, and answers with no bytes when
// a page maps no frame there.
type FetchLinesReq struct {
	Lines  []uint64
	Pages  []uint64
	Needs  []PageNeed
	Frames bool
}

func (m *FetchLinesReq) Kind() Kind { return KFetchLinesReq }

func (m *FetchLinesReq) Walk(c *Codec) {
	c.U64s(&m.Lines)
	c.U64s(&m.Pages)
	List(c, &m.Needs, walkNeed)
	if c.tail(m.Frames) {
		c.Bool(&m.Frames)
	}
}

// FetchLinesResp carries the contents of every requested line, then
// every requested page, concatenated in request order.
type FetchLinesResp struct {
	Data []byte
}

func (m *FetchLinesResp) Kind() Kind { return KFetchLinesResp }

func (m *FetchLinesResp) Walk(c *Codec) {
	c.Payload(&m.Data)
}

// DiffBatch carries one interval's worth of updates to one home server:
// page diffs from ordinary regions (shared pages, shipped eagerly),
// store records from consistency regions, the ids of dirty pages whose
// bytes were already flushed by eviction (EmptyPages), and ownership
// claims for pages whose diffs stay with the writer until someone needs
// them (OwnedPages — the single-writer optimization: unshared pages
// cost a release no bytes, and the home pulls their diffs on demand).
// One-way; sent before the release is announced to the manager.
type DiffBatch struct {
	Tag        IntervalTag
	Diffs      []PageDiff
	Records    []StoreRecord
	EmptyPages []uint64
	OwnedPages []uint64
}

func (m *DiffBatch) Kind() Kind { return KDiffBatch }

func (m *DiffBatch) Walk(c *Codec) {
	walkTag(c, &m.Tag)
	List(c, &m.Diffs, walkDiff)
	List(c, &m.Records, walkRecord)
	c.U64s(&m.EmptyPages)
	c.U64s(&m.OwnedPages)
}

// DiffPullReq asks a writer's cache agent for the retained diffs of
// lazily-owned pages (sent by a home server when another thread fetches
// them).
type DiffPullReq struct {
	Pages []uint64
}

func (m *DiffPullReq) Kind() Kind { return KDiffPullReq }

func (m *DiffPullReq) Walk(c *Codec) {
	c.U64s(&m.Pages)
}

// DiffPullResp returns the retained diffs. A page missing from Diffs
// has no retained data (it was flushed or never owned); the home treats
// its own copy as current.
type DiffPullResp struct {
	Diffs []PageDiff
}

func (m *DiffPullResp) Kind() Kind { return KDiffPullResp }

func (m *DiffPullResp) Walk(c *Codec) {
	List(c, &m.Diffs, walkDiff)
}

// EvictFlush carries the diff of a dirty page evicted mid-interval. The
// home applies it immediately; the owning interval's later DiffBatch
// lists the page in EmptyPages.
type EvictFlush struct {
	Writer uint32
	Diffs  []PageDiff
}

func (m *EvictFlush) Kind() Kind { return KEvictFlush }

func (m *EvictFlush) Walk(c *Codec) {
	c.U32(&m.Writer)
	List(c, &m.Diffs, walkDiff)
}

// ---------------------------------------------------------------------
// Manager messages.

// Allocation strategies (Section II: three strategies chosen by size).
const (
	AllocArenaChunk uint8 = iota // a chunk for a thread-local arena
	AllocShared                  // from the manager's shared zone
	AllocStriped                 // striped across memory servers
)

// AllocReq asks the manager for global memory. Seq is the requesting
// thread's monotonic allocation-plane sequence number: a re-issue of
// the same logical request (a retry across manager failover) carries
// the same Seq, which lets the manager deduplicate and answer with the
// original address instead of allocating again — the fix for the
// AllocReq re-issue leak. Seq 0 disables dedup (legacy senders).
type AllocReq struct {
	Thread   uint32
	Size     uint64
	Align    uint32
	Strategy uint8
	Seq      uint64
}

func (m *AllocReq) Kind() Kind { return KAllocReq }

func (m *AllocReq) Walk(c *Codec) {
	c.U32(&m.Thread)
	c.U64(&m.Size)
	c.U32(&m.Align)
	c.U8(&m.Strategy)
	c.U64(&m.Seq)
}

// AllocResp returns the base address of the allocation.
type AllocResp struct {
	Addr uint64
}

func (m *AllocResp) Kind() Kind { return KAllocResp }

func (m *AllocResp) Walk(c *Codec) {
	c.U64(&m.Addr)
}

// RegisterReq announces a compute thread to the manager before it runs
// (the manager is responsible for thread placement, Section II). A
// registered thread holds back write-notice pruning until it has seen
// each notice, which closes the window where a late-starting thread
// could miss releases that happened before its first acquire.
type RegisterReq struct {
	Thread uint32
	Node   uint32 // compute node the thread is placed on
}

func (m *RegisterReq) Kind() Kind { return KRegisterReq }

func (m *RegisterReq) Walk(c *Codec) {
	c.U32(&m.Thread)
	c.U32(&m.Node)
}

// FreeReq releases an allocation made through the manager. Seq is the
// same allocation-plane sequence number AllocReq carries: a free
// re-issued across failover is acked idempotently instead of
// double-freeing (Seq 0 disables dedup).
//
// Freeing a forked range is two-phase: the first FreeReq drops the
// manager's fork bookkeeping but withholds the zone space (the reply
// carries the range geometry), the caller unmaps the range at every
// home with ForkUnmap, and a second FreeReq with Unmapped set commits
// the space back to the zone. Without the barrier, first-fit reuse of
// the range would race the homes' stale fork mappings.
type FreeReq struct {
	Thread   uint32
	Addr     uint64
	Seq      uint64
	Unmapped bool
}

func (m *FreeReq) Kind() Kind { return KFreeReq }

func (m *FreeReq) Walk(c *Codec) {
	c.U32(&m.Thread)
	c.U64(&m.Addr)
	c.U64(&m.Seq)
	if c.tail(m.Unmapped) {
		c.Bool(&m.Unmapped)
	}
}

// FreeResp answers a FreeReq. For an ordinary free every field is
// zero. Fork set marks phase one of freeing a fork range: Snap and
// NPages describe the mapping the caller must remove from the homes
// (ForkUnmap) before committing with an Unmapped FreeReq. Release
// names snapshots whose refcount reached zero — either the freed
// fork's parent losing its last fork, or (on an ordinary free of a
// snapshotted image, which drops each snapshot's handle reference)
// snapshots with no remaining forks; the caller tells the homes to
// drop their sealed frames. NPages then sizes the released frames'
// home range.
type FreeResp struct {
	Fork    bool
	Snap    uint64
	NPages  uint64
	Release []uint64
}

func (m *FreeResp) Kind() Kind { return KFreeResp }

func (m *FreeResp) Walk(c *Codec) {
	c.Bool(&m.Fork)
	c.U64(&m.Snap)
	c.U64(&m.NPages)
	c.U64s(&m.Release)
}

// LockReq acquires a mutex. LastSeen is the highest notice sequence the
// thread has already processed; the response carries everything newer.
type LockReq struct {
	Lock     uint32
	Thread   uint32
	LastSeen uint64
}

func (m *LockReq) Kind() Kind { return KLockReq }

func (m *LockReq) Walk(c *Codec) {
	c.U32(&m.Lock)
	c.U32(&m.Thread)
	c.U64(&m.LastSeen)
}

// LockResp grants the mutex. Seq is the new LastSeen.
//
// With peer-to-peer handoff enabled (a manager on a sequenced fabric)
// the manager answers a contended acquire immediately with
// Queued set instead of parking the RPC; the grant then arrives later
// as a one-way LockGrant. Gen identifies the holder's tenure so stale
// NextWaiter messages can be recognized. Both fields are trailing and
// omitted when zero, keeping the classic wire encoding bit-identical.
type LockResp struct {
	Seq     uint64
	Notices []Notice
	Gen     uint64 // holder tenure number (0 in classic mode)
	Queued  bool   // true: no grant yet, wait for LockGrant
}

func (m *LockResp) Kind() Kind { return KLockResp }

func (m *LockResp) Walk(c *Codec) {
	c.U64(&m.Seq)
	Notices(c, &m.Notices)
	if c.tail(m.Gen != 0 || m.Queued) {
		c.U64(&m.Gen)
		c.Bool(&m.Queued)
	}
}

// UnlockReq releases a mutex and posts the thread's write notice for the
// closing interval: pages dirtied in ordinary regions and fine-grained
// records from the consistency region guarded by the lock. The matching
// DiffBatch (same IntervalTag) is already on its way to the homes.
type UnlockReq struct {
	Lock     uint32
	Thread   uint32
	Interval uint64
	Pages    []uint64
	Records  []StoreRecord

	// HandedOff names the thread the releaser granted the lock to
	// directly (peer-to-peer handoff): the manager records the new
	// holder instead of arbitrating. Trailing and omitted when zero, so
	// the classic encoding is unchanged.
	HandedOff uint32
}

func (m *UnlockReq) Kind() Kind { return KUnlockReq }

func (m *UnlockReq) Walk(c *Codec) {
	c.U32(&m.Lock)
	c.U32(&m.Thread)
	c.U64(&m.Interval)
	c.U64s(&m.Pages)
	List(c, &m.Records, walkRecord)
	if c.tail(m.HandedOff != 0) {
		c.U32(&m.HandedOff)
	}
}

// BarrierReq announces arrival at a barrier; it is simultaneously a
// release (Interval/Pages/Records, like UnlockReq) and an acquire
// (LastSeen, like LockReq). Count is the barrier's membership; every
// arrival quotes it and the manager checks agreement.
type BarrierReq struct {
	Barrier  uint32
	Count    uint32
	Thread   uint32
	LastSeen uint64
	Interval uint64
	Pages    []uint64
	Records  []StoreRecord

	// Epoch is the 1-based barrier round this arrival belongs to, quoted
	// only when the manager is replicated: a client that re-issues an
	// arrival after a leader failover lets the new leader distinguish a
	// duplicate of an already-released round (answer immediately) from a
	// fresh arrival of the next round (count it). Trailing and omitted
	// when zero, so the classic encoding is unchanged.
	Epoch uint64
}

func (m *BarrierReq) Kind() Kind { return KBarrierReq }

func (m *BarrierReq) Walk(c *Codec) {
	c.U32(&m.Barrier)
	c.U32(&m.Count)
	c.U32(&m.Thread)
	c.U64(&m.LastSeen)
	c.U64(&m.Interval)
	c.U64s(&m.Pages)
	List(c, &m.Records, walkRecord)
	if c.tail(m.Epoch != 0) {
		c.U64(&m.Epoch)
	}
}

// BarrierResp releases the thread from the barrier.
type BarrierResp struct {
	Seq     uint64
	Notices []Notice
}

func (m *BarrierResp) Kind() Kind { return KBarrierResp }

func (m *BarrierResp) Walk(c *Codec) {
	c.U64(&m.Seq)
	Notices(c, &m.Notices)
}

// CondWaitReq atomically releases the named mutex (posting the release
// notice exactly like UnlockReq), sleeps until the condition variable is
// signalled, re-acquires the mutex, and returns. The response is a
// LockResp-shaped acquire.
type CondWaitReq struct {
	Cond     uint32
	Lock     uint32
	Thread   uint32
	LastSeen uint64
	Interval uint64
	Pages    []uint64
	Records  []StoreRecord
}

func (m *CondWaitReq) Kind() Kind { return KCondWaitReq }

func (m *CondWaitReq) Walk(c *Codec) {
	c.U32(&m.Cond)
	c.U32(&m.Lock)
	c.U32(&m.Thread)
	c.U64(&m.LastSeen)
	c.U64(&m.Interval)
	c.U64s(&m.Pages)
	List(c, &m.Records, walkRecord)
}

// CondWaitResp returns from a condition wait with the mutex re-held.
type CondWaitResp struct {
	Seq     uint64
	Notices []Notice
}

func (m *CondWaitResp) Kind() Kind { return KCondWaitResp }

func (m *CondWaitResp) Walk(c *Codec) {
	c.U64(&m.Seq)
	Notices(c, &m.Notices)
}

// CondSignalReq wakes one (or all) waiters of a condition variable.
type CondSignalReq struct {
	Cond      uint32
	Thread    uint32
	Broadcast bool
}

func (m *CondSignalReq) Kind() Kind { return KCondSignalReq }

func (m *CondSignalReq) Walk(c *Codec) {
	c.U32(&m.Cond)
	c.U32(&m.Thread)
	c.Bool(&m.Broadcast)
}

// NextWaiter is the manager telling the current lock holder who to hand
// the lock to when it releases (peer-to-peer handoff, Munin-style
// distributed lock ownership). Train is a snapshot of the waiter queue:
// the holder grants to the train's head at its release by forwarding the
// whole train inside the LockGrant, so a convoy of k waiters costs one
// announcement and k direct holder-to-waiter hops — an announcement
// that chased each new holder through the manager would always lose the
// race against a short critical section. Seq is the board sequence the
// holder acquired at (the anchor every train batch was composed
// against): every waiter's backlog ends there, so the train carries the
// longest one once and each entry names its suffix of it (see Train). At
// most one train is outstanding per lock; the manager dispatches the
// next one when the previous train is exhausted or abandoned.
type NextWaiter struct {
	Lock  uint32
	Gen   uint64 // holder tenure the train starts at
	Seq   uint64 // anchor board sequence covered by the train's batches
	Train Train
}

func (m *NextWaiter) Kind() Kind { return KNextWaiter }

func (m *NextWaiter) Walk(c *Codec) {
	c.U32(&m.Lock)
	c.U64(&m.Gen)
	c.U64(&m.Seq)
	walkTrain(c, &m.Train)
}

// PagePayload carries one byte extent of a page inside a peer-to-peer
// LockGrant: the releaser's current bytes at [Off, Off+len(Data)) of a
// page the lock's fine-grained records live on (entry-consistency style
// — the data guarded by the lock moves with the lock). A grant lists a
// page's extents together, in offset order, and a whole page is one
// extent. Receivers install them only if they have no valid copy of the
// page, as a page valid over the extents and stale elsewhere.
type PagePayload struct {
	Page uint64
	Off  uint32
	Data []byte
}

func walkPagePayload(c *Codec, p *PagePayload) {
	c.U64(&p.Page)
	c.U32(&p.Off)
	c.Payload(&p.Data)
}

// LockGrant completes a queued acquire that was answered with
// LockResp.Queued. It is posted one-way either by the releasing holder
// (peer-to-peer handoff) or by the manager (central fallback). Train
// starts with the receiver: its head's backlog is the receiver's notices
// (the span from its horizon up to the anchor), and the entries after the
// head are the rest of the announcement train for the receiver to keep
// forwarding. A holder forwards the train it was handed whole, so every
// notice a grant carries travels once, in the train's shared list.
// Inline holds the closing intervals that wrote something of every
// train holder since the anchor — oldest first, ending with the
// releaser's own — and is empty in a central grant. PageData is the
// releaser's copy of the bytes its records wrote on pages a cold
// successor would otherwise have to fetch mid-tenure, on the serialized
// handoff chain. Gen is the receiver's new tenure and Seq
// its new LastSeen (the train's anchor; the Inline intervals above it
// are redelivered by the directory later and deduplicated at the
// receiver). A nonzero Code aborts the acquire (manager shutdown while
// queued, or eviction).
//
// Both lists are in wire form: the receiver forwards what is left of
// Train, and Inline with its own closing interval appended, to the next
// holder, and materialises its backlog and Inline only to apply them.
// Both are last-record-wins (TrainWriter.Train, NoticeList.With): a
// store record whose address and length a later notice of the same list
// repeats is left out, since the receiver applies the list in order and
// the later record overwrites those bytes. The answers to an acquire
// (LockResp, BarrierResp, CondWaitResp) carry their lists whole.
type LockGrant struct {
	Lock     uint32
	Gen      uint64
	Seq      uint64
	Inline   NoticeList // closing intervals applied in order after the receiver's backlog
	Train    Train
	PageData []PagePayload
	Code     uint16
}

func (m *LockGrant) Kind() Kind { return KLockGrant }

func (m *LockGrant) Walk(c *Codec) {
	c.U32(&m.Lock)
	c.U64(&m.Gen)
	c.U64(&m.Seq)
	walkNoticeList(c, &m.Inline)
	walkTrain(c, &m.Train)
	List(c, &m.PageData, walkPagePayload)
	c.U16(&m.Code)
}

// ---------------------------------------------------------------------
// Generic messages.

// Ack is the empty success response.
type Ack struct{}

func (m *Ack) Kind() Kind    { return KAck }
func (m *Ack) Walk(c *Codec) {}

// Ping is a synchronous no-op used to drain a server's queue: because
// every endpoint's inbox is a single FIFO, the Ack proves everything
// posted before the Ping has been processed.
type Ping struct{}

func (m *Ping) Kind() Kind    { return KPing }
func (m *Ping) Walk(c *Codec) {}

// Shutdown asks a server to stop after draining its queue.
type Shutdown struct{}

func (m *Shutdown) Kind() Kind    { return KShutdown }
func (m *Shutdown) Walk(c *Codec) {}

// Error codes carried by Error responses, so clients can distinguish
// failure classes (orderly shutdown, peer death, unpromoted standby)
// without parsing error text. CodeErr maps a code to its sentinel.
const (
	// CodeGeneric is an unclassified protocol error.
	CodeGeneric uint16 = iota
	// CodeShutdown: the peer completed an orderly shutdown while the
	// request was parked.
	CodeShutdown
	// CodePeerDied: the request was completed (or fenced) because a
	// participant it depended on was declared dead by the manager's
	// lease table, or because the answering component itself died.
	CodePeerDied
	// CodeNotPromoted: a request reached a warm-standby memory server
	// that has not been promoted to primary.
	CodeNotPromoted
	// CodeNotLeader: a request reached a manager replica that is not
	// (or is no longer) the leader. Retryable: the client re-discovers
	// the leader and re-issues.
	CodeNotLeader
)

// Sentinels matched by errors.Is against coded remote errors (the scl
// layer translates an Error response's Code into the matching sentinel).
var (
	// ErrShutdown reports an orderly peer shutdown.
	ErrShutdown = errors.New("proto: peer shut down")
	// ErrPeerDied reports that a participant was declared dead; parked
	// lock/barrier/cond waiters and fetches complete with this instead
	// of hanging when a peer they depend on crashes.
	ErrPeerDied = errors.New("proto: peer died")
	// ErrNotPromoted reports a request to an unpromoted standby.
	ErrNotPromoted = errors.New("proto: standby not promoted")
	// ErrNotLeader reports a request to a manager replica that is not
	// the current leader (a follower, or a deposed ex-leader). Unlike
	// ErrShutdown it is retryable: the caller redirects to the leader.
	ErrNotLeader = errors.New("proto: manager replica is not the leader")
)

// CodeErr returns the sentinel for a code (nil for CodeGeneric and
// unknown codes).
func CodeErr(code uint16) error {
	switch code {
	case CodeShutdown:
		return ErrShutdown
	case CodePeerDied:
		return ErrPeerDied
	case CodeNotPromoted:
		return ErrNotPromoted
	case CodeNotLeader:
		return ErrNotLeader
	}
	return nil
}

// Error reports a server-side failure to the caller. Code classifies
// the failure (CodeGeneric when the sender did not classify it).
type Error struct {
	Code uint16
	Text string
}

func (m *Error) Kind() Kind { return KError }

func (m *Error) Walk(c *Codec) {
	c.U16(&m.Code)
	c.String(&m.Text)
}

// ---------------------------------------------------------------------
// Liveness messages.

// Membership classes carried by heartbeats.
const (
	// MemberThread identifies a compute thread (Member = writer id).
	MemberThread uint8 = 1
	// MemberServer identifies a memory server (Member = index + 1).
	MemberServer uint8 = 2
)

// Heartbeat renews a participant's membership lease at the manager.
// One-way and free of virtual-time cost: the manager processes it
// without touching its virtual clock, so enabling liveness does not
// perturb the deterministic virtual-time results of a run. A Member of
// zero is a pure liveness tick (it only prompts the manager to sweep
// its lease table); Bye announces a graceful departure so the member is
// removed without being declared dead.
type Heartbeat struct {
	Member uint32
	Class  uint8
	Node   uint32
	Bye    bool
}

func (m *Heartbeat) Kind() Kind { return KHeartbeat }

func (m *Heartbeat) Walk(c *Codec) {
	c.U32(&m.Member)
	c.U8(&m.Class)
	c.U32(&m.Node)
	c.Bool(&m.Bye)
}

// Promote turns a warm-standby memory server into the primary for its
// home index. Idempotent: an already-promoted server acks again.
type Promote struct{}

func (m *Promote) Kind() Kind    { return KPromote }
func (m *Promote) Walk(c *Codec) {}

// WriterDead is the manager's obituary for a reaped compute thread,
// broadcast one-way to every memory server and warm standby. A writer
// can die between announcing a release interval to the manager and
// shipping the interval's DiffBatch to its homes (the release pipeline
// posts the notice first), leaving a tag that acquirers quote in
// fetches but that no batch will ever mark applied. On receipt each
// page shard stops waiting on the writer's unapplied tags: parked
// fetches drop them and new fetches skip them, serving the freshest
// bytes that did arrive instead of parking forever.
type WriterDead struct {
	Writer uint32

	// Gen is the reap generation the obituary belongs to. With a
	// replicated manager both a deposed leader and its successor can
	// reap the same lease during a failover window; the memory servers
	// deduplicate obituaries per (writer, generation) so the second
	// broadcast is a no-op. Trailing and omitted when zero (classic
	// single-manager encoding unchanged).
	Gen uint64
}

func (m *WriterDead) Kind() Kind { return KWriterDead }

func (m *WriterDead) Walk(c *Codec) {
	c.U32(&m.Writer)
	if c.tail(m.Gen != 0) {
		c.U64(&m.Gen)
	}
}

// ---------------------------------------------------------------------
// Replicated-manager messages (consensus log).

// ReplEntry is one replicated log entry: a client mutation (or a
// manager-internal event such as a lease reap) captured as its wire
// encoding, stamped with the log index and the leader term that
// appended it. Src is the fabric node the original request came from,
// so a promoted follower can complete the operation toward the right
// client.
type ReplEntry struct {
	Index uint64
	Term  uint64
	Src   uint32
	Kind  uint16
	Body  []byte
}

func walkEntry(c *Codec, e *ReplEntry) {
	c.U64(&e.Index)
	c.U64(&e.Term)
	c.U32(&e.Src)
	c.U16(&e.Kind)
	c.Payload(&e.Body)
}

// ReplAppend carries log entries from the manager leader to a follower
// replica. An empty Entries slice is a lease renewal: it proves the
// leader is alive (and still the leader — a follower that has adopted a
// higher term rejects it, deposing the sender).
type ReplAppend struct {
	Term    uint64
	Entries []ReplEntry
}

func (m *ReplAppend) Kind() Kind { return KReplAppend }

func (m *ReplAppend) Walk(c *Codec) {
	c.U64(&m.Term)
	List(c, &m.Entries, walkEntry)
}

// ReplAck answers a ReplAppend. OK means every entry up to NextIndex-1
// is accepted and applied; a rejection carries the follower's current
// term (higher than the sender's when the sender has been deposed) and
// the next index it expects (lower than the sender's first entry when
// the follower lags and needs earlier entries or a snapshot).
type ReplAck struct {
	OK        bool
	Term      uint64
	NextIndex uint64
}

func (m *ReplAck) Kind() Kind { return KReplAck }

func (m *ReplAck) Walk(c *Codec) {
	c.Bool(&m.OK)
	c.U64(&m.Term)
	c.U64(&m.NextIndex)
}

// PromoteMgr turns a follower manager replica into the leader, under a
// new (higher) term. Sent by the runtime's failover controller when
// clients observe the current leader dead. Idempotent: an
// already-promoted replica at the same or higher term acks again.
type PromoteMgr struct {
	Term uint64
}

func (m *PromoteMgr) Kind() Kind { return KPromoteMgr }

func (m *PromoteMgr) Walk(c *Codec) {
	c.U64(&m.Term)
}

// ReplSnapshot installs a full manager state snapshot on a follower
// whose next expected index has been truncated out of the leader's log.
// Index is the last log index the snapshot covers; appends resume at
// Index+1.
type ReplSnapshot struct {
	Term  uint64
	Index uint64
	State []byte
}

func (m *ReplSnapshot) Kind() Kind { return KReplSnapshot }

func (m *ReplSnapshot) Walk(c *Codec) {
	c.U64(&m.Term)
	c.U64(&m.Index)
	c.Payload(&m.State)
}

// ReclaimEvent is a log-entry-only message (never sent on its own): the
// leader replicates a membership lease reap before acting on it, so a
// promoted follower knows the member is already dead and never reaps
// (and recomputes barriers for) the same lease a second time. Gen is
// the reap generation quoted in the resulting WriterDead obituaries.
type ReclaimEvent struct {
	Thread uint32
	Node   uint32
	Gen    uint64
}

func (m *ReclaimEvent) Kind() Kind { return KReclaimEvent }

func (m *ReclaimEvent) Walk(c *Codec) {
	c.U32(&m.Thread)
	c.U32(&m.Node)
	c.U64(&m.Gen)
}

// ---------------------------------------------------------------------
// Address-space snapshot/fork messages.

// SnapshotASReq asks the manager to seal the striped range
// [Base, Base+NPages*PageSize) behind a fresh refcounted snapshot id.
// The manager only records the id and geometry; the caller captures the
// frames at the homes with SealAS before handing the id to anyone. Seq
// is the allocation-plane sequence number (same dedup discipline as
// AllocReq: a retry across manager failover re-quotes it and gets the
// original id back; Seq 0 disables dedup).
type SnapshotASReq struct {
	Thread uint32
	Base   uint64
	NPages uint64
	Seq    uint64
}

func (m *SnapshotASReq) Kind() Kind { return KSnapshotASReq }

func (m *SnapshotASReq) Walk(c *Codec) {
	c.U32(&m.Thread)
	c.U64(&m.Base)
	c.U64(&m.NPages)
	c.U64(&m.Seq)
}

// SnapshotASResp returns the snapshot id (never 0).
type SnapshotASResp struct {
	Snap uint64
}

func (m *SnapshotASResp) Kind() Kind { return KSnapshotASResp }

func (m *SnapshotASResp) Walk(c *Codec) {
	c.U64(&m.Snap)
}

// ForkASReq asks the manager for a copy-on-write fork of a sealed
// snapshot: a fresh striped range, aligned exactly like the original so
// every page offset keeps its home server, whose reads are served from
// the sealed frames until first write. O(1) in the image size — the
// manager bumps the snapshot's refcount and runs one striped-zone
// allocation; no page bytes move. Seq follows the AllocReq dedup
// discipline.
type ForkASReq struct {
	Thread uint32
	Snap   uint64
	Seq    uint64
}

func (m *ForkASReq) Kind() Kind { return KForkASReq }

func (m *ForkASReq) Walk(c *Codec) {
	c.U32(&m.Thread)
	c.U64(&m.Snap)
	c.U64(&m.Seq)
}

// ForkASResp returns the forked range's base plus the snapshot geometry
// the client needs to register ForkMaps at the homes.
type ForkASResp struct {
	Base     uint64
	OrigBase uint64
	NPages   uint64
}

func (m *ForkASResp) Kind() Kind { return KForkASResp }

func (m *ForkASResp) Walk(c *Codec) {
	c.U64(&m.Base)
	c.U64(&m.OrigBase)
	c.U64(&m.NPages)
}

// SealAS asks a home server to capture the current contents of the
// in-range pages it hosts as the sealed frames of snapshot Snap. Needs
// quotes outstanding interval tags exactly like a fetch, so the seal
// parks until every release the sealer has observed is applied; the
// server also pulls lazily-owned diffs before sealing. Answered with an
// Ack once the frames are stored (word-run compressed).
type SealAS struct {
	Snap   uint64
	Base   uint64
	NPages uint64
	Needs  []PageNeed
	// Pages, when set, names the exact pages to seal instead of "every
	// in-range page homed here" — used by a primary shard forwarding its
	// sealed share to the warm standby (trailing field; absent on the
	// client form).
	Pages []uint64
}

func (m *SealAS) Kind() Kind { return KSealAS }

func (m *SealAS) Walk(c *Codec) {
	c.U64(&m.Snap)
	c.U64(&m.Base)
	c.U64(&m.NPages)
	List(c, &m.Needs, walkNeed)
	if c.tail(len(m.Pages) > 0) {
		c.U64s(&m.Pages)
	}
}

// ForkMap tells a home server that the forked range starting at Base
// mirrors the sealed frames of snapshot Snap (original base OrigBase,
// NPages pages). Reads of an unmaterialized fork page decode the sealed
// frame; the first write copies it into a private page (copy-on-write).
// Answered with an Ack so the forker knows every home can serve the
// range before it touches a byte.
type ForkMap struct {
	Snap     uint64
	Base     uint64
	OrigBase uint64
	NPages   uint64
}

func (m *ForkMap) Kind() Kind { return KForkMap }

func (m *ForkMap) Walk(c *Codec) {
	c.U64(&m.Snap)
	c.U64(&m.Base)
	c.U64(&m.OrigBase)
	c.U64(&m.NPages)
}

// ForkUnmap undoes a ForkMap on a home server: the fork-range entry
// rooted at Base is removed (NPages 0 means no range — a release-only
// message) and the private pages the fork materialized in [Base,
// Base+NPages) are discarded. Release names snapshots whose manager
// refcount reached zero; their sealed frames are dropped too. Acked
// only after every shard has purged its share, so the caller knows the
// homes can no longer resolve the dead range before it lets the
// manager reuse the space.
type ForkUnmap struct {
	Base    uint64
	NPages  uint64
	Release []uint64
}

func (m *ForkUnmap) Kind() Kind { return KForkUnmap }

func (m *ForkUnmap) Walk(c *Codec) {
	c.U64(&m.Base)
	c.U64(&m.NPages)
	c.U64s(&m.Release)
}
