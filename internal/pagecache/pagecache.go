// Package pagecache implements the per-thread local software cache
// through which every Samhita compute thread accesses the shared global
// address space (Section II).
//
// In the measured system the cache is a region of the coprocessor's
// memory managed with mprotect: a protection fault pulls a multi-page
// cache line from the page's home memory server. Go cannot portably
// intercept page faults, so here every access goes through an explicit
// Read/Write call whose miss path performs the same protocol actions the
// SIGSEGV handler performs in the paper:
//
//   - demand-fetch the enclosing multi-page cache line from its home,
//   - asynchronously prefetch the next line (anticipatory paging), and
//     stop while the lines it prefetches go unused,
//   - on the first write in an interval, snapshot the page into a twin
//     so a release can compute a byte diff (the multiple-writer
//     protocol's tolerance of false sharing),
//   - evict with a bias toward written pages when the cache fills,
//     flushing their diffs home mid-interval.
//
// The cache also implements the compute-thread side of regional
// consistency: CollectRelease gathers ordinary-region page diffs and
// consistency-region store records at a release point, and ApplyNotices
// consumes write notices at an acquire point — invalidating pages named
// by ordinary-region notices and patching fine-grained records in place.
package pagecache

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// Backend performs the communication the cache needs. It is implemented
// by the compute-thread runtime (package core) on top of SCL, and by
// in-memory fakes in tests.
//
// Ownership: a slice returned by FetchLine or FetchLines, or delivered
// in a PrefetchResult, is the cache's from then on, and it goes back to
// proto's buffer pool (proto.PutBuf) when the cache drops it. A single
// line is kept as the line's storage and written through until the line
// is evicted; a combined FetchLines reply is copied out and recycled at
// once; a discarded prefetch result is recycled. So the backend must
// hand over a buffer nothing else reads, writes or reuses — a fresh or
// pooled one per call (core's is proto.GetBuf's, filled by the decode).
// The other way round, the line, page and need lists the cache passes to
// FetchLine and FetchLines are the cache's scratch: the backend reads
// them during the call and keeps none of them.
type Backend interface {
	// FetchLine synchronously fetches one cache line from its home,
	// quoting the interval tags that must be applied first. It returns
	// the line bytes and the caller's virtual time when they are in
	// hand.
	FetchLine(line layout.LineID, needs []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error)
	// FetchLines synchronously fetches several whole lines and/or
	// individual pages, all homed on the same server, in one combined
	// request (fetch combining). The returned bytes are the lines'
	// contents followed by the pages' contents, concatenated in request
	// order.
	FetchLines(lines []layout.LineID, pages []layout.PageID, needs []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error)
	// StartPrefetch begins an asynchronous fetch of a line; the result
	// is delivered on the returned channel, and the helper goroutine
	// must call h.Done() immediately before sending it. A nil return
	// means the backend declines (prefetch disabled).
	StartPrefetch(line layout.LineID, needs []proto.PageNeed, at vtime.Time, h *Handoff) <-chan PrefetchResult
	// FlushEvict posts a mid-interval diff of dirty pages an
	// invalidation or a stale demotion drops to their home. It is
	// asynchronous; the returned time is the sender's clock after the
	// send overhead.
	FlushEvict(diffs []proto.PageDiff, at vtime.Time) (vtime.Time, error)
	// FlushSync is FlushEvict's acknowledged form: it returns only once
	// every home has applied the diffs. The snapshot path and eviction
	// need this — transfer time grows with payload size, so a later
	// small message (the SealAS, the refetch of an evicted line) could
	// otherwise arrive before a large posted flush and read pre-flush
	// bytes.
	FlushSync(diffs []proto.PageDiff, at vtime.Time) (vtime.Time, error)
}

// PrefetchResult is the completion of an asynchronous line fetch.
type PrefetchResult struct {
	Data    []byte
	ReadyAt vtime.Time // virtual time the line is available to the thread
	Err     error
}

// Handoff is the wake rule of a sequenced fabric for one prefetch
// (simnet.Handoff): the helper's Done credits the owning thread only if
// it is already parked on the result, since a completed prefetch may sit
// unconsumed indefinitely.
type Handoff = simnet.Handoff

// Config parameterizes a cache.
type Config struct {
	Geo layout.Geometry
	CPU vtime.CPUModel
	// CapacityLines bounds the number of resident lines; 0 means a
	// generous default.
	CapacityLines int
	// PrefetchDepth is how many lines ahead anticipatory paging runs:
	// every demand fault issues up to this many asynchronous fetches at
	// the stride the miss detector currently predicts. 0 disables
	// prefetching; 1 is the paper's one-line-ahead strategy.
	PrefetchDepth int
	// Writer is the owning thread's id, used to tag intervals and skip
	// self-notices.
	Writer uint32
	// NoLazyOwner disables the lazy single-writer optimization: every
	// dirty page ships an eager diff at release instead of retaining
	// its diffs locally under an ownership claim. Used when homes are
	// replicated to a warm standby — retained diffs live only in the
	// writer's memory and would be lost if the writer died, so the
	// release must put the bytes at the (replicated) home.
	NoLazyOwner bool
	// Gate, if non-nil, is the sequenced transport's runnable-token
	// ledger; the cache pauses through it before blocking on a prefetch
	// channel.
	Gate simnet.Gate
}

// DefaultCapacityLines models the coprocessor-side cache of the paper's
// configuration (a few hundred MB of card memory at 16 KiB lines would
// be tens of thousands of lines; tests and benchmarks size this down).
const DefaultCapacityLines = 4096

// byteRange is a half-open byte interval [lo, hi) within one page.
type byteRange struct {
	lo, hi int
}

// mergeRange inserts [lo, hi) into a sorted, disjoint range list,
// coalescing overlapping and touching neighbours. The list stays sorted
// and disjoint.
func mergeRange(rs []byteRange, lo, hi int) []byteRange {
	// Window [i, j): ranges before i lie strictly before [lo, hi) without
	// touching; ranges in [i, j) overlap or touch and are absorbed; ranges
	// from j on lie strictly after. Rebuilding by index (rather than
	// appending into rs[:0] while ranging over rs) avoids clobbering
	// not-yet-read elements of the shared backing array when an insertion
	// grows the list.
	i := 0
	for i < len(rs) && rs[i].hi < lo {
		i++
	}
	j := i
	for j < len(rs) && rs[j].lo <= hi {
		if rs[j].lo < lo {
			lo = rs[j].lo
		}
		if rs[j].hi > hi {
			hi = rs[j].hi
		}
		j++
	}
	if j > i { // absorbed at least one existing range: shrink in place
		rs[i] = byteRange{lo, hi}
		return append(rs[:i+1], rs[j:]...)
	}
	// Pure insertion: grow by one and shift the tail right.
	rs = append(rs, byteRange{})
	copy(rs[i+1:], rs[i:])
	rs[i] = byteRange{lo, hi}
	return rs
}

// overlapsRanges reports whether [lo, hi) intersects any range of a
// sorted, disjoint list.
func overlapsRanges(rs []byteRange, lo, hi int) bool {
	for _, r := range rs {
		if r.lo >= hi {
			return false
		}
		if r.hi > lo {
			return true
		}
	}
	return false
}

// pageState tracks one page within a resident line.
type pageState struct {
	valid bool
	dirty bool
	// wtracked is true while every ordinary store of the current
	// interval went through the span path (known extents). A legacy
	// per-element store, or extent-list overflow, clears it and the
	// release falls back to whole-page invalidation at the peers. It sits
	// with the other flags so they share one word.
	wtracked bool
	twin     []byte // snapshot at first ordinary write; nil unless dirty

	// stale lists byte ranges another writer's span release has made
	// stale while the rest of the page stays valid (partial staleness).
	// Accesses outside every stale range are served locally; an access
	// overlapping one demotes the page to fully invalid and refetches.
	// Always empty while valid is false; emptied in place, so a page
	// that goes partially stale again reuses the array.
	stale []byteRange
	// wext accumulates this interval's span-written extents while
	// wtracked holds: the release publishes them as extent words so
	// peers can invalidate partially. Reset whenever dirty is cleared.
	wext []byteRange
	// own is this thread's latest write to the page (see InstallGrantExtents).
	own ownWrite
}

// ownWrite is the latest interval in which this thread stored to a page,
// and the sequence number that interval's write notice came back from
// the directory with (0 until it has). It is noted when the interval
// first twins the page or starts a store record on it.
type ownWrite struct {
	interval, seq uint64
}

// intervalPages is one interval of this thread's and the pages its
// store records wrote.
type intervalPages struct {
	interval uint64
	pages    []layout.PageID
}

// after reports whether a releaser whose horizon is h may not have seen
// the write: it is not yet sequenced, or sequenced above h.
func (w ownWrite) after(h uint64) bool { return w.interval != 0 && (w.seq == 0 || w.seq > h) }

// pageNeed is what a page that is not resident-and-valid waits for: the
// interval tags a fetch must quote, in cmpTag order, and the highest
// sequence number of the notices they came from (math.MaxUint64 once one
// came inline with a lock grant and has no number yet).
type pageNeed struct {
	tags []proto.IntervalTag
	seq  uint64
}

// Caps keeping the partial-staleness metadata bounded: a page whose
// stale-range list, span-extent list or pending-tag set would grow past
// these falls back to whole-page invalidation.
const (
	maxStaleRanges = 32
	maxWriteExts   = 8
	maxStaleTags   = 64
)

// lineEntry is one resident cache line.
type lineEntry struct {
	id layout.LineID
	// data is the line's frame: LineSize bytes of one whole pooled buffer
	// (proto.GetBuf), the cache's until evict hands it back.
	data    []byte
	pages   []pageState
	lastUse uint64
	// touched is the mask of pages demand accesses touched since the
	// line was filled, held the mask of pages it has held valid since,
	// fill the number of that fill while it awaits observation (0 once
	// observed), and partial marks a page fill whose remaining pages no
	// sector fill has fetched yet (see fillWindow and unusedPages).
	touched uint64
	held    uint64
	fill    uint64
	partial bool
}

// prefetchEntry tracks an in-flight asynchronous line fetch.
type prefetchEntry struct {
	ch <-chan PrefetchResult
	h  *Handoff
	// needsSent records which tags were quoted per page at issue time;
	// pages whose needs grew since must not be installed as valid.
	needsSent map[layout.PageID][]proto.IntervalTag
	// uncounted marks a prefetch issued before the thread's stats record
	// was reset (UncountPrefetches): the record counts neither its issue
	// nor its outcome.
	uncounted bool
	// frozen is the record StopMeasurement froze while the prefetch was
	// in flight (FreezePrefetches): it counted the issue, so it counts
	// the outcome too.
	frozen *stats.Thread
}

// outcome is how a prefetch ends.
type outcome int

const (
	outcomeHit    outcome = iota // a demand fault found it delivered
	outcomeLate                  // a demand fault waited for it
	outcomeWasted                // discarded: stale, failed, or its line was dropped
	outcomeUnused                // still pending when the thread retired
)

// field selects outcome o's counter in t.
func (o outcome) field(t *stats.Thread) *int64 {
	switch o {
	case outcomeHit:
		return &t.PrefetchHits
	case outcomeLate:
		return &t.PrefetchLate
	case outcomeWasted:
		return &t.PrefetchWasted
	default:
		return &t.PrefetchUnused
	}
}

// The prefetch throttle. The cache keeps a window of the last
// prefetchWindow prefetches it issued and counts how many a demand fault
// consumed (a hit or a late arrival). A window in which fewer than half
// were consumed starts a back-off: the next backoff misses issue
// nothing, then a new window probes. The back-off starts at minBackoff,
// doubles on each failed probe up to maxBackoff, and resets on a window
// that passes.
const (
	prefetchWindow = 8
	minBackoff     = 8
	maxBackoff     = 1024
)

// Cache is one thread's software cache. It is confined to the owning
// thread's goroutine.
type Cache struct {
	cfg   Config
	geo   layout.Geometry
	be    Backend
	clock *vtime.Clock
	st    *stats.Thread

	lines    map[layout.LineID]*lineEntry
	pending  map[layout.LineID]*prefetchEntry
	capacity int

	// The eviction order's state (see bipEvery): the next stamps up and
	// down, the line of the last demand reference, and the duel, nil
	// until the cache first evicts.
	useTick  uint64
	coldTick uint64
	lastRef  layout.LineID
	duel     *duel

	// Stride detector for adaptive prefetch: when two consecutive
	// demand-miss deltas agree, prefetch runs at that stride instead of
	// the default +1.
	lastMiss   layout.LineID
	haveMiss   bool
	lastStride int64

	// The prefetch throttle's state (see prefetchWindow). It is fed only
	// by this thread's misses and prefetches, and kept apart from the
	// stats record, so a measurement reset leaves it alone.
	winIssued int // prefetches issued in the open window
	winUsed   int // prefetches a demand fault consumed while it was open
	skip      int // misses left in the current back-off
	backoff   int // the next back-off's length

	// pageNeeds records, for every page that is not resident-and-valid,
	// what a future fetch must wait for. Entries are cleared when the page
	// is installed valid (clearNeeds), which leaves the tag list in
	// freeTags for the next page that goes invalid.
	pageNeeds map[layout.PageID]pageNeed
	freeTags  [][]proto.IntervalTag

	// ownEvicted keeps pageState.own of pages that left residency. No
	// entry is dropped: a later grant's horizon may be older than the
	// sequence number a write came back with.
	ownEvicted map[layout.PageID]ownWrite

	// recordPages lists, for each interval of this thread's whose notice
	// has not come back, the pages its store records wrote. A notice can
	// come back with a record left out (a later notice of its list
	// repeats the record: last record wins), and ownNoticeBack must
	// still stamp that record's page. An entry goes when its notice comes
	// back or when every page in it has been written again; the arrays of
	// entries gone stay past the end for reuse.
	recordPages []intervalPages

	// extScratch is ApplyNotices' extent list, reused from page to page:
	// invalidate reads it and keeps none of it. The grant extent calls
	// use it the same way.
	extScratch []byteRange
	// grantScratch is AppendGrantExtents' list of record extents.
	grantScratch []pageExtent

	// oneLine backs fault's single-line fetch list (faultLine), and
	// pageList and needList its page and need lists, reused from fault
	// to fault.
	oneLine  [1]layout.LineID
	pageList []layout.PageID
	needList []proto.PageNeed

	// The fill-granularity window (see fillWindow), and the grain of the
	// demand fetch in progress and how many invalid pages it left for a
	// later touch (see unusedPages).
	grain   grainWindow
	filling string
	skipped int

	// lineScratch and pageScratch are BeginRelease's sorted dirty-line and
	// early-flushed-page lists, reused from release to release.
	lineScratch []layout.LineID
	pageScratch []layout.PageID

	// interval bookkeeping (one interval = release to release).
	interval     uint64
	dirtyPages   map[layout.PageID]struct{} // dirty right now
	flushedDirty map[layout.PageID]struct{} // dirtied this interval, already flushed by eviction/invalidation
	records      []proto.StoreRecord        // consistency-region store log

	// shared marks pages another thread is known to touch (they were
	// named by a foreign write notice at some acquire). Dirty shared
	// pages ship eager diffs at a release; dirty unshared pages only
	// post an ownership claim and retain their diffs in owned — the
	// single-writer optimization that keeps releases cheap for purely
	// private working sets.
	shared map[layout.PageID]struct{}
	owned  *OwnedStore

	// freeTwins recycles twin buffers: a release hands back every twin it
	// diffed and the next interval's first writes take them out again.
	// The cache is single-threaded, so this is a plain stack.
	freeTwins [][]byte
	// freeEntries recycles evicted line entries, page states and all, the
	// same way: an eviction makes room for the install that follows it.
	freeEntries []*lineEntry

	// The sealed frames (frames.go): the backend's frame reads, nil when
	// it has none, the thread's forks by first page, and the frames read
	// of each of their snapshots, by page index (nil until read).
	fr     FrameReader
	forks  []forkImage
	frames map[uint64][][]byte
}

// New creates a cache. The clock and stats belong to the owning thread.
func New(cfg Config, be Backend, clock *vtime.Clock, st *stats.Thread) *Cache {
	if cfg.CapacityLines <= 0 {
		cfg.CapacityLines = DefaultCapacityLines
	}
	if cfg.Gate == nil {
		cfg.Gate = simnet.NopGate()
	}
	fr, _ := be.(FrameReader)
	return &Cache{
		cfg:          cfg,
		geo:          cfg.Geo,
		be:           be,
		fr:           fr,
		clock:        clock,
		st:           st,
		lines:        make(map[layout.LineID]*lineEntry),
		pending:      make(map[layout.LineID]*prefetchEntry),
		capacity:     cfg.CapacityLines,
		useTick:      stampBase,
		coldTick:     stampBase,
		pageNeeds:    make(map[layout.PageID]pageNeed),
		ownEvicted:   make(map[layout.PageID]ownWrite),
		dirtyPages:   make(map[layout.PageID]struct{}),
		flushedDirty: make(map[layout.PageID]struct{}),
		shared:       make(map[layout.PageID]struct{}),
		frames:       make(map[uint64][][]byte),
		owned:        NewOwnedStore(cfg.Geo.PageSize),
		backoff:      minBackoff,
	}
}

// Owned exposes the retained-diff store; the thread's cache agent
// serves DiffPull requests from it.
func (c *Cache) Owned() *OwnedStore { return c.owned }

// Interval reports the current (open) interval number.
func (c *Cache) Interval() uint64 { return c.interval }

// ---------------------------------------------------------------------
// Access path.

// Read copies len(buf) bytes at addr into buf, faulting lines in as
// needed.
func (c *Cache) Read(addr layout.Addr, buf []byte) error {
	c.clock.Advance(c.cfg.CPU.AccessTime)
	return c.read(addr, buf)
}

// ReadSpan is the bulk-read entry point: one AccessTime for the whole
// span plus a per-byte streamed-copy term, instead of AccessTime per
// element. Lines are resolved once per page, and a page that is valid
// except for stale ranges this span does not touch is served with no
// fault at all (partial staleness).
func (c *Cache) ReadSpan(addr layout.Addr, buf []byte) error {
	c.clock.Advance(c.cfg.CPU.AccessTime + c.cfg.CPU.SpanTime(len(buf)))
	return c.read(addr, buf)
}

func (c *Cache) read(addr layout.Addr, buf []byte) error {
	end := addr + layout.Addr(len(buf))
	for len(buf) > 0 {
		page := c.geo.PageOf(addr)
		off := c.geo.PageOffset(addr)
		n := min(len(buf), c.geo.PageSize-off)
		le, err := c.ensureValidRange(page, c.geo.PageOf(end-1), off, n)
		if err != nil {
			return err
		}
		base := c.pageBaseInLine(page)
		copy(buf[:n], le.data[base+off:base+off+n])
		buf = buf[n:]
		addr += layout.Addr(n)
	}
	return nil
}

// Write stores data at addr. If region is true the store happens inside
// a consistency region (a lock is held): it is captured in the
// fine-grained store log and does not mark the page dirty by itself.
// Ordinary (region=false) stores twin the page on first touch and are
// propagated as page diffs at the next release.
func (c *Cache) Write(addr layout.Addr, data []byte, region bool) error {
	c.clock.Advance(c.cfg.CPU.AccessTime)
	return c.write(addr, data, region, false)
}

// WriteSpan is the bulk-write entry point: one AccessTime plus a
// per-byte term for the whole span. Beyond the charge, a span write (1)
// logs ONE StoreRecord per contiguous page chunk in consistency regions
// instead of one per element, and (2) tracks its written extents so the
// closing release can publish extent words and peers can invalidate
// partially instead of refetching whole falsely-shared pages.
func (c *Cache) WriteSpan(addr layout.Addr, data []byte, region bool) error {
	c.clock.Advance(c.cfg.CPU.AccessTime + c.cfg.CPU.SpanTime(len(data)))
	return c.write(addr, data, region, true)
}

func (c *Cache) write(addr layout.Addr, data []byte, region, span bool) error {
	end := addr + layout.Addr(len(data))
	for len(data) > 0 {
		page := c.geo.PageOf(addr)
		off := c.geo.PageOffset(addr)
		n := min(len(data), c.geo.PageSize-off)
		le, err := c.ensureValidRange(page, c.geo.PageOf(end-1), off, n)
		if err != nil {
			return err
		}
		if region {
			ps := &le.pages[c.pageIndex(page)]
			c.logRecord(addr, data[:n], page, ps)
			// Consistency-region bytes travel ONLY as records. If the
			// page is dirty from ordinary writes, patch the twin too, or
			// the next ordinary diff would capture these bytes and ship
			// a stale snapshot that can clobber newer records at the
			// home (a lost update under lock).
			if ps.dirty {
				copy(ps.twin[off:], data[:n])
			}
		} else {
			c.ordinaryStore(le, page, off, n, span)
		}
		base := c.pageBaseInLine(page)
		copy(le.data[base+off:], data[:n])
		data = data[n:]
		addr += layout.Addr(n)
	}
	return nil
}

// ordinaryStore readies page for an ordinary store of [off, off+n): the
// interval's first such store twins the page, and every one is folded
// into the page's written extents.
func (c *Cache) ordinaryStore(le *lineEntry, page layout.PageID, off, n int, span bool) {
	ps := &le.pages[c.pageIndex(page)]
	if !ps.dirty {
		base := c.pageBaseInLine(page)
		ps.twin = c.newTwin(le.data[base : base+c.geo.PageSize])
		ps.dirty = true
		ps.own = ownWrite{interval: c.interval + 1}
		c.dirtyPages[page] = struct{}{}
		c.clock.Advance(c.cfg.CPU.TwinTime)
		c.st.Twins++
		ps.wtracked = span
		ps.wext = ps.wext[:0]
	}
	c.noteWriteExtent(ps, off, n, span)
}

// logRecord appends one consistency-region store record, extending the
// previous record in place when the store is strictly contiguous with
// it on the same page — so even legacy per-element loops stop emitting
// one record (and one wire header) per 8 bytes. Records never cross a
// page boundary (the home applies them page-local). ps is the page's
// state.
func (c *Cache) logRecord(addr layout.Addr, data []byte, page layout.PageID, ps *pageState) {
	c.st.RecordBytes += int64(len(data))
	if len(c.records) > 0 {
		last := &c.records[len(c.records)-1]
		if last.Addr+uint64(len(last.Data)) == uint64(addr) &&
			c.geo.PageOf(layout.Addr(last.Addr)) == page {
			last.Data = append(last.Data, data...)
			return
		}
	}
	c.records = append(c.records, proto.StoreRecord{
		Addr: uint64(addr),
		Data: append([]byte(nil), data...),
	})
	c.st.RecordsLogged++
	ps.own = ownWrite{interval: c.interval + 1}
}

// noteWriteExtent folds one ordinary store into the page's
// span-written-extent tracking. Span stores keep the extent list exact
// (so the release can publish it); any legacy store, or overflow of the
// list, downgrades the page to untracked — its release invalidates the
// whole page at the peers, exactly as before spans existed.
func (c *Cache) noteWriteExtent(ps *pageState, off, n int, span bool) {
	if !ps.wtracked {
		return
	}
	if !span {
		ps.wtracked = false
		ps.wext = ps.wext[:0]
		return
	}
	ps.wext = mergeRange(ps.wext, off, off+n)
	if len(ps.wext) > maxWriteExts {
		ps.wtracked = false
		ps.wext = ps.wext[:0]
	}
}

// ReadModifyWrite8 applies f to the 8 bytes at addr through a single
// cache access: one AccessTime, one residency walk, and in consistency
// regions one store record — the fused path behind F64.Add/I64.Add,
// which otherwise pay a full read plus a full write. The window must
// not cross a page boundary (any 8-aligned address qualifies); the rare
// straddling caller must use Read+Write.
func (c *Cache) ReadModifyWrite8(addr layout.Addr, region bool, f func(b []byte)) error {
	page := c.geo.PageOf(addr)
	off := c.geo.PageOffset(addr)
	if off+8 > c.geo.PageSize {
		return fmt.Errorf("pagecache: fused access at %#x crosses a page boundary", uint64(addr))
	}
	c.clock.Advance(c.cfg.CPU.AccessTime)
	le, err := c.ensureValidRange(page, page, off, 8)
	if err != nil {
		return err
	}
	if !region {
		c.ordinaryStore(le, page, off, 8, false)
	}
	base := c.pageBaseInLine(page)
	b := le.data[base+off : base+off+8]
	f(b)
	if region {
		ps := &le.pages[c.pageIndex(page)]
		c.logRecord(addr, b, page, ps)
		if ps.dirty {
			copy(ps.twin[off:], b)
		}
	}
	return nil
}

// maxFreeTwins bounds the twin free list (1 MiB of 4 KiB pages), so one
// interval that dirtied a huge working set does not pin that many
// buffers for the rest of the run; the excess goes to the collector.
const maxFreeTwins = 256

// newTwin snapshots a page about to take its first ordinary write of
// the interval.
func (c *Cache) newTwin(page []byte) []byte {
	var twin []byte
	if n := len(c.freeTwins); n > 0 {
		twin, c.freeTwins = c.freeTwins[n-1], c.freeTwins[:n-1]
	} else {
		twin = make([]byte, len(page))
	}
	copy(twin, page)
	return twin
}

// markClean ends page p's dirty state once its diff has been taken: the
// twin goes back to the free list and the interval's extent tracking is
// reset.
func (c *Cache) markClean(p layout.PageID, ps *pageState) {
	if len(c.freeTwins) < maxFreeTwins {
		c.freeTwins = append(c.freeTwins, ps.twin)
	}
	ps.dirty = false
	ps.twin = nil
	ps.wtracked = false
	ps.wext = ps.wext[:0]
	delete(c.dirtyPages, p)
}

func (c *Cache) pageIndex(p layout.PageID) int {
	return int(p - c.geo.FirstPage(c.geo.LineOf(p)))
}

func (c *Cache) pageBaseInLine(p layout.PageID) int {
	return c.pageIndex(p) * c.geo.PageSize
}

// ensureValidRange makes bytes [off, off+n) of page p resident and
// usable, faulting and fetching as required, and returns its line; the
// access goes on to page last, which a page fill fetches too. A
// page that is valid apart from stale ranges (partial staleness) is a
// hit as long as the access does not overlap any of them; an access
// that does overlap demotes the page to fully invalid — flushing its
// diff home first if it is dirty, so concurrent disjoint writers merge
// — and refetches.
func (c *Cache) ensureValidRange(p, last layout.PageID, off, n int) (*lineEntry, error) {
	line := c.geo.LineOf(p)
	idx := c.pageIndex(p)
	fresh := c.reference(line)
	le, resident := c.lines[line]
	if resident {
		ps := &le.pages[idx]
		if ps.valid {
			if len(ps.stale) == 0 || !overlapsRanges(ps.stale, off, off+n) {
				if fresh || !c.bimodal() {
					c.promote(le)
				}
				c.st.Hits++
				le.touched |= 1 << idx
				return le, nil
			}
			if err := c.demoteStale(p, le, ps); err != nil {
				return nil, err
			}
		}
	}
	le, err := c.fault(line, p, last)
	if err != nil {
		return nil, err
	}
	if resident && fresh && c.bimodal() {
		c.promote(le) // a refetch into a resident line is a reference to it
	}
	if !le.pages[idx].valid {
		return nil, fmt.Errorf("pagecache: page %d still invalid after fetch", p)
	}
	le.touched |= 1 << idx
	return le, nil
}

// demoteStale turns a partially-stale page fully invalid because an
// access needs stale bytes. The invalidation cost was already charged
// when the extent notice arrived; a dirty page pushes its diff home
// first (the refetch must return the merge of our writes and the
// peer's).
func (c *Cache) demoteStale(p layout.PageID, le *lineEntry, ps *pageState) error {
	if ps.dirty {
		base := c.pageBaseInLine(p)
		d := c.diffForHome(p, le.data[base:base+c.geo.PageSize], ps.twin)
		at, err := c.be.FlushEvict([]proto.PageDiff{d}, c.clock.Now())
		if err != nil {
			return fmt.Errorf("pagecache: stale-demotion flush: %w", err)
		}
		c.clock.AdvanceTo(at)
		c.st.MsgsSent++
		c.st.InvalFlushes++
		c.markClean(p, ps)
		c.flushedDirty[p] = struct{}{}
	}
	ps.valid = false
	ps.stale = ps.stale[:0]
	return nil
}

// fault brings a line in (or revalidates its invalid pages), combining
// the fetch with other invalidated same-homed pages, and issues the
// stride prefetch. A resident line's invalid pages are fetched at page
// granularity — an acquire-driven invalidation of one 4 KiB page must
// not move a whole multi-page line again — but for those it held that
// the thread never touched (unusedPages). A line the cache does not hold
// is fetched whole, or, while the thread uses its lines sparsely, as
// the pages p through last of it that the access covers (see
// fillWindow).
func (c *Cache) fault(line layout.LineID, p, last layout.PageID) (*lineEntry, error) {
	faultStart := c.clock.Now()
	defer func() { c.st.FaultStall += c.clock.Now() - faultStart }()
	c.clock.Advance(c.cfg.CPU.FaultOverhead)
	c.st.Misses++
	stride := c.noteMiss(line)
	if _, inflight := c.pending[line]; !inflight {
		// A frame fill issues no stride prefetch: the lines around a fork
		// page are fork pages too, which frame fills serve, and a
		// prefetched line would be held, and so no longer one.
		if served, err := c.frameFill(line, p, last); served || err != nil {
			return c.lines[line], err
		}
	}

	var (
		data      []byte
		readyAt   vtime.Time
		err       error
		fullLines []layout.LineID
		pages     = c.pageList[:0]
		pageFill  bool
	)
	c.filling, c.skipped = "line", 0
	if pe, ok := c.pending[line]; ok {
		pe.h.Park() // only if the helper has not delivered yet
		res := <-pe.ch
		delete(c.pending, line)
		if res.Err != nil {
			c.settle(pe, outcomeWasted)
			return nil, res.Err
		}
		// Pages whose needs grew after the prefetch was issued must not
		// be installed from it, nor may a page this thread wrote since
		// (prefetchStale); force a demand fetch for the whole line in
		// that case (rare). The prefetch counts as wasted then, and only
		// then not as a hit or a late one.
		switch {
		case c.prefetchStale(line, pe):
			c.settle(pe, outcomeWasted)
			proto.PutBuf(res.Data)
			c.needList = c.appendNeeds(c.needList[:0], line)
			data, readyAt, err = c.be.FetchLine(line, c.needList, c.clock.Now())
		case res.ReadyAt > c.clock.Now():
			c.settle(pe, outcomeLate)
			data, readyAt = res.Data, res.ReadyAt
		default:
			c.settle(pe, outcomeHit)
			data, readyAt = res.Data, c.clock.Now()
		}
		fullLines = c.faultLine(line)
	} else {
		if le, resident := c.lines[line]; resident {
			c.filling = "pages"
			var skip uint64
			if le.partial {
				le.partial = false
				c.filling = "sector"
				c.st.SectorFills++
			} else {
				skip = c.unusedPages(le, p, last)
			}
			pages = c.appendInvalidPages(pages, le, skip)
		} else if c.sparse() {
			pages = c.coveredPages(pages, line, p, last)
			pageFill = true
			c.filling = "page"
		} else {
			fullLines = c.faultLine(line)
		}
		pages = c.appendCompanions(pages, line)
		c.pageList = pages
		needs := c.needList[:0]
		for _, l := range fullLines {
			needs = c.appendNeeds(needs, l)
		}
		for _, p := range pages {
			needs = c.appendNeed(needs, p)
		}
		c.needList = needs
		if len(pages) > 0 {
			// Fetch combining: one request revalidates every invalidated
			// same-homed page, instead of K separate misses.
			data, readyAt, err = c.be.FetchLines(fullLines, pages, needs, c.clock.Now())
			c.st.CombinedFetches++
			c.st.CombinedLines += int64(len(fullLines) + len(pages) - 1)
		} else {
			data, readyAt, err = c.be.FetchLine(line, needs, c.clock.Now())
		}
	}
	if err != nil {
		return nil, err
	}
	if want := c.geo.LineSize()*len(fullLines) + c.geo.PageSize*len(pages); len(data) != want {
		return nil, fmt.Errorf("pagecache: fetch for line %d returned %d bytes, want %d", line, len(data), want)
	}
	c.clock.AdvanceTo(readyAt)
	c.st.BytesReceived += int64(len(data))

	// Install the full line, or the entry a page fill fetched pages of,
	// first (its eviction choice must not see the page installs below),
	// then the pages. A page whose line that install just evicted is
	// dropped — it stays invalid with its needs intact and simply
	// refaults later. A single line's reply is the line's frame; a
	// combined reply is copied out into a frame per line and recycled.
	combined := len(pages) > 0
	off := 0
	for _, l := range fullLines {
		frame := data
		if combined {
			frame = c.newFrame()
			copy(frame, data[off:])
		}
		c.install(l, frame)
		off += c.geo.LineSize()
	}
	if pageFill {
		c.pageFillEntry(line)
	}
	for _, p := range pages {
		c.installPage(p, data[off:off+c.geo.PageSize])
		off += c.geo.PageSize
	}
	if combined {
		proto.PutBuf(data)
	}
	le, ok := c.lines[line]
	if !ok {
		return nil, fmt.Errorf("pagecache: line %d not resident after fetch", line)
	}

	// Anticipatory paging (Section II's prefetching strategy), deepened:
	// up to PrefetchDepth asynchronous requests at the detected stride,
	// while the throttle lets it. Under bimodal insertion the cache keeps
	// part of a sweep resident, so the lookahead steps past resident
	// lines, up to the capacity of them, to the first line that would
	// miss; those do not count toward the depth.
	if c.cfg.PrefetchDepth > 0 && !c.backingOff() {
		next := int64(line)
		passed := 0
		for k := 0; k < c.cfg.PrefetchDepth; k++ {
			next += stride
			if next < 0 {
				break
			}
			l := layout.LineID(next)
			if _, resident := c.lines[l]; resident {
				if c.bimodal() && passed < c.capacity {
					passed++
					k--
				}
				continue
			}
			if _, inflight := c.pending[l]; inflight {
				continue
			}
			needs := c.appendNeeds(nil, l) // a list of its own: the prefetch outlives the fault
			h := new(Handoff)
			h.Reset(c.cfg.Gate)
			if ch := c.be.StartPrefetch(l, needs, c.clock.Now(), h); ch != nil {
				c.st.PrefetchIssued++
				c.winIssued++
				c.pending[l] = &prefetchEntry{
					ch:        ch,
					h:         h,
					needsSent: c.needsSnapshot(l),
				}
			}
		}
		c.closeWindow()
	}
	return le, nil
}

// faultLine is the fault's list of whole lines to fetch when it holds
// only line: the cache's own one-element array, so a fault allocates no
// list (the backend reads it during the call and keeps none of it).
func (c *Cache) faultLine(line layout.LineID) []layout.LineID {
	c.oneLine[0] = line
	return c.oneLine[:]
}

// settle counts how prefetch pe ended on every record that counted its
// issue, and a consumed one in the throttle's open window.
func (c *Cache) settle(pe *prefetchEntry, o outcome) {
	if !pe.uncounted {
		*o.field(c.st)++
		if pe.frozen != nil {
			*o.field(pe.frozen)++
		}
	}
	if (o == outcomeHit || o == outcomeLate) && c.skip == 0 {
		c.winUsed++
	}
}

// backingOff is the throttle's decision at a demand miss: true, with
// one miss fewer left, while a back-off runs.
func (c *Cache) backingOff() bool {
	if c.skip == 0 {
		return false
	}
	c.skip--
	return true
}

// closeWindow ends the open window once it holds prefetchWindow
// prefetches. If fewer than half of them were consumed, the next
// c.backoff misses issue nothing and the back-off after them doubles; a
// window that passes resets it.
func (c *Cache) closeWindow() {
	if c.winIssued < prefetchWindow {
		return
	}
	pass := 2*c.winUsed >= c.winIssued
	c.winIssued, c.winUsed = 0, 0
	if pass {
		c.backoff = minBackoff
		return
	}
	c.skip = c.backoff
	c.backoff = min(2*c.backoff, maxBackoff)
}

// noteMiss feeds the stride detector one demand miss and returns the
// line stride prefetch should run at: the repeated inter-miss delta
// when the last two deltas agree, else the sequential default +1.
func (c *Cache) noteMiss(line layout.LineID) int64 {
	stride := int64(1)
	if c.haveMiss {
		d := int64(line) - int64(c.lastMiss)
		if d != 0 && d == c.lastStride {
			stride = d
		}
		c.lastStride = d
	}
	c.haveMiss = true
	c.lastMiss = line
	return stride
}

// maxCombinePages bounds how many companion pages one combined fetch
// may carry, so a huge invalidation set cannot flood one request.
const maxCombinePages = 32

// appendInvalidPages appends the invalid pages of resident line le, in
// page order, but for those in the mask skip, which it counts as left
// invalid.
func (c *Cache) appendInvalidPages(out []layout.PageID, le *lineEntry, skip uint64) []layout.PageID {
	first := c.geo.FirstPage(le.id)
	for i := range le.pages {
		switch {
		case le.pages[i].valid:
		case skip>>i&1 != 0:
			c.skipped++
			c.st.SkippedPages++
		default:
			out = append(out, first+layout.PageID(i))
		}
	}
	return out
}

// appendCompanions appends the pages with needs of other resident lines
// homed with line: the fault about to fetch line can revalidate them all
// in one combined request, at page granularity. It walks whichever is
// smaller, the resident lines' pages or the pages with needs; an
// out-of-core sweep holds few lines and has notices for many pages.
func (c *Cache) appendCompanions(out []layout.PageID, line layout.LineID) []layout.PageID {
	home := c.geo.HomeOf(c.geo.FirstPage(line))
	start := len(out)
	companion := func(l layout.LineID) bool {
		if l == line {
			return false
		}
		if _, inflight := c.pending[l]; inflight {
			return false // let the prefetch land; merging would double-fetch
		}
		return c.geo.HomeOf(c.geo.FirstPage(l)) == home
	}
	if len(c.lines)*c.geo.LinePages < len(c.pageNeeds) {
		for l := range c.lines {
			if !companion(l) {
				continue
			}
			first := c.geo.FirstPage(l)
			for i := range c.geo.LinePages {
				if p := first + layout.PageID(i); len(c.pageNeeds[p].tags) > 0 {
					out = append(out, p)
				}
			}
		}
	} else {
		for p := range c.pageNeeds {
			// A page of a line not held waits for that line's own fault.
			l := c.geo.LineOf(p)
			if _, resident := c.lines[l]; resident && companion(l) {
				out = append(out, p)
			}
		}
	}
	// Deterministic choice when the candidate set is capped.
	slices.Sort(out[start:])
	return out[:start+min(len(out)-start, maxCombinePages)]
}

// install merges a fetched line's frame with resident state: locally
// dirty pages keep their contents (the multiple-writer protocol — our
// unflushed writes must survive), everything else takes the fetched
// bytes and becomes valid. A whole-line fetch finds the line resident
// only when a lock grant's extents made it so while its prefetch was in
// flight (InstallGrantExtents): the grant's bytes, and the records
// patched in or stored since, are newer than the fetch's, so a valid
// page takes the fetched bytes only over its stale ranges. A page that
// takes them whole gets this thread's unreleased store records back on
// top (reapplyRecords). The frame is the cache's (see Backend): a new
// entry adopts it as its storage, and a resident line copies out of it
// and hands it back.
func (c *Cache) install(line layout.LineID, frame []byte) {
	le, resident := c.lines[line]
	if !resident {
		c.evictIfFull()
		// The modelled copy is still charged below.
		le = c.newEntry(line, frame)
		c.noteFill(le)
	} else {
		for i := range le.pages {
			ps := &le.pages[i]
			off := i * c.geo.PageSize
			switch {
			case ps.dirty:
			case ps.valid:
				for _, r := range ps.stale {
					copy(le.data[off+r.lo:off+r.hi], frame[off+r.lo:off+r.hi])
				}
			default:
				copy(le.data[off:off+c.geo.PageSize], frame[off:off+c.geo.PageSize])
			}
		}
		proto.PutBuf(frame)
	}
	first := c.geo.FirstPage(line)
	for i := range le.pages {
		ps := &le.pages[i]
		if !ps.valid && !ps.dirty {
			c.reapplyRecords(le, first+layout.PageID(i))
		}
		ps.valid = true
		c.hold(le, i)
		if !ps.dirty {
			// Fetched bytes are fresh: any partial staleness is cured.
			// (A dirty page kept its local contents above, so its stale
			// ranges — if any — stay in force, and so do the interval
			// tags a future refetch of it must quote.)
			ps.stale = ps.stale[:0]
			c.clearNeeds(first + layout.PageID(i))
		}
	}
	c.clock.Advance(c.cfg.CPU.CopyTime(c.geo.LineSize()))
	if resident {
		c.touch(le)
	} else {
		c.place(le)
	}
}

// installPage installs one fetched page into its resident line, making
// it valid. Requested pages are always invalid and therefore clean
// (invalidation flushes dirty bytes first), so the fetched bytes land
// unconditionally, with this thread's unreleased store records on top.
// If the line is no longer resident the bytes are dropped: the page
// keeps its needs and refaults later.
func (c *Cache) installPage(p layout.PageID, data []byte) {
	le, ok := c.lines[c.geo.LineOf(p)]
	if !ok {
		return
	}
	base := c.pageBaseInLine(p)
	copy(le.data[base:base+c.geo.PageSize], data)
	c.reapplyRecords(le, p)
	idx := c.pageIndex(p)
	ps := &le.pages[idx]
	ps.valid = true
	c.hold(le, idx)
	ps.stale = ps.stale[:0]
	c.clearNeeds(p)
	c.clock.Advance(c.cfg.CPU.CopyTime(c.geo.PageSize))
	c.touch(le)
}

// reapplyRecords writes this thread's unreleased store records on page
// p over the bytes a fetch just installed there in le, in log order:
// records travel home only with a release, so the home's copy lacks
// them, and without them the thread would read back older bytes than it
// stored (its line was evicted, or a notice invalidated the page, inside
// the critical section).
func (c *Cache) reapplyRecords(le *lineEntry, p layout.PageID) {
	for _, rec := range c.records {
		if addr := layout.Addr(rec.Addr); c.geo.PageOf(addr) == p {
			copy(le.data[c.pageBaseInLine(p)+c.geo.PageOffset(addr):], rec.Data)
			c.clock.Advance(c.cfg.CPU.ApplyTime(len(rec.Data)))
		}
	}
}

// appendNeeds appends the outstanding interval tags of each page of a
// line.
func (c *Cache) appendNeeds(needs []proto.PageNeed, line layout.LineID) []proto.PageNeed {
	first := c.geo.FirstPage(line)
	for i := 0; i < c.geo.LinePages; i++ {
		needs = c.appendNeed(needs, first+layout.PageID(i))
	}
	return needs
}

// cmpTag is the order a page's tags are kept and quoted in: by writer,
// then interval, so message bytes are a function of the tag set.
func cmpTag(a, b proto.IntervalTag) int {
	if c := cmp.Compare(a.Writer, b.Writer); c != 0 {
		return c
	}
	return cmp.Compare(a.Interval, b.Interval)
}

// appendNeed appends the outstanding interval tags of a single page, if
// it has any.
func (c *Cache) appendNeed(needs []proto.PageNeed, p layout.PageID) []proto.PageNeed {
	tags := c.pageNeeds[p].tags
	if len(tags) == 0 {
		return needs
	}
	return append(needs, proto.PageNeed{Page: uint64(p), Tags: slices.Clone(tags)})
}

// needsSnapshot copies the needs of line's pages for a prefetch about
// to quote them; nil when no page has any.
func (c *Cache) needsSnapshot(line layout.LineID) map[layout.PageID][]proto.IntervalTag {
	var snap map[layout.PageID][]proto.IntervalTag
	first := c.geo.FirstPage(line)
	for i := 0; i < c.geo.LinePages; i++ {
		p := first + layout.PageID(i)
		if tags := c.pageNeeds[p].tags; len(tags) > 0 {
			if snap == nil {
				snap = make(map[layout.PageID][]proto.IntervalTag)
			}
			snap[p] = slices.Clone(tags)
		}
	}
	return snap
}

// prefetchStale reports whether any page of the line accumulated needs
// after the prefetch was issued, or this thread wrote one that is not
// valid any more: the line was not resident when the prefetch was
// issued, so a resident line was made so since, by a lock grant's
// extents (InstallGrantExtents), and the fetch's copy of a page this
// thread then wrote lacks the write.
func (c *Cache) prefetchStale(line layout.LineID, pe *prefetchEntry) bool {
	if le, granted := c.lines[line]; granted {
		for i := range le.pages {
			if ps := &le.pages[i]; !ps.valid && ps.own.interval != 0 {
				return true
			}
		}
	}
	first := c.geo.FirstPage(line)
	for i := 0; i < c.geo.LinePages; i++ {
		p := first + layout.PageID(i)
		sent := pe.needsSent[p]
		for _, tag := range c.pageNeeds[p].tags {
			if _, ok := slices.BinarySearchFunc(sent, tag, cmpTag); !ok {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Eviction.

// evict removes a line, flushing diffs of its dirty pages home, and
// hands its frame back to the pool: the diffs are copies, so nothing
// refers to the frame any more. The entry is kept for the next install.
func (c *Cache) evict(le *lineEntry) {
	if _, inflight := c.pending[le.id]; inflight {
		// A lock grant made the line resident while its prefetch was in
		// flight (InstallGrantExtents), and what this thread wrote on it
		// since is not in the prefetch: no fault may install it now.
		c.discardPrefetch(le.id, outcomeWasted)
	}
	c.st.Evictions++
	c.observe(le)
	diffs := c.diffDirtyPages(le, true)
	if len(diffs) > 0 {
		c.st.DirtyEvicts++
		// Acked: a posted flush can be overtaken by this thread's own
		// refetch of the line, which would read the home's bytes from
		// before it.
		at, err := c.be.FlushSync(diffs, c.clock.Now())
		if err != nil {
			panic(fmt.Sprintf("pagecache: evict flush failed: %v", err))
		}
		c.clock.AdvanceTo(at)
		c.st.MsgsSent++
	}
	first := c.geo.FirstPage(le.id)
	for i := range le.pages {
		if own := le.pages[i].own; own.interval != 0 {
			c.ownEvicted[first+layout.PageID(i)] = own
		}
	}
	delete(c.lines, le.id)
	proto.PutBuf(le.data)
	if len(c.freeEntries) < maxFreeEntries {
		for i := range le.pages {
			ps := &le.pages[i]
			*ps = pageState{stale: ps.stale[:0], wext: ps.wext[:0]}
		}
		*le = lineEntry{pages: le.pages}
		c.freeEntries = append(c.freeEntries, le)
	}
}

// maxFreeEntries bounds the entry free list, as maxFreeTwins bounds the
// twins': a DropRange of a wide range does not pin its entries.
const maxFreeEntries = 64

// newEntry makes line resident with frame as its storage, every page
// invalid and clean, in a recycled entry when there is one.
func (c *Cache) newEntry(line layout.LineID, frame []byte) *lineEntry {
	var le *lineEntry
	if n := len(c.freeEntries); n > 0 {
		le, c.freeEntries = c.freeEntries[n-1], c.freeEntries[:n-1]
	} else {
		le = &lineEntry{pages: make([]pageState, c.geo.LinePages)}
	}
	le.id, le.data = line, frame
	c.lines[line] = le
	return le
}

// newFrame returns storage for one line: a whole pooled buffer, its
// contents unspecified.
func (c *Cache) newFrame() []byte {
	return proto.GetBuf(c.geo.LineSize())[:c.geo.LineSize()]
}

// diffDirtyPages computes diffs of the line's dirty pages against their
// twins. If flushed is true the pages move to the flushedDirty set
// (their bytes are home already; the closing DiffBatch lists them as
// EmptyPages).
func (c *Cache) diffDirtyPages(le *lineEntry, flushed bool) []proto.PageDiff {
	var diffs []proto.PageDiff
	first := c.geo.FirstPage(le.id)
	for i := range le.pages {
		ps := &le.pages[i]
		if !ps.dirty {
			continue
		}
		p := first + layout.PageID(i)
		base := i * c.geo.PageSize
		d := c.diffForHome(p, le.data[base:base+c.geo.PageSize], ps.twin)
		diffs = append(diffs, d)
		c.markClean(p, ps)
		if flushed {
			c.flushedDirty[p] = struct{}{}
		}
	}
	return diffs
}

// Word-at-a-time byte-scan constants (the classic has-zero-byte trick:
// (x-lo) &^ x & hi is nonzero iff some byte of x is zero, and — because
// the subtraction only borrows PAST a zero byte — its least significant
// set bit pins the first zero byte exactly).
const (
	lo64 = 0x0101010101010101
	hi64 = 0x8080808080808080
)

// nextRun finds the first maximal run of bytes at or after from in which
// cur differs from twin: cur[i:j]. With no further difference it returns
// i == j == len(cur). The scan is word-wide: equal regions are skipped
// eight bytes per compare, and inside a run the first equal byte is
// found with one XOR plus a zero-byte test per word — run edges stay
// byte-precise.
func nextRun(cur, twin []byte, from int) (i, j int) {
	n := len(cur)
	i = from
	// Skip equal bytes: whole words first, then the byte tail (which also
	// positions i on the exact first differing byte of an unequal word).
	for i+8 <= n && binary.LittleEndian.Uint64(cur[i:]) == binary.LittleEndian.Uint64(twin[i:]) {
		i += 8
	}
	for i < n && cur[i] == twin[i] {
		i++
	}
	if i >= n {
		return n, n
	}
	// Run body: extend while bytes differ; a zero byte in the XOR is the
	// first equal byte and ends the run.
	j = i + 1
	for j < n {
		if j+8 <= n {
			x := binary.LittleEndian.Uint64(cur[j:]) ^ binary.LittleEndian.Uint64(twin[j:])
			if z := (x - lo64) &^ x & hi64; z != 0 {
				j += bits.TrailingZeros64(z) >> 3
				break
			}
			j += 8
			continue
		}
		if cur[j] == twin[j] {
			break
		}
		j++
	}
	return i, j
}

// diffForHome builds the diff of dirty page p that is about to travel to
// its home, charging the modelled diff and counting the bytes shipped.
// Anything retained from earlier lazily-owned intervals travels with
// it: the home clears our ownership when these bytes arrive.
func (c *Cache) diffForHome(p layout.PageID, cur, twin []byte) proto.PageDiff {
	d := diffPage(uint64(p), cur, twin)
	c.clock.Advance(c.cfg.CPU.DiffTime(c.geo.PageSize))
	c.st.DiffsCreated++
	if prior := c.owned.Take(p); prior != nil {
		d.Runs = append(prior, d.Runs...)
	}
	n := int64(d.PayloadBytes())
	c.st.DiffBytes += n
	c.st.BytesSent += n
	return d
}

// diffPage builds the maximal changed-byte runs of cur against twin for
// shipping.
func diffPage(page uint64, cur, twin []byte) proto.PageDiff {
	return proto.PageDiff{Page: page, Runs: collectRuns(cur, func(from int) (int, int) {
		return nextRun(cur, twin, from)
	})}
}

// collectRuns builds the run list of the src ranges next enumerates
// (next(from) is the first range [i, j) at or after from, i == len(src)
// when there is none). A first pass counts runs and bytes, so the list
// and one data arena are each allocated exactly once whatever the run
// count; every run's Data is a capacity-clipped slice of the arena, so
// an append to one run can never write into its neighbour.
func collectRuns(src []byte, next func(from int) (i, j int)) []proto.DiffRun {
	nruns, nbytes := 0, 0
	for i, j := next(0); i < len(src); i, j = next(j) {
		nruns++
		nbytes += j - i
	}
	if nruns == 0 {
		return nil
	}
	runs := make([]proto.DiffRun, 0, nruns)
	arena := make([]byte, 0, nbytes)
	for i, j := next(0); i < len(src); i, j = next(j) {
		a := len(arena)
		arena = append(arena, src[i:j]...)
		runs = append(runs, proto.DiffRun{Off: uint32(i), Data: arena[a:len(arena):len(arena)]})
	}
	return runs
}

// ---------------------------------------------------------------------
// Release / acquire (the RegC protocol surface used by package core).

// ReleaseSet is everything a release point must transmit: the write
// notice content for the manager and per-home DiffBatches for the
// memory servers.
type ReleaseSet struct {
	// Tag identifies the closing interval.
	Tag proto.IntervalTag
	// Pages is the ordinary-region dirty page set for the write notice.
	Pages []uint64
	// Records is the consistency-region store log for the write notice.
	Records []proto.StoreRecord
	// ByHome is indexed by memory-server index: the DiffBatch bound for
	// that home, nil where the release has nothing to tell it, and empty
	// when it has nothing to tell any. Complete only after FinishRelease.
	ByHome []*proto.DiffBatch

	// deferred holds the shared dirty pages whose diff computation
	// FinishRelease performs off the release's critical path.
	deferred []deferredDiff
}

// deferredDiff is one shared dirty page whose byte diff is computed in
// FinishRelease. It pins the line entry: the cache must not be touched
// between BeginRelease and FinishRelease.
type deferredDiff struct {
	le   *lineEntry
	idx  int // page index within the line
	page layout.PageID
	home int
}

// CollectRelease closes the current interval in one step; equivalent to
// BeginRelease immediately followed by FinishRelease. Callers that want
// to overlap the manager's write-notice round trip with diff work use
// the two-step form instead.
func (c *Cache) CollectRelease() *ReleaseSet {
	rs := c.BeginRelease()
	c.FinishRelease(rs)
	return rs
}

// BeginRelease closes the current interval cheaply: it scans the dirty
// set to produce the write-notice content (Pages, Records, Tag) without
// computing any shared-page byte diffs — those are recorded as deferred
// work for FinishRelease. Every page named in Pages is guaranteed a
// DiffBatch entry at its home carrying this interval's tag (even a
// silent store ships a zero-run diff), so fetches parked on the tag
// always wake. The caller MUST call FinishRelease on the returned set
// before touching the cache again.
func (c *Cache) BeginRelease() *ReleaseSet {
	c.interval++
	c.st.Releases++
	rs := &ReleaseSet{Tag: proto.IntervalTag{Writer: c.cfg.Writer, Interval: c.interval}}

	// Ordinary-region dirty pages from resident lines: shared pages ship
	// eager diffs (computed in FinishRelease); unshared pages retain
	// their diffs locally and only claim ownership at the home. The
	// unshared path diffs eagerly — the bytes must be in the owned store
	// before the batch carrying the claim can be shipped, because the
	// home may pull them the moment the batch lands.
	//
	// Scan in line order: the notice page list, the per-home batch
	// contents and the diff-time clock advances must not depend on map
	// iteration order.
	dirtyLines := c.lineScratch[:0]
	for id, le := range c.lines {
		if lineDirty(le) {
			dirtyLines = append(dirtyLines, id)
		}
	}
	slices.Sort(dirtyLines)
	c.lineScratch = dirtyLines
	for _, id := range dirtyLines {
		le := c.lines[id]
		first := c.geo.FirstPage(le.id)
		home := c.geo.HomeOf(first)
		for i := range le.pages {
			ps := &le.pages[i]
			if !ps.dirty {
				continue
			}
			p := first + layout.PageID(i)
			if _, isShared := c.shared[p]; isShared || c.cfg.NoLazyOwner {
				rs.Pages = append(rs.Pages, uint64(p))
				rs.Pages = appendExtentWords(rs.Pages, ps)
				rs.deferred = append(rs.deferred, deferredDiff{le: le, idx: i, page: p, home: home})
				continue // dirty state (and the twin) stays until FinishRelease
			}
			base := i * c.geo.PageSize
			changed := c.owned.PutDiff(p, le.data[base:base+c.geo.PageSize], ps.twin)
			c.clock.Advance(c.cfg.CPU.DiffTime(c.geo.PageSize))
			c.st.DiffsCreated++
			if !changed {
				c.markClean(p, ps)
				continue // silent stores: nothing changed, nothing to tell anyone
			}
			rs.Pages = append(rs.Pages, uint64(p))
			rs.Pages = appendExtentWords(rs.Pages, ps)
			c.markClean(p, ps)
			c.st.OwnedClaims++
			b := c.batchFor(rs, home)
			b.OwnedPages = append(b.OwnedPages, uint64(p))
		}
	}

	// Pages flushed early by eviction/invalidation: bytes are home, but
	// the tag must still be marked and peers must still invalidate.
	flushed := c.pageScratch[:0]
	for p := range c.flushedDirty {
		flushed = append(flushed, p)
	}
	slices.Sort(flushed)
	c.pageScratch = flushed
	for _, p := range flushed {
		rs.Pages = append(rs.Pages, uint64(p))
		b := c.batchFor(rs, c.geo.HomeOf(p))
		b.EmptyPages = append(b.EmptyPages, uint64(p))
	}
	clear(c.flushedDirty)

	// Consistency-region store records, routed to each record's home and
	// (in the write notice, which takes the log itself) to the manager:
	// two copies leave the thread.
	for _, rec := range c.records {
		p := c.geo.PageOf(layout.Addr(rec.Addr))
		b := c.batchFor(rs, c.geo.HomeOf(p))
		b.Records = append(b.Records, rec)
		c.st.BytesSent += 2 * int64(len(rec.Data))
	}
	if len(c.records) > 0 {
		c.noteRecordPages()
	}
	rs.Records, c.records = c.records, nil
	return rs
}

// noteRecordPages adds the closing interval's record pages to
// recordPages, after dropping every page written again since its entry
// was added and every entry left empty.
func (c *Cache) noteRecordPages() {
	k := 0
	for i := range c.recordPages {
		e := &c.recordPages[i]
		live := e.pages[:0]
		for _, p := range e.pages {
			if c.lastOwnWrite(p) == e.interval {
				live = append(live, p)
			}
		}
		e.pages = live
		if len(live) > 0 {
			c.recordPages[k], c.recordPages[i] = c.recordPages[i], c.recordPages[k]
			k++
		}
	}
	c.recordPages = slices.Grow(c.recordPages[:k], 1)[:k+1]
	e := &c.recordPages[k]
	e.interval, e.pages = c.interval, e.pages[:0]
	for _, rec := range c.records {
		// Records are logged in store order: a page repeats mostly
		// back to back, and a repeat further apart only stamps twice.
		if p := c.geo.PageOf(layout.Addr(rec.Addr)); len(e.pages) == 0 || e.pages[len(e.pages)-1] != p {
			e.pages = append(e.pages, p)
		}
	}
}

// lastOwnWrite is the interval of this thread's latest write to p that
// the cache remembers, resident or evicted (0 for none).
func (c *Cache) lastOwnWrite(p layout.PageID) uint64 {
	if le, ok := c.lines[c.geo.LineOf(p)]; ok {
		if own := le.pages[c.pageIndex(p)].own; own.interval != 0 {
			return own.interval
		}
	}
	return c.ownEvicted[p].interval
}

// appendExtentWords publishes a dirty page's span-written extents as
// extent words immediately after its page word in a write-notice page
// list. A page whose interval had any legacy (untracked) store publishes
// nothing — its peers fall back to whole-page invalidation.
func appendExtentWords(pages []uint64, ps *pageState) []uint64 {
	if !ps.wtracked || len(ps.wext) == 0 {
		return pages
	}
	for _, r := range ps.wext {
		pages = append(pages, proto.PackSpanExtent(r.lo, r.hi-r.lo))
	}
	return pages
}

// FinishRecordHomes computes the deferred shared-page diffs bound for the
// homes whose batch carries store records, and leaves the rest to
// FinishRelease. Those batches are complete once it returns, so a release
// can ship them ahead of its write notice and the others behind it.
func (c *Cache) FinishRecordHomes(rs *ReleaseSet) {
	if len(rs.Records) == 0 {
		return
	}
	rest := rs.deferred[:0]
	for _, dd := range rs.deferred {
		if b := rs.ByHome[dd.home]; b == nil || len(b.Records) == 0 {
			rest = append(rest, dd)
			continue
		}
		c.finishDeferred(rs, dd)
	}
	rs.deferred = rest
}

// FinishRelease computes the deferred shared-page diffs of a
// BeginRelease that FinishRecordHomes left, and completes the per-home
// batches. A deferred page whose stores turn out silent still ships a
// zero-run diff: the page was already named in the write notice, so its
// home must see the tag or fetches parked on it would hang forever.
func (c *Cache) FinishRelease(rs *ReleaseSet) {
	for _, dd := range rs.deferred {
		c.finishDeferred(rs, dd)
	}
	rs.deferred = nil
}

// finishDeferred diffs one deferred page into its home's batch.
func (c *Cache) finishDeferred(rs *ReleaseSet, dd deferredDiff) {
	ps := &dd.le.pages[dd.idx]
	base := dd.idx * c.geo.PageSize
	d := c.diffForHome(dd.page, dd.le.data[base:base+c.geo.PageSize], ps.twin)
	b := c.batchFor(rs, dd.home)
	b.Diffs = append(b.Diffs, d)
	c.markClean(dd.page, ps)
}

// batchFor is the release's batch for home, made on first use: a batch
// exists only once it has something to carry.
func (c *Cache) batchFor(rs *ReleaseSet, home int) *proto.DiffBatch {
	if rs.ByHome == nil {
		rs.ByHome = make([]*proto.DiffBatch, c.geo.NumServers)
	}
	b := rs.ByHome[home]
	if b == nil {
		b = &proto.DiffBatch{Tag: rs.Tag}
		rs.ByHome[home] = b
	}
	return b
}

// ApplyNotices processes acquire-side write notices: pages named by
// other writers' ordinary-region notices are invalidated (a dirty local
// copy first flushes its diff home so concurrent disjoint writes merge),
// and fine-grained records are patched into resident pages in place.
func (c *Cache) ApplyNotices(notices []proto.Notice) error {
	for i := range notices {
		n := &notices[i]
		if n.Tag.Writer == c.cfg.Writer {
			c.ownNoticeBack(n)
			continue
		}
		c.st.NoticesReceived++
		// The page list carries plain page words, each optionally followed
		// by the releasing writer's span extents for that page.
		for k := 0; k < len(n.Pages); {
			pu := n.Pages[k]
			k++
			if proto.IsSpanExtent(pu) {
				continue // malformed leading extent word; skip defensively
			}
			ext := c.extScratch[:0]
			for k < len(n.Pages) && proto.IsSpanExtent(n.Pages[k]) {
				off, ln := proto.SpanExtent(n.Pages[k])
				ext = append(ext, byteRange{off, off + ln})
				k++
			}
			c.extScratch = ext
			if err := c.invalidate(layout.PageID(pu), n, ext); err != nil {
				return err
			}
		}
		for _, rec := range n.Records {
			c.applyRecord(rec, n)
		}
	}
	return nil
}

// ownNoticeBack notes the sequence number this thread's own release came
// back from the directory with, on every page it wrote in that interval
// and has not written since: the pages the notice names, and the record
// pages recordPages kept for the interval, which the notice may have
// come back without.
func (c *Cache) ownNoticeBack(n *proto.Notice) {
	if n.Seq == 0 {
		return
	}
	back := func(p layout.PageID) {
		if le, ok := c.lines[c.geo.LineOf(p)]; ok {
			if own := &le.pages[c.pageIndex(p)].own; own.interval == n.Tag.Interval {
				own.seq = n.Seq
			}
		}
		if own, ok := c.ownEvicted[p]; ok && own.interval == n.Tag.Interval {
			c.ownEvicted[p] = ownWrite{own.interval, n.Seq}
		}
	}
	for _, pu := range n.Pages {
		if !proto.IsSpanExtent(pu) {
			back(layout.PageID(pu))
		}
	}
	for _, rec := range n.Records {
		back(c.geo.PageOf(layout.Addr(rec.Addr)))
	}
	for i := range c.recordPages {
		if e := c.recordPages[i]; e.interval == n.Tag.Interval {
			for _, p := range e.pages {
				back(p)
			}
			last := len(c.recordPages) - 1
			c.recordPages[i], c.recordPages[last] = c.recordPages[last], c.recordPages[i]
			c.recordPages = c.recordPages[:last]
			break
		}
	}
}

// invalidate marks a page as needing n's tag before next use. The page
// is evidently shared from now on: another writer just touched it.
//
// When the notice carries the writer's span extents (ext non-empty) and
// the local copy is valid, the page goes PARTIALLY stale instead of
// fully invalid: only the extent bytes are marked stale, and accesses to
// the rest keep hitting with no refetch — the false-sharing cure the
// span data plane exists for. A dirty local copy qualifies only while
// its own writes are span-tracked and disjoint from the incoming
// extents (its release diff then provably cannot clobber the peer's
// bytes: over the stale ranges cur == twin, so no run ships). Metadata
// caps bound the state; overflow falls back to full invalidation.
func (c *Cache) invalidate(p layout.PageID, n *proto.Notice, ext []byteRange) error {
	c.shared[p] = struct{}{}
	c.addNeed(p, n)
	line := c.geo.LineOf(p)
	le, ok := c.lines[line]
	if !ok {
		return nil
	}
	ps := &le.pages[c.pageIndex(p)]
	if len(ext) > 0 && ps.valid && len(c.pageNeeds[p].tags) <= maxStaleTags {
		okPartial := true
		if ps.dirty {
			okPartial = ps.wtracked
			for _, r := range ext {
				if !okPartial || overlapsRanges(ps.wext, r.lo, r.hi) {
					okPartial = false
					break
				}
			}
		}
		if okPartial {
			st := ps.stale
			for _, r := range ext {
				st = mergeRange(st, r.lo, r.hi)
			}
			ps.stale = st
			if len(st) <= maxStaleRanges {
				c.clock.Advance(c.cfg.CPU.InvalidateTime)
				c.st.Invalidations++
				c.st.PartialInvals++
				return nil
			}
			// Range-list overflow: demote to a full invalidation below.
		}
	}
	if ps.dirty {
		// Concurrent writers on one page: push our bytes home now so the
		// refetch returns the merge. (True sharing without a lock is a
		// data race; either order is acceptable then.)
		base := c.pageIndex(p) * c.geo.PageSize
		d := c.diffForHome(p, le.data[base:base+c.geo.PageSize], ps.twin)
		at, err := c.be.FlushEvict([]proto.PageDiff{d}, c.clock.Now())
		if err != nil {
			return fmt.Errorf("pagecache: invalidation flush: %w", err)
		}
		c.clock.AdvanceTo(at)
		c.st.MsgsSent++
		c.st.InvalFlushes++
		c.markClean(p, ps)
		c.flushedDirty[p] = struct{}{}
	}
	if ps.valid {
		ps.valid = false
		ps.stale = ps.stale[:0]
		c.clock.Advance(c.cfg.CPU.InvalidateTime)
		c.st.Invalidations++
	}
	return nil
}

// applyRecord patches a consistency-region update into a resident valid
// page; if the page is not resident-and-valid the record's tag is
// recorded as a need instead (the home has the bytes).
func (c *Cache) applyRecord(rec proto.StoreRecord, n *proto.Notice) {
	addr := layout.Addr(rec.Addr)
	p := c.geo.PageOf(addr)
	c.shared[p] = struct{}{}
	line := c.geo.LineOf(p)
	le, ok := c.lines[line]
	if !ok || !le.pages[c.pageIndex(p)].valid {
		c.addNeed(p, n)
		return
	}
	base := c.pageBaseInLine(p) + c.geo.PageOffset(addr)
	copy(le.data[base:], rec.Data)
	// Keep a dirty page's twin in step: record bytes must never leak
	// into this page's ordinary diff (see Write's region branch).
	if ps := &le.pages[c.pageIndex(p)]; ps.dirty {
		copy(ps.twin[c.geo.PageOffset(addr):], rec.Data)
	}
	c.clock.Advance(c.cfg.CPU.ApplyTime(len(rec.Data)))
	c.st.UpdatesApplied++
}

// pageExtent is one byte range of a page, as AppendGrantExtents gathers
// them.
type pageExtent struct {
	page layout.PageID
	byteRange
}

// AppendGrantExtents appends to out, for every page ship selects that one
// of records writes, the merged byte extents of those records on the page
// as this cache holds them now, in page order: what a peer-to-peer lock
// grant carries for a successor that is likely cold on the page. More than
// maxStaleRanges extents on a page become one extent of the whole page. A
// page is left out unless it is resident and valid over every extent (a
// stale copy must not be handed to a peer as authoritative). The payloads
// alias this cache's lines, so the grant must be encoded before the cache
// is touched again.
func (c *Cache) AppendGrantExtents(out []proto.PagePayload, records []proto.StoreRecord, ship func(layout.PageID) bool) []proto.PagePayload {
	exts := c.grantScratch[:0]
	for _, rec := range records {
		addr := layout.Addr(rec.Addr)
		if p := c.geo.PageOf(addr); ship(p) {
			off := c.geo.PageOffset(addr)
			exts = append(exts, pageExtent{p, byteRange{off, off + len(rec.Data)}})
		}
	}
	c.grantScratch = exts
	slices.SortFunc(exts, func(a, b pageExtent) int {
		if a.page != b.page {
			return cmp.Compare(a.page, b.page)
		}
		return cmp.Compare(a.lo, b.lo)
	})
	for i := 0; i < len(exts); {
		p := exts[i].page
		merged := c.extScratch[:0]
		for ; i < len(exts) && exts[i].page == p; i++ {
			merged = mergeRange(merged, exts[i].lo, exts[i].hi)
		}
		if len(merged) > maxStaleRanges {
			merged = append(merged[:0], byteRange{0, c.geo.PageSize})
		}
		c.extScratch = merged
		le, ok := c.lines[c.geo.LineOf(p)]
		if !ok {
			continue
		}
		ps := &le.pages[c.pageIndex(p)]
		if !ps.valid || slices.ContainsFunc(merged, func(r byteRange) bool { return overlapsRanges(ps.stale, r.lo, r.hi) }) {
			continue
		}
		base := c.pageBaseInLine(p)
		n := 0
		for _, r := range merged {
			out = append(out, proto.PagePayload{Page: uint64(p), Off: uint32(r.lo), Data: le.data[base+r.lo : base+r.hi]})
			n += r.hi - r.lo
		}
		c.clock.Advance(c.cfg.CPU.CopyTime(n))
	}
	return out
}

// InstallGrantExtents installs byte extents of page p shipped with a
// peer-to-peer lock grant (AppendGrantExtents): the releasing holder's
// current bytes there, which incorporate every interval up to horizon (the
// releaser's, which the grant carries) and the intervals the grant brings
// inline. The page becomes valid over the extents and stale everywhere
// else, the span plane's partial staleness: an access outside the extents
// faults and fetches, quoting the page's needs, which the install keeps
// unless the extents cover the whole page. So it is refused when this
// thread knows of a write the extents may lack:
//   - a need from a notice above horizon, or from one that came inline
//     with an earlier grant (the releaser saw neither);
//   - a write of this thread's own whose notice has not come back from
//     the directory at or below horizon (the write went home by
//     invalidation, eviction or release, and nothing ordered it before
//     the releaser's copy).
//
// A page that is already valid keeps its own copy (the in-place record
// path maintains it); an absent line is created with only this page
// valid. Extents that name another page or fall outside the page are
// refused too. Reports whether the bytes were installed.
func (c *Cache) InstallGrantExtents(p layout.PageID, exts []proto.PagePayload, horizon uint64) bool {
	if len(exts) == 0 || c.pageNeeds[p].seq > horizon || c.ownEvicted[p].after(horizon) {
		return false
	}
	covered := c.extScratch[:0]
	for _, e := range exts {
		if e.Page != uint64(p) || len(e.Data) == 0 || uint64(e.Off)+uint64(len(e.Data)) > uint64(c.geo.PageSize) {
			return false
		}
		covered = mergeRange(covered, int(e.Off), int(e.Off)+len(e.Data))
	}
	c.extScratch = covered
	line := c.geo.LineOf(p)
	le, resident := c.lines[line]
	if !resident {
		c.evictIfFull()
		le = c.newEntry(line, c.newFrame()) // the other pages stay invalid
	}
	idx := c.pageIndex(p)
	ps := &le.pages[idx]
	if ps.valid || ps.own.after(horizon) {
		return false
	}
	base := c.pageBaseInLine(p)
	n := 0
	for _, e := range exts {
		n += copy(le.data[base+int(e.Off):], e.Data)
	}
	ps.valid = true
	c.hold(le, idx)
	ps.stale = ps.stale[:0]
	lo := 0
	for _, r := range covered {
		if r.lo > lo {
			ps.stale = append(ps.stale, byteRange{lo, r.lo})
		}
		lo = r.hi
	}
	if lo < c.geo.PageSize {
		ps.stale = append(ps.stale, byteRange{lo, c.geo.PageSize})
	}
	if len(ps.stale) == 0 {
		c.clearNeeds(p)
	}
	c.clock.Advance(c.cfg.CPU.CopyTime(n))
	if resident {
		c.touch(le)
	} else {
		c.place(le)
	}
	return true
}

// addNeed records that p must wait for notice n's interval.
func (c *Cache) addNeed(p layout.PageID, n *proto.Notice) {
	pn, known := c.pageNeeds[p]
	i, dup := slices.BinarySearchFunc(pn.tags, n.Tag, cmpTag)
	if dup {
		return
	}
	if k := len(c.freeTags); !known && k > 0 {
		pn.tags, c.freeTags = c.freeTags[k-1], c.freeTags[:k-1]
	}
	pn.tags = slices.Insert(pn.tags, i, n.Tag)
	seq := n.Seq
	if seq == 0 {
		seq = math.MaxUint64
	}
	pn.seq = max(pn.seq, seq)
	c.pageNeeds[p] = pn
}

// clearNeeds forgets p's needs: the page is valid again.
func (c *Cache) clearNeeds(p layout.PageID) {
	if pn, ok := c.pageNeeds[p]; ok {
		c.freeTags = append(c.freeTags, pn.tags[:0])
		delete(c.pageNeeds, p)
	}
}

// UncountPrefetches is called when the thread's stats record is reset:
// every prefetch in flight was issued before it, so the new record counts
// none of their outcomes either, and its outcomes still sum to its
// issues (stats.Thread.CheckPrefetch).
func (c *Cache) UncountPrefetches() {
	for _, pe := range c.pending {
		pe.uncounted = true
		pe.frozen = nil
	}
}

// FreezePrefetches is called when the thread's stats record is frozen
// into rec: every prefetch in flight that the record counted issued has
// its outcome counted on rec as well, whenever it comes.
func (c *Cache) FreezePrefetches(rec *stats.Thread) {
	for _, pe := range c.pending {
		if !pe.uncounted {
			pe.frozen = rec
		}
	}
}

// DrainPrefetches waits for every in-flight prefetch and discards the
// results, counting them unused. Called when the owning thread retires,
// so no fetch of this thread's can still be in flight when its endpoint
// closes.
func (c *Cache) DrainPrefetches() {
	lines := make([]layout.LineID, 0, len(c.pending))
	for line := range c.pending {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	for _, line := range lines {
		c.discardPrefetch(line, outcomeUnused)
	}
}

// discardPrefetch waits out line's in-flight prefetch, counts it as o
// and hands its line back to the pool.
func (c *Cache) discardPrefetch(line layout.LineID, o outcome) {
	pe := c.pending[line]
	pe.h.Park() // only if the helper has not delivered yet
	res := <-pe.ch
	delete(c.pending, line)
	c.settle(pe, o)
	proto.PutBuf(res.Data)
}

// ---------------------------------------------------------------------
// Address-space snapshot support.

// FlushRange pushes home the current bytes of every ordinary-dirty page
// in [first, first+npages): the same eager mid-interval flush an
// eviction does, except the pages stay valid. Flushed pages are
// remembered in flushedDirty, so this thread's next release still names
// them in its write notice and peers invalidate then — eviction
// semantics, no interval is consumed here. SnapshotAS uses this so the
// seal captures the caller's own unreleased writes; consistency-region
// store records are NOT flushed (they only travel with a release), so
// snapshots must be taken outside critical sections to capture region
// stores.
func (c *Cache) FlushRange(first layout.PageID, npages uint64) error {
	var pages []layout.PageID
	for p := range c.dirtyPages {
		if p >= first && uint64(p-first) < npages {
			pages = append(pages, p)
		}
	}
	if len(pages) == 0 {
		return nil
	}
	// Page order: the diff-time clock advances and the per-home batch
	// contents must not depend on map iteration.
	slices.Sort(pages)
	diffs := make([]proto.PageDiff, 0, len(pages))
	for _, p := range pages {
		le := c.lines[c.geo.LineOf(p)]
		ps := &le.pages[c.pageIndex(p)]
		base := c.pageBaseInLine(p)
		d := c.diffForHome(p, le.data[base:base+c.geo.PageSize], ps.twin)
		diffs = append(diffs, d)
		c.markClean(p, ps)
		c.flushedDirty[p] = struct{}{}
	}
	at, err := c.be.FlushSync(diffs, c.clock.Now())
	if err != nil {
		return fmt.Errorf("pagecache: snapshot flush: %w", err)
	}
	c.clock.AdvanceTo(at)
	c.st.MsgsSent++
	return nil
}

// DropRange discards every resident line overlapping [first,
// first+npages), waiting out (and wasting) in-flight prefetches of
// those lines first. ForkAS calls this on the freshly allocated fork
// range: the prefetcher runs one line ahead of a stream, so a stream
// through a neighbouring buffer may already have installed the fork's
// addresses as zero-filled lines, which would shadow the sealed frames.
// Dropped lines go through the ordinary eviction path, so dirty pages
// outside the range (a partially overlapped line) are flushed home, not
// lost; pages inside it cannot be dirty — the range was just allocated.
func (c *Cache) DropRange(first layout.PageID, npages uint64) {
	if npages == 0 {
		return
	}
	firstLine := c.geo.LineOf(first)
	lastLine := c.geo.LineOf(first + layout.PageID(npages-1))
	var lines []layout.LineID
	for line := range c.pending {
		if line >= firstLine && line <= lastLine {
			lines = append(lines, line)
		}
	}
	slices.Sort(lines)
	for _, line := range lines {
		c.discardPrefetch(line, outcomeWasted)
	}
	lines = lines[:0]
	for line := range c.lines {
		if line >= firstLine && line <= lastLine {
			lines = append(lines, line)
		}
	}
	slices.Sort(lines)
	for _, line := range lines {
		c.evict(c.lines[line])
	}
}

// RangeNeeds collects the outstanding interval tags of every page in
// [first, first+npages), in page order — the happens-before set a
// SealAS quotes so no page is frozen before the released intervals this
// thread has already been told about are applied at its home.
func (c *Cache) RangeNeeds(first layout.PageID, npages uint64) []proto.PageNeed {
	var needs []proto.PageNeed
	for p, pn := range c.pageNeeds {
		if p < first || uint64(p-first) >= npages || len(pn.tags) == 0 {
			continue
		}
		needs = append(needs, proto.PageNeed{Page: uint64(p), Tags: slices.Clone(pn.tags)})
	}
	slices.SortFunc(needs, func(a, b proto.PageNeed) int { return cmp.Compare(a.Page, b.Page) })
	return needs
}

// ---------------------------------------------------------------------
// Introspection for tests and harnesses.

// DirtyPages reports how many pages are currently dirty.
func (c *Cache) DirtyPages() int { return len(c.dirtyPages) }

// PendingRecords reports the size of the open store log.
func (c *Cache) PendingRecords() int { return len(c.records) }
