package pagecache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// fakeBackend is an in-memory home: it serves zero-filled lines overlaid
// with whatever diffs have been flushed to it, and records the calls the
// cache makes (copies of its lists: they are the cache's scratch).
type fakeBackend struct {
	geo layout.Geometry

	home map[layout.PageID][]byte

	fetchCalls    []layout.LineID
	combinedCalls [][]layout.LineID
	combinedPages [][]layout.PageID
	fetchNeeds    [][]proto.PageNeed
	prefetchCalls []layout.LineID
	flushCalls    int
	flushedDiffs  []proto.PageDiff

	fetchCost    vtime.Time
	prefetchCost vtime.Time
	noPrefetch   bool

	// The forks' mappings and the snapshots' sealed frames, by page
	// index, which FetchFrames serves.
	forks      []fakeFork
	sealed     map[uint64][][]byte
	frameCalls [][]layout.PageID
}

// fakeFork maps pages [first, first+n) onto snapshot snap's frames.
type fakeFork struct {
	first layout.PageID
	n     int
	snap  uint64
}

// fork maps the n pages at first onto snapshot snap, as a ForkMap does,
// dropping any fork it overlaps; the home's copies of the pages become
// the sealed frames until a write reaches them.
func (f *fakeBackend) fork(first layout.PageID, n int, snap uint64) {
	f.forks = slices.DeleteFunc(f.forks, func(o fakeFork) bool {
		return o.first < first+layout.PageID(n) && first < o.first+layout.PageID(o.n)
	})
	f.forks = append(f.forks, fakeFork{first, n, snap})
	for i := range n {
		f.home[first+layout.PageID(i)] = slices.Clone(f.sealed[snap][i])
	}
}

// FetchFrames serves each page's sealed frame, or refuses with no bytes
// when a page maps none.
func (f *fakeBackend) FetchFrames(pages []layout.PageID, at vtime.Time) ([]byte, vtime.Time, error) {
	f.frameCalls = append(f.frameCalls, slices.Clone(pages))
	var data []byte
	for _, p := range pages {
		i := slices.IndexFunc(f.forks, func(o fakeFork) bool { return o.first <= p && p < o.first+layout.PageID(o.n) })
		if i < 0 {
			return nil, at + f.fetchCost, nil
		}
		data = append(data, f.sealed[f.forks[i].snap][p-f.forks[i].first]...)
	}
	return data, at + f.fetchCost, nil
}

func newFakeBackend(geo layout.Geometry) *fakeBackend {
	return &fakeBackend{
		geo:          geo,
		home:         make(map[layout.PageID][]byte),
		sealed:       make(map[uint64][][]byte),
		fetchCost:    10_000,
		prefetchCost: 10_000,
	}
}

func (f *fakeBackend) page(p layout.PageID) []byte {
	if b, ok := f.home[p]; ok {
		return b
	}
	b := make([]byte, f.geo.PageSize)
	f.home[p] = b
	return b
}

func (f *fakeBackend) lineData(line layout.LineID) []byte {
	data := make([]byte, 0, f.geo.LineSize())
	first := f.geo.FirstPage(line)
	for i := 0; i < f.geo.LinePages; i++ {
		data = append(data, f.page(first+layout.PageID(i))...)
	}
	return data
}

func (f *fakeBackend) FetchLine(line layout.LineID, needs []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	f.fetchCalls = append(f.fetchCalls, line)
	f.fetchNeeds = append(f.fetchNeeds, append([]proto.PageNeed(nil), needs...))
	return f.lineData(line), at + f.fetchCost, nil
}

func (f *fakeBackend) FetchLines(lines []layout.LineID, pages []layout.PageID, needs []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	f.combinedCalls = append(f.combinedCalls, append([]layout.LineID(nil), lines...))
	f.combinedPages = append(f.combinedPages, append([]layout.PageID(nil), pages...))
	f.fetchNeeds = append(f.fetchNeeds, append([]proto.PageNeed(nil), needs...))
	data := make([]byte, 0, len(lines)*f.geo.LineSize()+len(pages)*f.geo.PageSize)
	for _, line := range lines {
		data = append(data, f.lineData(line)...)
	}
	for _, p := range pages {
		data = append(data, f.page(p)...)
	}
	return data, at + f.fetchCost, nil
}

func (f *fakeBackend) StartPrefetch(line layout.LineID, needs []proto.PageNeed, at vtime.Time, h *Handoff) <-chan PrefetchResult {
	if f.noPrefetch {
		return nil
	}
	f.prefetchCalls = append(f.prefetchCalls, line)
	ch := make(chan PrefetchResult, 1)
	ch <- PrefetchResult{Data: f.lineData(line), ReadyAt: at + f.prefetchCost}
	return ch
}

func (f *fakeBackend) FlushEvict(diffs []proto.PageDiff, at vtime.Time) (vtime.Time, error) {
	f.flushCalls++
	for _, d := range diffs {
		f.flushedDiffs = append(f.flushedDiffs, d)
		pg := f.page(layout.PageID(d.Page))
		for _, run := range d.Runs {
			copy(pg[run.Off:], run.Data)
		}
	}
	return at + 100, nil
}

func (f *fakeBackend) FlushSync(diffs []proto.PageDiff, at vtime.Time) (vtime.Time, error) {
	return f.FlushEvict(diffs, at)
}

func newCache(t *testing.T, geo layout.Geometry, be Backend, opts ...func(*Config)) (*Cache, *vtime.Clock, *stats.Thread) {
	t.Helper()
	clk := vtime.NewClock(0)
	st := &stats.Thread{ID: 1}
	cfg := Config{Geo: geo, CPU: vtime.DefaultCPU, Writer: 1, PrefetchDepth: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return New(cfg, be, clk, st), clk, st
}

func TestReadMissThenHit(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, clk, st := newCache(t, geo, be)

	buf := make([]byte, 8)
	if err := c.Read(100, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 8)) {
		t.Fatalf("untouched memory not zero: %v", buf)
	}
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("misses=%d hits=%d", st.Misses, st.Hits)
	}
	if clk.Now() < be.fetchCost {
		t.Fatalf("clock %v did not include fetch cost", clk.Now())
	}
	if err := c.Read(200, buf); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 {
		t.Fatalf("hits=%d after second read", st.Hits)
	}
	if len(be.fetchCalls) != 1 {
		t.Fatalf("fetch called %d times", len(be.fetchCalls))
	}
}

func TestWriteReadRoundTripAcrossPages(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be)

	// Spans the page 0 -> page 1 boundary.
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	addr := layout.Addr(geo.PageSize - 4)
	if err := c.Write(addr, data, false); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := c.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %v want %v", got, data)
	}
	if c.DirtyPages() != 2 {
		t.Fatalf("DirtyPages = %d, want 2", c.DirtyPages())
	}
}

func TestTwinCreatedOncePerInterval(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)

	for i := 0; i < 5; i++ {
		if err := c.Write(layout.Addr(i*8), []byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	if st.Twins != 1 {
		t.Fatalf("Twins = %d, want 1", st.Twins)
	}
	rs := c.CollectRelease()
	if len(rs.Pages) != 1 {
		t.Fatalf("release pages = %v", rs.Pages)
	}
	// Next interval twins again.
	if err := c.Write(0, []byte{9}, false); err != nil {
		t.Fatal(err)
	}
	if st.Twins != 2 {
		t.Fatalf("Twins = %d after new interval", st.Twins)
	}
}

func TestCollectReleaseClaimsUnsharedPages(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be)

	if err := c.Write(10, []byte{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(layout.Addr(geo.PageSize+20), []byte{4}, false); err != nil {
		t.Fatal(err)
	}
	rs := c.CollectRelease()
	if rs.Tag.Writer != 1 || rs.Tag.Interval != 1 {
		t.Fatalf("tag %+v", rs.Tag)
	}
	if len(rs.Pages) != 2 {
		t.Fatalf("pages %v", rs.Pages)
	}
	// No other thread has touched these pages: the release ships no
	// bytes, only ownership claims; the diffs stay in the owned store.
	b := rs.ByHome[0]
	if b == nil || len(b.Diffs) != 0 || len(b.OwnedPages) != 2 {
		t.Fatalf("batch %+v", b)
	}
	if c.Owned().Len() != 2 || c.Owned().PayloadBytes() != 4 {
		t.Fatalf("owned store: %d pages, %d bytes", c.Owned().Len(), c.Owned().PayloadBytes())
	}
	if c.DirtyPages() != 0 {
		t.Fatalf("dirty pages survived release")
	}
	// Second release with no writes is empty.
	rs2 := c.CollectRelease()
	if len(rs2.Pages) != 0 || len(rs2.ByHome) != 0 {
		t.Fatalf("empty release not empty: %+v", rs2)
	}
}

func TestCollectReleaseShipsEagerDiffsForSharedPages(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be)

	// A foreign notice marks page 0 shared.
	if err := c.ApplyNotices([]proto.Notice{{
		Seq: 1, Tag: proto.IntervalTag{Writer: 9, Interval: 1}, Pages: []uint64{0},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(10, []byte{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	rs := c.CollectRelease()
	b := rs.ByHome[0]
	if b == nil || len(b.Diffs) != 1 || len(b.OwnedPages) != 0 {
		t.Fatalf("batch %+v", b)
	}
	if got := b.Diffs[0].PayloadBytes(); got != 3 {
		t.Fatalf("eager payload %d", got)
	}
	if c.Owned().Len() != 0 {
		t.Fatal("shared page leaked into the owned store")
	}
}

func TestSilentStoresProduceNoTraffic(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be)

	// Write the value that is already there (zero): twin is created but
	// the diff is empty, so the release carries nothing at all.
	if err := c.Write(10, []byte{0, 0, 0}, false); err != nil {
		t.Fatal(err)
	}
	rs := c.CollectRelease()
	if len(rs.Pages) != 0 || len(rs.ByHome) != 0 {
		t.Fatalf("silent store produced traffic: %+v", rs)
	}
}

func TestRegionWritesLogRecordsNotDiffs(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)

	if err := c.Write(64, []byte{1, 2, 3, 4, 5, 6, 7, 8}, true); err != nil {
		t.Fatal(err)
	}
	if c.DirtyPages() != 0 {
		t.Fatal("region write dirtied the page")
	}
	if st.RecordsLogged != 1 || st.RecordBytes != 8 {
		t.Fatalf("records=%d bytes=%d", st.RecordsLogged, st.RecordBytes)
	}
	// Locally visible immediately.
	got := make([]byte, 8)
	if err := c.Read(64, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[7] != 8 {
		t.Fatalf("read-back %v", got)
	}
	rs := c.CollectRelease()
	if len(rs.Records) != 1 || rs.Records[0].Addr != 64 {
		t.Fatalf("release records %+v", rs.Records)
	}
	if len(rs.Pages) != 0 {
		t.Fatalf("region-only interval produced page notices: %v", rs.Pages)
	}
	if len(rs.ByHome[0].Records) != 1 {
		t.Fatalf("home batch records %+v", rs.ByHome[0])
	}
}

// A thread reads back its own consistency-region store after the store's
// line left the cache before the release: the home's copy lacks the
// record (records travel only with a release), so the refetch must put
// it back on top. The second case loses the page to a peer's notice
// instead of an eviction.
func TestRefetchKeepsUnreleasedRecords(t *testing.T) {
	geo := layout.DefaultGeometry()
	nines := bytes.Repeat([]byte{9}, 8)
	for _, tc := range []struct {
		name string
		lose func(c *Cache) error
	}{
		{"evicted", func(c *Cache) error {
			return c.Read(layout.Addr(geo.LineSize()), make([]byte, 1))
		}},
		{"invalidated", func(c *Cache) error {
			return c.ApplyNotices([]proto.Notice{{Seq: 1, Tag: proto.IntervalTag{Writer: 2, Interval: 1}, Pages: []uint64{0}}})
		}},
	} {
		be := newFakeBackend(geo)
		be.noPrefetch = true
		c, _, _ := newCache(t, geo, be, func(cfg *Config) { cfg.CapacityLines = 1 })
		if err := c.Write(64, nines, true); err != nil {
			t.Fatal(err)
		}
		if err := tc.lose(c); err != nil {
			t.Fatal(err)
		}
		be.page(0)[0] = 5 // a peer's store elsewhere on the page
		got := make([]byte, 8)
		if err := c.Read(64, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, nines) || c.PendingRecords() != 1 {
			t.Fatalf("%s: read back %v of the thread's own store, %d records pending", tc.name, got, c.PendingRecords())
		}
		if err := c.Read(0, got[:1]); err != nil || got[0] != 5 {
			t.Fatalf("%s: the refetch lost the home's bytes: %v, %v", tc.name, got[0], err)
		}
	}
}

func TestApplyNoticesInvalidatesAndRefetches(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)

	buf := make([]byte, 1)
	if err := c.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	tag := proto.IntervalTag{Writer: 2, Interval: 7}
	if err := c.ApplyNotices([]proto.Notice{{Seq: 1, Tag: tag, Pages: []uint64{0}}}); err != nil {
		t.Fatal(err)
	}
	if st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d", st.Invalidations)
	}
	// The home now has new content; the refetch must quote the tag.
	be.page(0)[0] = 99
	if err := c.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 99 {
		t.Fatalf("stale read %d after invalidation", buf[0])
	}
	last := be.fetchNeeds[len(be.fetchNeeds)-1]
	if len(last) != 1 || last[0].Page != 0 || last[0].Tags[0] != tag {
		t.Fatalf("refetch needs %+v", last)
	}
}

func TestSelfNoticesSkipped(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)
	buf := make([]byte, 1)
	if err := c.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	self := proto.IntervalTag{Writer: 1, Interval: 3}
	if err := c.ApplyNotices([]proto.Notice{{Seq: 5, Tag: self, Pages: []uint64{0}}}); err != nil {
		t.Fatal(err)
	}
	if st.Invalidations != 0 || st.NoticesReceived != 0 {
		t.Fatal("self notice was processed")
	}
}

func TestUpdateRecordsPatchInPlace(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)
	buf := make([]byte, 2)
	if err := c.Read(500, buf); err != nil {
		t.Fatal(err)
	}
	fetchesBefore := len(be.fetchCalls)
	n := proto.Notice{
		Seq: 1, Tag: proto.IntervalTag{Writer: 2, Interval: 1},
		Records: []proto.StoreRecord{{Addr: 500, Data: []byte{7, 8}}},
	}
	if err := c.ApplyNotices([]proto.Notice{n}); err != nil {
		t.Fatal(err)
	}
	if st.UpdatesApplied != 1 {
		t.Fatalf("UpdatesApplied = %d", st.UpdatesApplied)
	}
	if err := c.Read(500, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 || buf[1] != 8 {
		t.Fatalf("update not visible: %v", buf)
	}
	// Crucially: no refetch happened (the fine-grain path's whole point).
	if len(be.fetchCalls) != fetchesBefore {
		t.Fatal("update record caused a page fetch")
	}
}

func TestUpdateRecordForNonResidentPageBecomesNeed(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be)
	tag := proto.IntervalTag{Writer: 2, Interval: 1}
	n := proto.Notice{
		Seq: 1, Tag: tag,
		Records: []proto.StoreRecord{{Addr: 100, Data: []byte{1}}},
	}
	if err := c.ApplyNotices([]proto.Notice{n}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := c.Read(100, buf); err != nil {
		t.Fatal(err)
	}
	needs := be.fetchNeeds[len(be.fetchNeeds)-1]
	if len(needs) != 1 || needs[0].Tags[0] != tag {
		t.Fatalf("fetch needs %+v", needs)
	}
}

func TestEvictionPrefersDirtyAndFlushes(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	be.noPrefetch = true
	c, _, st := newCache(t, geo, be, func(cfg *Config) { cfg.CapacityLines = 2 })

	lineBytes := layout.Addr(geo.LineSize())
	// Line 0: dirty. Line 1: clean and more recently used.
	if err := c.Write(0, []byte{42}, false); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := c.Read(lineBytes, buf); err != nil {
		t.Fatal(err)
	}
	// Touch line 0 again so it is the MOST recent — the dirty bias must
	// still pick it over the older clean line 1.
	if err := c.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	// Fault line 2: one of the two must go; bias says dirty line 0.
	if err := c.Read(2*lineBytes, buf); err != nil {
		t.Fatal(err)
	}
	if st.Evictions != 1 || st.DirtyEvicts != 1 || be.flushCalls != 1 {
		t.Fatalf("evictions=%d dirty=%d flushes=%d", st.Evictions, st.DirtyEvicts, be.flushCalls)
	}
	if be.page(0)[0] != 42 {
		t.Fatal("evicted dirty byte did not reach home")
	}
	// The release must mention page 0 (peers still need to invalidate)
	// with an EmptyPages entry (bytes already home).
	rs := c.CollectRelease()
	if len(rs.Pages) != 1 || rs.Pages[0] != 0 {
		t.Fatalf("release pages %v", rs.Pages)
	}
	if b := rs.ByHome[0]; b == nil || len(b.EmptyPages) != 1 || b.EmptyPages[0] != 0 {
		t.Fatalf("EmptyPages missing: %+v", rs.ByHome[0])
	}
	// Re-reading page 0 refetches and sees the flushed value.
	if err := c.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 42 {
		t.Fatalf("reread after dirty eviction: %d", buf[0])
	}
}

func TestPrefetchAdjacentLine(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)

	buf := make([]byte, 1)
	if err := c.Read(0, buf); err != nil { // miss line 0, prefetch line 1
		t.Fatal(err)
	}
	if len(be.prefetchCalls) != 1 || be.prefetchCalls[0] != 1 {
		t.Fatalf("prefetch calls %v", be.prefetchCalls)
	}
	if err := c.Read(layout.Addr(geo.LineSize()), buf); err != nil { // line 1: prefetched
		t.Fatal(err)
	}
	if st.PrefetchHits+st.PrefetchLate != 1 {
		t.Fatalf("prefetch hit/late = %d/%d", st.PrefetchHits, st.PrefetchLate)
	}
	if len(be.fetchCalls) != 1 {
		t.Fatalf("demand fetches %v (prefetch should have covered line 1)", be.fetchCalls)
	}
}

func TestPrefetchDisabled(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be, func(cfg *Config) { cfg.PrefetchDepth = 0 })
	buf := make([]byte, 1)
	if err := c.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if len(be.prefetchCalls) != 0 {
		t.Fatal("prefetch issued while disabled")
	}
}

func TestInvalidateDirtyPageFlushesForMerge(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be)

	if err := c.Write(8, []byte{5}, false); err != nil {
		t.Fatal(err)
	}
	// Another thread wrote elsewhere in page 0 and released.
	be.page(0)[100] = 77
	tag := proto.IntervalTag{Writer: 2, Interval: 1}
	if err := c.ApplyNotices([]proto.Notice{{Seq: 1, Tag: tag, Pages: []uint64{0}}}); err != nil {
		t.Fatal(err)
	}
	// Our write was flushed home (merge), page invalidated; refetch sees
	// both writers' bytes.
	buf := make([]byte, 1)
	if err := c.Read(8, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 {
		t.Fatalf("own write lost in merge: %d", buf[0])
	}
	if err := c.Read(100, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 77 {
		t.Fatalf("other writer's byte missing: %d", buf[0])
	}
	rs := c.CollectRelease()
	if len(rs.Pages) != 1 || rs.Pages[0] != 0 {
		t.Fatalf("release pages %v", rs.Pages)
	}
}

// Property: for random twin/current pairs, applying diffPage's output to
// the twin reconstructs the current page exactly.
func TestDiffPageReconstructionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 512
		twin := make([]byte, size)
		rng.Read(twin)
		cur := append([]byte(nil), twin...)
		for i := 0; i < rng.Intn(20); i++ {
			cur[rng.Intn(size)] = byte(rng.Int())
		}
		d := diffPage(0, cur, twin)
		rebuilt := append([]byte(nil), twin...)
		for _, run := range d.Runs {
			copy(rebuilt[run.Off:], run.Data)
		}
		if !bytes.Equal(rebuilt, cur) {
			return false
		}
		// Diff is minimal: runs contain no bytes equal to the twin at
		// run boundaries.
		for _, run := range d.Runs {
			if run.Data[0] == twin[run.Off] || run.Data[len(run.Data)-1] == twin[int(run.Off)+len(run.Data)-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A trace of reads, ordinary writes, sweeps, releases and a peer's stores
// through a cache of one to four lines behaves exactly like a flat byte
// array. Each op is four bytes: a kind, a little-endian address and a
// length. A peer's store follows a release of this thread's writes: the
// bytes land at the home and a second writer's notice names their pages,
// so the cache revalidates lines it holds, and leaves invalid the pages
// of them it held but never touched until a read touches one. A sweep
// reads one word from each of up to 16 lines in a row: sweeps over more
// lines than the cache holds turn its eviction order to bimodal
// insertion, and reads alternating between two lines turn it back, so
// traces run through both orders. A sweep touches one page of each
// line, so it also turns the cache to page fills, and reads of both
// pages of a run of lines turn it back to whole lines. The committed
// corpus holds random traces, sweep-heavy ones that switch the order
// both ways, grain ones that alternate sweeps with dense runs and switch
// the fill grain both ways, and peer ones whose revalidations skip pages
// that later reads fetch. A fork seals a copy of two lines of memory, or
// forks the last copy again, over two lines that reads, writes and peer
// stores then reach as they reach any; the fork-N-lines seeds fill
// pages from the cache's sealed frames, with and without a frame read.
func FuzzCacheMatchesFlatMemory(f *testing.F) {
	geo := layout.Geometry{PageSize: 256, LinePages: 2, NumServers: 1, Striped: true}
	const (
		span   = 8192 // 16 lines
		maxOps = 1024
	)
	f.Fuzz(func(t *testing.T, capacity uint8, trace []byte) {
		be := newFakeBackend(geo)
		c := New(Config{Geo: geo, CPU: vtime.DefaultCPU, Writer: 1, PrefetchDepth: 1, CapacityLines: 1 + int(capacity%4)},
			be, vtime.NewClock(0), &stats.Thread{})
		model := make([]byte, span)
		// release delivers a release's batches to the home as the
		// runtime would, lazily owned diffs pulled at once.
		release := func() {
			rs := c.CollectRelease()
			var diffs []proto.PageDiff
			for _, b := range rs.ByHome {
				diffs = append(diffs, b.Diffs...)
				diffs = append(diffs, c.Owned().TakeMany(b.OwnedPages)...)
			}
			for _, d := range diffs {
				pg := be.page(layout.PageID(d.Page))
				for _, run := range d.Runs {
					copy(pg[run.Off:], run.Data)
				}
			}
		}
		peer := proto.IntervalTag{Writer: 2}
		var snap uint64
		read := func(addr, n int) {
			t.Helper()
			buf := make([]byte, n)
			if err := c.Read(layout.Addr(addr), buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, model[addr:addr+n]) {
				t.Fatalf("read %d bytes at %d: %x, want %x", n, addr, buf, model[addr:addr+n])
			}
		}
		for op := 0; op < maxOps && len(trace) >= 4; op++ {
			kind := trace[0] % 10
			addr := int(binary.LittleEndian.Uint16(trace[1:])) % (span - 16)
			n := 1 + int(trace[3]%16)
			trace = trace[4:]
			switch kind {
			case 0, 1, 2:
				read(addr, n)
			case 3, 4, 5:
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(op*7 + i)
				}
				copy(model[addr:], data)
				if err := c.Write(layout.Addr(addr), data, false); err != nil {
					t.Fatal(err)
				}
			case 6:
				lines := span / geo.LineSize()
				first := addr / geo.LineSize()
				for l := range n {
					read((first+l)%lines*geo.LineSize(), 8)
				}
			case 7:
				release()
			case 8:
				release()
				var pages []uint64
				for a := addr; a < addr+n; a++ {
					p := geo.PageOf(layout.Addr(a))
					model[a] = byte(op*5+a) | 0x80
					be.page(p)[geo.PageOffset(layout.Addr(a))] = model[a]
					if len(pages) == 0 || pages[len(pages)-1] != uint64(p) {
						pages = append(pages, uint64(p))
					}
				}
				peer.Interval++
				if err := c.ApplyNotices([]proto.Notice{{Seq: peer.Interval, Tag: peer, Pages: pages}}); err != nil {
					t.Fatal(err)
				}
			case 9:
				const forkLines = 2
				lines := span/geo.LineSize() - forkLines + 1
				dst := addr / geo.LineSize() % lines * geo.LineSize()
				release()
				if snap == 0 || n%2 == 0 {
					snap++
					src := (addr/geo.LineSize() + 3) % lines * geo.LineSize()
					for p := range forkLines * geo.LinePages {
						lo := src + p*geo.PageSize
						be.sealed[snap] = append(be.sealed[snap], slices.Clone(model[lo:lo+geo.PageSize]))
					}
				}
				first, npages := geo.PageOf(layout.Addr(dst)), forkLines*geo.LinePages
				c.DropRange(first, uint64(npages))
				be.fork(first, npages, snap)
				c.AddFork(first, uint64(npages), snap)
				copy(model[dst:], slices.Concat(be.sealed[snap]...))
			}
		}
	})
}

// A prefetched line whose pages accumulate new needs after the prefetch
// was issued must not be installed stale: the cache re-fetches on
// demand with the fresh tags.
func TestStalePrefetchIsRefetched(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)

	buf := make([]byte, 1)
	if err := c.Read(0, buf); err != nil { // miss line 0 -> prefetch line 1 issued
		t.Fatal(err)
	}
	if len(be.prefetchCalls) != 1 {
		t.Fatalf("prefetch calls: %v", be.prefetchCalls)
	}
	// A notice arrives for a page of the prefetched line AFTER the
	// prefetch was issued; the home also gets newer bytes.
	tag := proto.IntervalTag{Writer: 2, Interval: 1}
	pageOfLine1 := uint64(geo.LinePages) // first page of line 1
	if err := c.ApplyNotices([]proto.Notice{{Seq: 1, Tag: tag, Pages: []uint64{pageOfLine1}}}); err != nil {
		t.Fatal(err)
	}
	be.page(layout.PageID(pageOfLine1))[0] = 99

	if err := c.Read(layout.Addr(geo.LineSize()), buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 99 {
		t.Fatalf("stale prefetched data installed: %d", buf[0])
	}
	// The demand fetch must have quoted the new tag.
	last := be.fetchNeeds[len(be.fetchNeeds)-1]
	found := false
	for _, n := range last {
		for _, tg := range n.Tags {
			if tg == tag {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("refetch did not quote the new tag: %+v", last)
	}
	// The stale prefetch is wasted, and not a hit or a late one too.
	if st.PrefetchWasted != 1 || st.PrefetchHits+st.PrefetchLate != 0 {
		t.Fatalf("stale prefetch counted %d wasted, %d hits, %d late", st.PrefetchWasted, st.PrefetchHits, st.PrefetchLate)
	}
}

// A stats record reset while a prefetch is in flight counts neither its
// issue nor its outcome.
func TestResetRecordLeavesOutPrefetchesInFlight(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)
	mustRead(t, c, 0) // misses line 0, prefetches line 1
	*st = stats.Thread{ID: st.ID}
	c.UncountPrefetches()
	mustRead(t, c, layout.Addr(geo.LineSize())) // consumes it
	c.DrainPrefetches()                         // leaves the one that read issued unused
	if st.PrefetchIssued != 1 || st.PrefetchHits+st.PrefetchLate+st.PrefetchWasted != 0 || st.PrefetchUnused != 1 {
		t.Fatalf("record after the reset: %d issued, %d hits, %d late, %d wasted, %d unused",
			st.PrefetchIssued, st.PrefetchHits, st.PrefetchLate, st.PrefetchWasted, st.PrefetchUnused)
	}
	if err := st.CheckPrefetch(); err != nil {
		t.Fatal(err)
	}
}

// A record frozen while a prefetch is in flight counted its issue, so it
// counts its outcome too; a prefetch issued after the freeze is the live
// record's alone.
func TestFrozenRecordCountsPrefetchesInFlight(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)
	mustRead(t, c, 0) // misses line 0, prefetches line 1
	frozen := st.Snapshot()
	c.FreezePrefetches(&frozen)
	mustRead(t, c, layout.Addr(geo.LineSize())) // consumes it, prefetches line 2
	c.DrainPrefetches()                         // leaves line 2 unused
	if frozen.PrefetchIssued != 1 || frozen.PrefetchHits+frozen.PrefetchLate != 1 || frozen.PrefetchUnused != 0 {
		t.Fatalf("frozen record: %d issued, %d used, %d unused, want 1, 1, 0",
			frozen.PrefetchIssued, frozen.PrefetchHits+frozen.PrefetchLate, frozen.PrefetchUnused)
	}
	if st.PrefetchIssued != 2 || st.PrefetchHits+st.PrefetchLate != 1 || st.PrefetchUnused != 1 {
		t.Fatalf("live record: %d issued, %d used, %d unused, want 2, 1, 1",
			st.PrefetchIssued, st.PrefetchHits+st.PrefetchLate, st.PrefetchUnused)
	}
	for _, rec := range []*stats.Thread{&frozen, st} {
		if err := rec.CheckPrefetch(); err != nil {
			t.Fatal(err)
		}
	}
}

// Reads and writes spanning several lines work and only fault the lines
// actually touched.
func TestMultiLineSpanningAccess(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	be.noPrefetch = true
	c, _, st := newCache(t, geo, be)

	span := geo.LineSize() + 100 // crosses exactly one line boundary
	data := make([]byte, span)
	for i := range data {
		data[i] = byte(i)
	}
	if err := c.Write(10, data, false); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, span)
	if err := c.Read(10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-line round trip mismatch")
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 lines", st.Misses)
	}
}

// Depth-2 anticipatory paging: one miss issues two prefetches, in line
// order; consuming them out of issue order still lands both, and
// unconsumed results drain as unused.
func TestPrefetchDepthTwoOrdering(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be, func(cfg *Config) { cfg.PrefetchDepth = 2 })

	buf := make([]byte, 1)
	if err := c.Read(0, buf); err != nil { // miss line 0 -> prefetch 1, 2
		t.Fatal(err)
	}
	if len(be.prefetchCalls) != 2 || be.prefetchCalls[0] != 1 || be.prefetchCalls[1] != 2 {
		t.Fatalf("prefetch issue order %v, want [1 2]", be.prefetchCalls)
	}
	// Consume line 2 before line 1: landing order need not match issue
	// order. The line-2 fault issues the next window (3, 4); the line-1
	// fault then finds everything nearby resident or in flight.
	if err := c.Read(layout.Addr(2*geo.LineSize()), buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(layout.Addr(1*geo.LineSize()), buf); err != nil {
		t.Fatal(err)
	}
	if got := st.PrefetchHits + st.PrefetchLate; got != 2 {
		t.Fatalf("prefetch hits+late = %d, want 2", got)
	}
	if len(be.fetchCalls) != 1 {
		t.Fatalf("demand fetches %v, want only the cold miss", be.fetchCalls)
	}
	if st.PrefetchIssued != int64(len(be.prefetchCalls)) {
		t.Fatalf("PrefetchIssued=%d but backend saw %d", st.PrefetchIssued, len(be.prefetchCalls))
	}
	// The window issued by the line-2 fault (lines 3 and 4) was never
	// consumed; draining must count every leftover exactly once.
	leftovers := int64(len(be.prefetchCalls)) - 2
	c.DrainPrefetches()
	if st.PrefetchUnused != leftovers || st.PrefetchWasted != 0 {
		t.Fatalf("PrefetchUnused=%d PrefetchWasted=%d after drain, want %d and 0", st.PrefetchUnused, st.PrefetchWasted, leftovers)
	}
	if err := st.CheckPrefetch(); err != nil {
		t.Fatal(err)
	}
}

// The stride detector only overrides the sequential default when two
// consecutive inter-miss deltas agree.
func TestPrefetchStrideDetection(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be)

	buf := make([]byte, 1)
	for _, line := range []int{0, 4, 8} {
		if err := c.Read(layout.Addr(line*geo.LineSize()), buf); err != nil {
			t.Fatal(err)
		}
	}
	// Miss 0: no history -> +1 (line 1). Miss 4: delta 4 seen once ->
	// still +1 (line 5). Miss 8: delta 4 repeated -> stride 4 (line 12).
	want := []layout.LineID{1, 5, 12}
	if len(be.prefetchCalls) != len(want) {
		t.Fatalf("prefetch calls %v, want %v", be.prefetchCalls, want)
	}
	for i := range want {
		if be.prefetchCalls[i] != want[i] {
			t.Fatalf("prefetch calls %v, want %v", be.prefetchCalls, want)
		}
	}
}

// Installing a prefetched line may evict a dirty line; the victim's
// bytes must flush home and a refault must return them — the eviction
// forced by a prefetch landing must not resurrect stale (pre-write)
// bytes.
func TestPrefetchInstallEvictionKeepsDirtyBytes(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be, func(cfg *Config) { cfg.CapacityLines = 2 })

	if err := c.Write(0, []byte{42}, false); err != nil { // line 0 dirty; prefetch 1
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := c.Read(layout.Addr(geo.LineSize()), buf); err != nil { // land prefetch 1
		t.Fatal(err)
	}
	// Landing line 2's prefetch fills the cache past capacity; the
	// eviction bias picks the dirty line 0 and flushes byte 42 home.
	if err := c.Read(layout.Addr(2*geo.LineSize()), buf); err != nil {
		t.Fatal(err)
	}
	if st.Evictions == 0 || st.DirtyEvicts == 0 {
		t.Fatalf("expected a dirty eviction: evictions=%d dirty=%d", st.Evictions, st.DirtyEvicts)
	}
	if err := c.Read(0, buf); err != nil { // refault line 0 from home
		t.Fatal(err)
	}
	if buf[0] != 42 {
		t.Fatalf("refault after prefetch-forced eviction read %d, want 42", buf[0])
	}
}

// A prefetch overtaken by an acquire: the result was issued before a
// write notice invalidated one of its pages, so installing it would
// serve bytes older than the acquire. The fault must discard it
// (counting it wasted), demand-fetch with the new needs quoted, and
// return the post-release bytes.
func TestPrefetchInvalidatedByAcquireDiscarded(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)

	buf := make([]byte, 1)
	if err := c.Read(0, buf); err != nil { // miss line 0 -> prefetch line 1
		t.Fatal(err)
	}
	if len(be.prefetchCalls) != 1 || be.prefetchCalls[0] != 1 {
		t.Fatalf("prefetch calls %v", be.prefetchCalls)
	}
	// Another thread releases a write to a page of line 1 after our
	// prefetch snapshot was taken, and we acquire its notice.
	p := geo.FirstPage(1)
	be.page(p)[0] = 99
	tag := proto.IntervalTag{Writer: 2, Interval: 1}
	if err := c.ApplyNotices([]proto.Notice{{Seq: 1, Tag: tag, Pages: []uint64{uint64(p)}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(geo.PageBase(p), buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 99 {
		t.Fatalf("read %d through a stale prefetch, want the released 99", buf[0])
	}
	if st.PrefetchWasted != 1 {
		t.Fatalf("PrefetchWasted=%d, want 1 (stale result discarded)", st.PrefetchWasted)
	}
	// The replacement demand fetch must have quoted the new tag so a
	// real home would hold the reply for the release's diff.
	last := be.fetchNeeds[len(be.fetchNeeds)-1]
	found := false
	for _, need := range last {
		if layout.PageID(need.Page) != p {
			continue
		}
		for _, got := range need.Tags {
			if got == tag {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("demand refetch did not quote tag %+v: needs %+v", tag, last)
	}
}
