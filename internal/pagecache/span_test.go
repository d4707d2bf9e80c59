package pagecache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// ---------------------------------------------------------------------
// Span vs element equivalence.

// Property: the same random mix of accesses performed through the span
// entry points (ReadSpan/WriteSpan) and through the per-element entry
// points (Read/Write) leaves bit-identical memory and produces
// identical page diffs at release. The span plane changes costs and
// wire metadata, never bytes.
func TestSpanMatchesElementProperty(t *testing.T) {
	geo := layout.Geometry{PageSize: 256, LinePages: 2, NumServers: 1, Striped: true}
	prop := func(seed int64) bool {
		beS, beE := newFakeBackend(geo), newFakeBackend(geo)
		mkCache := func(be *fakeBackend) *Cache {
			return New(Config{Geo: geo, CPU: vtime.DefaultCPU, Writer: 1, PrefetchDepth: 1},
				be, vtime.NewClock(0), &stats.Thread{})
		}
		cs, ce := mkCache(beS), mkCache(beE)
		// Mark a page shared so releases ship eager diffs we can compare.
		notice := []proto.Notice{{Seq: 1, Tag: proto.IntervalTag{Writer: 9, Interval: 1}, Pages: []uint64{0, 1, 2, 3}}}
		if cs.ApplyNotices(notice) != nil || ce.ApplyNotices(notice) != nil {
			return false
		}

		rng := rand.New(rand.NewSource(seed))
		const span = 1024 // 4 pages, 2 lines
		model := make([]byte, span)
		for op := 0; op < 200; op++ {
			addr := rng.Intn(span - 48)
			n := 1 + rng.Intn(48) // straddles page and line boundaries freely
			if rng.Intn(2) == 0 {
				data := make([]byte, n)
				rng.Read(data)
				copy(model[addr:], data)
				if cs.WriteSpan(layout.Addr(addr), data, false) != nil {
					return false
				}
				// Element path: one Write per byte.
				for i, b := range data {
					if ce.Write(layout.Addr(addr+i), []byte{b}, false) != nil {
						return false
					}
				}
			} else {
				got := make([]byte, n)
				if cs.ReadSpan(layout.Addr(addr), got) != nil {
					return false
				}
				if !bytes.Equal(got, model[addr:addr+n]) {
					return false
				}
				one := make([]byte, 1)
				for i := 0; i < n; i++ {
					if ce.Read(layout.Addr(addr+i), one) != nil || one[0] != model[addr+i] {
						return false
					}
				}
			}
		}

		// Releases must carry the identical diffs (same pages, same runs,
		// same bytes) regardless of the data plane that produced them.
		collect := func(c *Cache) map[uint64]string {
			rs := c.CollectRelease()
			out := map[uint64]string{}
			for _, b := range rs.ByHome {
				for _, d := range b.Diffs {
					key := ""
					for _, run := range d.Runs {
						key += fmt.Sprintf("%d:%x;", run.Off, run.Data)
					}
					out[d.Page] = key
				}
			}
			return out
		}
		ds, de := collect(cs), collect(ce)
		if len(ds) != len(de) {
			return false
		}
		for p, k := range ds {
			if de[p] != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz the boundary geometry directly: spans that straddle page and
// line edges round-trip through a cache exactly like a flat array.
func TestSpanBoundaryStraddleFuzz(t *testing.T) {
	geo := layout.Geometry{PageSize: 128, LinePages: 2, NumServers: 1, Striped: true}
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be)
	const span = 2048
	model := make([]byte, span)
	rng := rand.New(rand.NewSource(7))
	// Aim writes at the edges: for each boundary, a span starting just
	// before it with a length that crosses it.
	for _, edge := range []int{128, 256, 384, 512, 1024, 1536} {
		for _, back := range []int{1, 3, 8, 17} {
			addr := edge - back
			n := back + 1 + rng.Intn(64)
			if addr < 0 || addr+n > span {
				continue
			}
			data := make([]byte, n)
			rng.Read(data)
			copy(model[addr:], data)
			if err := c.WriteSpan(layout.Addr(addr), data, false); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, n)
			if err := c.ReadSpan(layout.Addr(addr), got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("edge %d back %d: immediate read-back mismatch", edge, back)
			}
		}
	}
	got := make([]byte, span)
	if err := c.ReadSpan(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("final memory diverged from the flat model")
	}
}

// ---------------------------------------------------------------------
// Record semantics.

// A consistency-region span logs ONE record per contiguous page chunk;
// the element path logs one per store but adjacent records coalesce at
// append time to the same thing. RecordBytes counts payload identically
// in every case.
func TestSpanRegionRecordPerPageChunk(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)

	// A span crossing one page boundary: two chunks, two records.
	n := 64
	addr := layout.Addr(geo.PageSize - 24)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i + 1)
	}
	if err := c.WriteSpan(addr, data, true); err != nil {
		t.Fatal(err)
	}
	if st.RecordsLogged != 2 || st.RecordBytes != int64(n) {
		t.Fatalf("records=%d bytes=%d, want 2/%d", st.RecordsLogged, st.RecordBytes, n)
	}
	rs := c.CollectRelease()
	if len(rs.Records) != 2 {
		t.Fatalf("release records %+v", rs.Records)
	}
	if rs.Records[0].Addr != uint64(addr) || len(rs.Records[0].Data) != 24 {
		t.Fatalf("first chunk %+v", rs.Records[0])
	}
	if rs.Records[1].Addr != uint64(geo.PageSize) || len(rs.Records[1].Data) != n-24 {
		t.Fatalf("second chunk %+v", rs.Records[1])
	}
}

func TestAdjacentRegionRecordsCoalesce(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)

	for i := 0; i < 8; i++ {
		if err := c.Write(layout.Addr(64+8*i), []byte{1, 2, 3, 4, 5, 6, 7, 8}, true); err != nil {
			t.Fatal(err)
		}
	}
	if st.RecordsLogged != 1 || st.RecordBytes != 64 {
		t.Fatalf("records=%d bytes=%d, want 1/64", st.RecordsLogged, st.RecordBytes)
	}
	rs := c.CollectRelease()
	if len(rs.Records) != 1 || rs.Records[0].Addr != 64 || len(rs.Records[0].Data) != 64 {
		t.Fatalf("coalesced record %+v", rs.Records)
	}

	// Non-adjacent stores never coalesce.
	if err := c.Write(200, []byte{1}, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(300, []byte{2}, true); err != nil {
		t.Fatal(err)
	}
	if st.RecordsLogged != 3 {
		t.Fatalf("records=%d after gap stores, want 3", st.RecordsLogged)
	}
}

func TestNoRecordCoalesceAblation(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be, func(cfg *Config) { cfg.NoRecordCoalesce = true })

	for i := 0; i < 8; i++ {
		if err := c.Write(layout.Addr(64+8*i), []byte{1, 2, 3, 4, 5, 6, 7, 8}, true); err != nil {
			t.Fatal(err)
		}
	}
	if st.RecordsLogged != 8 || st.RecordBytes != 64 {
		t.Fatalf("records=%d bytes=%d, want 8/64 with coalescing off", st.RecordsLogged, st.RecordBytes)
	}
	if rs := c.CollectRelease(); len(rs.Records) != 8 {
		t.Fatalf("release records %d, want 8", len(rs.Records))
	}
}

// Coalescing must never bridge a page boundary: the home applies each
// record to one page.
func TestRecordCoalesceStopsAtPageBoundary(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)

	addr := layout.Addr(geo.PageSize - 8)
	if err := c.Write(addr, []byte{1, 2, 3, 4, 5, 6, 7, 8}, true); err != nil {
		t.Fatal(err)
	}
	// Adjacent, but on the next page.
	if err := c.Write(addr+8, []byte{9, 10}, true); err != nil {
		t.Fatal(err)
	}
	if st.RecordsLogged != 2 {
		t.Fatalf("records=%d, want 2 (no cross-page coalesce)", st.RecordsLogged)
	}
}

// ---------------------------------------------------------------------
// Fused read-modify-write.

func TestReadModifyWrite8Ordinary(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)

	add := func(addr layout.Addr, v byte) {
		if err := c.ReadModifyWrite8(addr, false, func(b []byte) { b[0] += v }); err != nil {
			t.Fatal(err)
		}
	}
	add(16, 3)
	add(16, 4)
	if st.Twins != 1 {
		t.Fatalf("Twins=%d, want 1 (twin once, reuse after)", st.Twins)
	}
	got := make([]byte, 1)
	if err := c.Read(16, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatalf("fused RMW result %d, want 7", got[0])
	}
	// The release diff carries the mutation (twin was taken BEFORE f).
	rs := c.CollectRelease()
	if len(rs.Pages) != 1 {
		t.Fatalf("release pages %v", rs.Pages)
	}
}

func TestReadModifyWrite8RegionLogsOneRecord(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)

	if err := c.ReadModifyWrite8(32, true, func(b []byte) { b[0] = 5 }); err != nil {
		t.Fatal(err)
	}
	if st.RecordsLogged != 1 || st.RecordBytes != 8 {
		t.Fatalf("records=%d bytes=%d", st.RecordsLogged, st.RecordBytes)
	}
	if c.DirtyPages() != 0 {
		t.Fatal("region RMW dirtied the page")
	}
}

func TestReadModifyWrite8RejectsPageStraddle(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be)
	if err := c.ReadModifyWrite8(layout.Addr(geo.PageSize-4), false, func([]byte) {}); err == nil {
		t.Fatal("page-straddling fused access not rejected")
	}
}

// ---------------------------------------------------------------------
// Partial staleness.

// An extent notice on a clean valid page narrows the invalidation: a
// read outside the extent stays a hit (no fetch), a read inside demotes
// and refetches the merged bytes, quoting the notice's tag.
func TestPartialStalenessHitOutsideExtent(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	be.noPrefetch = true
	c, _, st := newCache(t, geo, be)

	buf := make([]byte, 8)
	if err := c.ReadSpan(0, buf); err != nil { // page 0 resident
		t.Fatal(err)
	}
	fetches := len(be.fetchCalls)

	tag := proto.IntervalTag{Writer: 2, Interval: 1}
	pages := append([]uint64{0}, proto.PackSpanExtent(100, 10))
	if err := c.ApplyNotices([]proto.Notice{{Seq: 1, Tag: tag, Pages: pages}}); err != nil {
		t.Fatal(err)
	}
	if st.Invalidations != 1 || st.PartialInvals != 1 {
		t.Fatalf("invals=%d partial=%d", st.Invalidations, st.PartialInvals)
	}

	// Outside [100,110): still a hit.
	if err := c.ReadSpan(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadSpan(110, buf); err != nil {
		t.Fatal(err)
	}
	if len(be.fetchCalls) != fetches {
		t.Fatalf("non-overlapping access fetched: %v", be.fetchCalls)
	}

	// Inside: demote + refetch, and the fetch quotes the tag.
	be.page(0)[104] = 42
	if err := c.ReadSpan(100, buf); err != nil {
		t.Fatal(err)
	}
	if buf[4] != 42 {
		t.Fatalf("stale byte served after overlapping access: %v", buf)
	}
	if len(be.fetchCalls)+len(be.combinedCalls) == fetches {
		t.Fatal("overlapping access did not refetch")
	}
	last := be.fetchNeeds[len(be.fetchNeeds)-1]
	found := false
	for _, need := range last {
		if need.Page != 0 {
			continue
		}
		for _, tg := range need.Tags {
			if tg == tag {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("refetch did not quote the extent notice's tag: %+v", last)
	}
}

// A dirty page with span-tracked written extents disjoint from the
// incoming extents keeps its dirty bytes with no flush; the next
// release still publishes them.
func TestPartialStalenessDirtyDisjointWriter(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	be.noPrefetch = true
	c, _, st := newCache(t, geo, be)

	mine := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := c.WriteSpan(0, mine, false); err != nil { // wext=[0,8)
		t.Fatal(err)
	}
	tag := proto.IntervalTag{Writer: 2, Interval: 1}
	pages := append([]uint64{0}, proto.PackSpanExtent(512, 16)) // disjoint
	if err := c.ApplyNotices([]proto.Notice{{Seq: 1, Tag: tag, Pages: pages}}); err != nil {
		t.Fatal(err)
	}
	if be.flushCalls != 0 {
		t.Fatal("disjoint extent notice flushed the dirty page")
	}
	if st.PartialInvals != 1 {
		t.Fatalf("PartialInvals=%d", st.PartialInvals)
	}
	// Our bytes are intact and the release still ships them.
	got := make([]byte, 8)
	if err := c.ReadSpan(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mine) {
		t.Fatalf("own dirty bytes lost: %v", got)
	}
	rs := c.CollectRelease()
	if len(rs.Pages) == 0 {
		t.Fatal("dirty page vanished from the release")
	}
}

// The same scenario but with overlapping extents: the cache must fall
// back to the legacy merge (flush own diff home, full invalidation).
func TestPartialStalenessDirtyOverlapFlushes(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	be.noPrefetch = true
	c, _, _ := newCache(t, geo, be)

	if err := c.WriteSpan(0, []byte{9, 9, 9, 9}, false); err != nil {
		t.Fatal(err)
	}
	tag := proto.IntervalTag{Writer: 2, Interval: 1}
	pages := append([]uint64{0}, proto.PackSpanExtent(2, 8)) // overlaps [0,4)
	if err := c.ApplyNotices([]proto.Notice{{Seq: 1, Tag: tag, Pages: pages}}); err != nil {
		t.Fatal(err)
	}
	if be.flushCalls != 1 {
		t.Fatalf("flushCalls=%d, want 1 (merge flush)", be.flushCalls)
	}
	// Own bytes reached home despite the full invalidation.
	if be.page(0)[0] != 9 {
		t.Fatal("merge flush lost own bytes")
	}
}

// A legacy (element) write downgrades extent tracking: the page's
// release publishes no extent words, so peers fully invalidate — wire
// behavior identical to the pre-span runtime.
func TestLegacyWriteSuppressesExtentWords(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be)

	// Make the page shared so the release lists it.
	if err := c.ApplyNotices([]proto.Notice{{
		Seq: 1, Tag: proto.IntervalTag{Writer: 9, Interval: 1}, Pages: []uint64{0},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSpan(0, []byte{1, 2, 3, 4}, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(100, []byte{5}, false); err != nil { // legacy store
		t.Fatal(err)
	}
	rs := c.CollectRelease()
	for _, w := range rs.Pages {
		if proto.IsSpanExtent(w) {
			t.Fatalf("extent word published after a legacy store: %v", rs.Pages)
		}
	}
}

// A pure span interval publishes extent words after the page word.
func TestSpanReleasePublishesExtentWords(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be)

	if err := c.ApplyNotices([]proto.Notice{{
		Seq: 1, Tag: proto.IntervalTag{Writer: 9, Interval: 1}, Pages: []uint64{0},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSpan(16, []byte{1, 2, 3, 4, 5, 6, 7, 8}, false); err != nil {
		t.Fatal(err)
	}
	rs := c.CollectRelease()
	if len(rs.Pages) != 2 || rs.Pages[0] != 0 || !proto.IsSpanExtent(rs.Pages[1]) {
		t.Fatalf("release pages %v, want [page0 extent]", rs.Pages)
	}
	off, n := proto.SpanExtent(rs.Pages[1])
	if off != 16 || n != 8 {
		t.Fatalf("extent [%d,%d), want [16,24)", off, off+n)
	}
}

func BenchmarkSpanRead(b *testing.B)    { benchAccess(b, true) }
func BenchmarkElementRead(b *testing.B) { benchAccess(b, false) }

func benchAccess(b *testing.B, spans bool) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	clk := vtime.NewClock(0)
	c := New(Config{Geo: geo, CPU: vtime.DefaultCPU, Writer: 1}, be, clk, &stats.Thread{})
	buf := make([]byte, 4096)
	if err := c.ReadSpan(0, buf); err != nil { // warm
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if spans {
			if err := c.ReadSpan(0, buf); err != nil {
				b.Fatal(err)
			}
		} else {
			for off := 0; off < 4096; off += 8 {
				if err := c.Read(layout.Addr(off), buf[off:off+8]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
