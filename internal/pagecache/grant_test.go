package pagecache

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
)

// Extents of a page shipped with a lock grant make the thread's invalid
// copy valid over them, so InstallGrantExtents must refuse them while the
// thread knows of a write the releaser's copy, vouched for up to the
// grant's horizon, may lack: a need above the horizon, or a write of the
// thread's own whose notice has not come back at or below it. Every other
// copy installs, as one word (the page stays stale elsewhere and keeps
// its needs) or as the whole page (which clears them).
func TestInstallGrantPageRefusesWhatTheHorizonMissed(t *testing.T) {
	geo := layout.DefaultGeometry()
	shipped := wholePage(geo, 0, 7)
	var word [8]byte
	word[0] = 42
	const p = layout.PageID(0)

	// Each case leaves page p invalid and returns the horizons at which
	// the grant must be refused and then the one at which it installs.
	cases := []struct {
		name  string
		lines int
		setup func(t *testing.T, c *Cache) (refuse []uint64, install uint64)
	}{
		{"own write lost to an invalidation", 0, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustWrite(t, c, 0, word[:], false)
			notify(t, c, 2, 2, p) // flushes the dirty page home
			refuseAll(t, c, p, shipped, 5, 1<<40)
			c.CollectRelease()
			refuseAll(t, c, p, shipped, 5)
			notify(t, c, 1, 6, p) // own notice back above 5
			return []uint64{5}, 6
		}},
		{"own write lost to an eviction", 1, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustWrite(t, c, 0, word[:], false)
			mustRead(t, c, layout.Addr(geo.LineSize())) // evicts line 0, flushing it
			refuseAll(t, c, p, shipped, 5)
			c.CollectRelease()
			notify(t, c, 1, 3, p)
			return []uint64{2}, 3
		}},
		{"own record lost to an eviction", 1, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustWrite(t, c, 0, word[:], true)
			mustRead(t, c, layout.Addr(geo.LineSize()))
			refuseAll(t, c, p, shipped, 5)
			rs := c.CollectRelease()
			if err := c.ApplyNotices([]proto.Notice{{Seq: 4, Tag: rs.Tag, Records: rs.Records}}); err != nil {
				t.Fatal(err)
			}
			return []uint64{3}, 4
		}},
		// A notice can come back with its record left out, because a later
		// notice of the same list repeats the record (last record wins). It
		// still vouches for the record's page.
		{"own record left out of its notice", 0, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustWrite(t, c, 0, word[:], true)
			rs := c.CollectRelease()
			notify(t, c, 2, 3, p) // invalidates the page
			survivor := proto.Notice{Seq: 5, Tag: proto.IntervalTag{Writer: 2, Interval: 5}, Records: []proto.StoreRecord{{Addr: 0, Data: word[:]}}}
			if err := c.ApplyNotices([]proto.Notice{{Seq: 4, Tag: rs.Tag}, survivor}); err != nil {
				t.Fatal(err)
			}
			return []uint64{4}, 5
		}},
		{"own evicted record left out of its notice", 1, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustWrite(t, c, 0, word[:], true)
			mustRead(t, c, layout.Addr(geo.LineSize()))
			rs := c.CollectRelease()
			if err := c.ApplyNotices([]proto.Notice{{Seq: 4, Tag: rs.Tag}}); err != nil {
				t.Fatal(err)
			}
			return []uint64{3}, 4
		}},
		{"need above the horizon", 0, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustRead(t, c, 0)
			notify(t, c, 2, 9, p)
			return []uint64{8}, 9
		}},
		{"need that came inline", 0, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustRead(t, c, 0)
			notify(t, c, 2, 0, p)
			refuseAll(t, c, p, shipped, 1<<62)
			// A fetch clears it; a later need at 3 vouched for at 3 installs.
			mustRead(t, c, 0)
			notify(t, c, 2, 3, p)
			return []uint64{2}, 3
		}},
		{"foreign need only", 0, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustRead(t, c, 0)
			notify(t, c, 2, 1, p)
			return nil, 1
		}},
		{"absent line", 0, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			return nil, 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, exts := range [][]proto.PagePayload{{{Page: uint64(p), Off: 16, Data: shipped[0].Data[:8]}}, shipped} {
				be := newFakeBackend(geo)
				be.noPrefetch = true
				c, _, _ := newCache(t, geo, be, func(cfg *Config) { cfg.CapacityLines = tc.lines })
				refuse, at := tc.setup(t, c)
				refuseAll(t, c, p, shipped, refuse...)
				needs := slices.Clone(c.pageNeeds[p].tags)
				if !c.InstallGrantExtents(p, exts, at) {
					t.Fatalf("refused at horizon %d", at)
				}
				le := c.lines[geo.LineOf(p)]
				ps := le.pages[c.pageIndex(p)]
				e := exts[0]
				if !ps.valid || !bytes.Equal(le.data[e.Off:int(e.Off)+len(e.Data)], e.Data) {
					t.Fatal("the shipped bytes did not land")
				}
				whole := len(e.Data) == geo.PageSize
				if _, ok := c.pageNeeds[p]; whole && ok {
					t.Fatal("a whole-page install left the page's needs")
				}
				if !whole && !slices.Equal(c.pageNeeds[p].tags, needs) {
					t.Fatalf("a partial install changed the page's needs from %v to %v", needs, c.pageNeeds[p].tags)
				}
				if want := []byteRange{{0, 16}, {24, geo.PageSize}}; !whole && !slices.Equal(ps.stale, want) || whole && len(ps.stale) > 0 {
					t.Fatalf("stale ranges %v after installing %d bytes at %d", ps.stale, len(e.Data), e.Off)
				}
			}
		})
	}
}

// A cold receiver of a word shipped with a lock grant hits on it; a read
// outside it faults and quotes the page's needs; a page that is already
// valid keeps its own bytes.
func TestInstallGrantExtentsServeOnlyTheShippedBytes(t *testing.T) {
	geo := layout.DefaultGeometry()
	const p = layout.PageID(1)
	base := layout.Addr(geo.PageSize)
	word := []proto.PagePayload{{Page: uint64(p), Off: 64, Data: bytes.Repeat([]byte{9}, 8)}}
	be := newFakeBackend(geo)
	be.noPrefetch = true
	c, _, st := newCache(t, geo, be)

	notify(t, c, 2, 3, p) // a need on a page this thread never held
	if !c.InstallGrantExtents(p, word, 3) {
		t.Fatal("refused a cold page")
	}
	var b [8]byte
	if err := c.Read(base+64, b[:]); err != nil {
		t.Fatal(err)
	}
	if st.Misses != 0 || !bytes.Equal(b[:], word[0].Data) {
		t.Fatalf("read of the shipped word: %v after %d misses", b, st.Misses)
	}
	if err := c.Read(base+128, b[:]); err != nil {
		t.Fatal(err)
	}
	want := []proto.PageNeed{{Page: uint64(p), Tags: []proto.IntervalTag{{Writer: 2, Interval: 3}}}}
	if st.Misses != 1 || len(be.fetchNeeds) != 1 || !slices.EqualFunc(be.fetchNeeds[0], want, func(a, b proto.PageNeed) bool {
		return a.Page == b.Page && slices.Equal(a.Tags, b.Tags)
	}) {
		t.Fatalf("read outside the shipped word: %d misses, fetches quoting %v", st.Misses, be.fetchNeeds)
	}
	if _, ok := c.pageNeeds[p]; ok {
		t.Fatal("the refetch left the page's needs")
	}

	mustRead(t, c, 0) // page 0 valid, from home
	home := slices.Clone(c.lines[0].data[:geo.PageSize])
	if c.InstallGrantExtents(0, wholePage(geo, 0, 7), 1<<40) || !bytes.Equal(c.lines[0].data[:geo.PageSize], home) {
		t.Fatal("a valid page took the shipped bytes")
	}
}

// wholePage is one extent of page p, every byte b.
func wholePage(geo layout.Geometry, p layout.PageID, b byte) []proto.PagePayload {
	return []proto.PagePayload{{Page: uint64(p), Data: bytes.Repeat([]byte{b}, geo.PageSize)}}
}

// refuseAll checks that InstallGrantExtents refuses page p at every
// horizon and leaves it as it was.
func refuseAll(t *testing.T, c *Cache, p layout.PageID, exts []proto.PagePayload, horizons ...uint64) {
	t.Helper()
	for _, h := range horizons {
		needs := len(c.pageNeeds[p].tags)
		if c.InstallGrantExtents(p, exts, h) {
			t.Fatalf("installed at horizon %d", h)
		}
		if le, ok := c.lines[c.geo.LineOf(p)]; ok && le.pages[c.pageIndex(p)].valid {
			t.Fatalf("page valid after a refusal at horizon %d", h)
		}
		if len(c.pageNeeds[p].tags) != needs {
			t.Fatalf("a refusal at horizon %d changed the page's needs", h)
		}
	}
}

// notify applies one notice from writer naming page p.
func notify(t *testing.T, c *Cache, writer uint32, seq uint64, p layout.PageID) {
	t.Helper()
	tag := proto.IntervalTag{Writer: writer, Interval: max(seq, 1)}
	if writer == c.cfg.Writer {
		tag.Interval = c.Interval()
	}
	if err := c.ApplyNotices([]proto.Notice{{Seq: seq, Tag: tag, Pages: []uint64{uint64(p)}}}); err != nil {
		t.Fatal(err)
	}
}

func mustRead(t *testing.T, c *Cache, addr layout.Addr) {
	t.Helper()
	var b [8]byte
	if err := c.Read(addr, b[:]); err != nil {
		t.Fatal(err)
	}
}

func mustWrite(t *testing.T, c *Cache, addr layout.Addr, data []byte, region bool) {
	t.Helper()
	if err := c.Write(addr, data, region); err != nil {
		t.Fatal(err)
	}
}

// FinishRecordHomes completes only the batches that carry store records,
// with the diffs bound for the same home; FinishRelease diffs the rest.
// Every home gets one batch.
func TestFinishRecordHomesLeavesTheOtherHomes(t *testing.T) {
	geo := layout.DefaultGeometry()
	geo.NumServers = 2
	be := newFakeBackend(geo)
	be.noPrefetch = true
	c, _, _ := newCache(t, geo, be)
	recHome, other := layout.Addr(0), layout.Addr(geo.LineSize()) // lines 0 and 1: homes 0 and 1
	for _, a := range []layout.Addr{recHome, other} {
		notify(t, c, 2, 1, geo.PageOf(a)) // shared: their diffs are deferred
		mustWrite(t, c, a+8, []byte{1}, false)
	}
	mustWrite(t, c, recHome+64, []byte{2}, true)
	rs := c.BeginRelease()
	c.FinishRecordHomes(rs)
	if b := rs.ByHome[0]; b == nil || len(b.Records) != 1 || len(b.Diffs) != 1 {
		t.Fatalf("record home's batch %+v", b)
	}
	if rs.ByHome[1] != nil {
		t.Fatalf("the other home's batch was made early: %+v", rs.ByHome[1])
	}
	c.FinishRelease(rs)
	if b := rs.ByHome[1]; b == nil || len(b.Diffs) != 1 || len(rs.ByHome[0].Diffs) != 1 {
		t.Fatalf("batches after FinishRelease: %+v, %+v", rs.ByHome[0], b)
	}
}

// AppendGrantExtents ships the merged extents of the records on the pages
// asked for, read from the cache; more than maxStaleRanges of them become
// the whole page, and a page stale over one of them is left out.
func TestAppendGrantExtents(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	be.noPrefetch = true
	c, _, _ := newCache(t, geo, be)
	ps := layout.Addr(geo.PageSize)
	rec := func(a layout.Addr, n int) proto.StoreRecord {
		return proto.StoreRecord{Addr: uint64(a), Data: make([]byte, n)}
	}
	for p := range 4 {
		mustRead(t, c, layout.Addr(p)*ps)
	}
	mustWrite(t, c, 20, []byte{5, 6, 7, 8}, false)
	records := []proto.StoreRecord{rec(ps+8, 8), rec(16, 8), rec(20, 8), rec(ps+100, 8), rec(2*ps, 8), rec(40, 8)}
	for i := range maxStaleRanges + 1 {
		records = append(records, rec(3*ps+layout.Addr(16*i), 8))
	}
	all := func(layout.PageID) bool { return true }
	got := c.AppendGrantExtents(nil, records, func(p layout.PageID) bool { return p != 2 })
	want := []proto.PagePayload{{Page: 0, Off: 16}, {Page: 0, Off: 40}, {Page: 1, Off: 8}, {Page: 1, Off: 100}, {Page: 3}}
	lens := []int{12, 8, 8, 8, geo.PageSize}
	if len(got) != len(want) {
		t.Fatalf("got %d extents, want %d: %+v", len(got), len(want), got)
	}
	for i, e := range got {
		if e.Page != want[i].Page || e.Off != want[i].Off || len(e.Data) != lens[i] {
			t.Fatalf("extent %d: page %d [%d, +%d), want page %d [%d, +%d)", i, e.Page, e.Off, len(e.Data), want[i].Page, want[i].Off, lens[i])
		}
	}
	if !bytes.Equal(got[0].Data[4:8], []byte{5, 6, 7, 8}) {
		t.Fatalf("extent bytes %v are not the cache's", got[0].Data)
	}

	// Page 1 goes stale over [100, 108) alone: its extents are left out.
	if err := c.ApplyNotices([]proto.Notice{{Seq: 2, Tag: proto.IntervalTag{Writer: 2, Interval: 2}, Pages: []uint64{1, proto.PackSpanExtent(100, 8)}}}); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.AppendGrantExtents(nil, records, all) {
		if e.Page == 1 {
			t.Fatalf("shipped %+v from a page stale over it", e)
		}
	}
}

// A lock grant can make a line resident while its prefetch, issued
// before the grant, is still in flight. What the grant shipped, and what
// this thread stores on the line from then on, must survive the
// prefetch: the fault that consumes it fills only the line's invalid
// pages and the stale ranges of its valid ones; a page this thread
// stored on and that went invalid since makes the prefetch stale; and an
// eviction of the line wastes the prefetch. Each case reads back the
// word its thread stored last, released to the home as the runtime
// would deliver it.
func TestGrantedLineOutlivesItsPrefetch(t *testing.T) {
	geo := layout.DefaultGeometry()
	for _, tc := range []struct {
		name  string
		whole bool // the grant ships the whole page, or the word at 64
		then  func(t *testing.T, c *Cache, p layout.PageID)
	}{
		{"another page faults", true, func(t *testing.T, c *Cache, p layout.PageID) {
			mustRead(t, c, layout.Addr(int(p+1)*geo.PageSize))
		}},
		{"the stored page goes stale", false, func(t *testing.T, c *Cache, p layout.PageID) {
			mustRead(t, c, layout.Addr(int(p)*geo.PageSize+128))
		}},
		{"the line is evicted", true, func(t *testing.T, c *Cache, p layout.PageID) {
			for l := layout.LineID(4); l < 8; l++ {
				mustRead(t, c, layout.Addr(int(l)*geo.LineSize()))
			}
			if _, ok := c.lines[geo.LineOf(p)]; ok {
				t.Fatal("the line was not evicted")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be := newFakeBackend(geo)
			c, _, _ := newCache(t, geo, be, func(cfg *Config) { cfg.CapacityLines = 2 })
			mustRead(t, c, 0) // line 0 misses and prefetches line 1
			p := geo.FirstPage(1)
			if _, inflight := c.pending[1]; !inflight {
				t.Fatal("no prefetch of line 1 in flight")
			}
			exts := wholePage(geo, p, 7)
			if !tc.whole {
				exts = []proto.PagePayload{{Page: uint64(p), Off: 64, Data: bytes.Repeat([]byte{7}, 8)}}
			}
			if !c.InstallGrantExtents(p, exts, 1<<40) {
				t.Fatal("refused a page of a line not resident")
			}
			word := layout.Addr(int(p)*geo.PageSize + 64)
			mustWrite(t, c, word, bytes.Repeat([]byte{9}, 8), true)
			for _, b := range c.CollectRelease().ByHome {
				for _, rec := range b.Records {
					copy(be.page(geo.PageOf(layout.Addr(rec.Addr)))[geo.PageOffset(layout.Addr(rec.Addr)):], rec.Data)
				}
			}
			tc.then(t, c, p)
			var got [8]byte
			if err := c.Read(word, got[:]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:], bytes.Repeat([]byte{9}, 8)) {
				t.Fatalf("the stored word reads %v", got)
			}
		})
	}
}
