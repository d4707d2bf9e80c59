package pagecache

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/stats"
)

// fillGeo keeps the fill-granularity tests' lines small: four 256-byte
// pages.
var fillGeo = layout.Geometry{PageSize: 256, LinePages: 4, NumServers: 1, Striped: true}

// newFillCache is a cache of capacity lines on geo that does not
// prefetch: the fill tests look at every fetch it makes.
func newFillCache(t *testing.T, geo layout.Geometry, capacity int) (*Cache, *fakeBackend, *stats.Thread) {
	t.Helper()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be, func(cfg *Config) {
		cfg.CapacityLines = capacity
		cfg.PrefetchDepth = 0
	})
	return c, be, st
}

// pageAddr is the address of word w of page p.
func pageAddr(geo layout.Geometry, p layout.PageID, w int) layout.Addr {
	return layout.Addr(int(p)*geo.PageSize + 8*w)
}

// readLineWords reads every word of line, in order.
func readLineWords(t *testing.T, c *Cache, line layout.LineID) {
	t.Helper()
	base := int(line) * c.geo.LineSize()
	for off := 0; off < c.geo.LineSize(); off += 8 {
		mustRead(t, c, layout.Addr(base+off))
	}
}

// toPageFills reads one word of each of a run of lines from first on
// until the cache fills lines page by page, and returns the next line.
func toPageFills(t *testing.T, c *Cache, first layout.LineID) layout.LineID {
	t.Helper()
	for l := first; ; l++ {
		if c.sparse() {
			return l
		}
		if l == first+4*fillWindow {
			t.Fatalf("still filling whole lines after %d one-word lines", l-first)
		}
		mustRead(t, c, layout.Addr(int(l)*c.geo.LineSize()))
	}
}

// A thread that touches one random page of each line it pulls fills
// whole lines until a window of observations is in, and from then on
// fetches exactly the page it touches, one request per miss.
func TestRandomPageTouchesTurnToPageFills(t *testing.T) {
	c, be, st := newFillCache(t, fillGeo, 16)
	r := rand.New(rand.NewPCG(1, 2))
	const misses = 256
	line := layout.LineID(1)
	for i := range misses {
		line += layout.LineID(1 + r.IntN(64))
		p := fillGeo.FirstPage(line) + layout.PageID(r.IntN(fillGeo.LinePages))
		whole, paged := len(be.fetchCalls), len(be.combinedCalls)
		mustRead(t, c, pageAddr(fillGeo, p, r.IntN(fillGeo.PageSize/8)))
		switch {
		case i < fillWindow:
			if len(be.fetchCalls) != whole+1 || len(be.combinedCalls) != paged {
				t.Fatalf("miss %d, before a window is in: not one whole-line fetch", i)
			}
		case i >= 2*fillWindow:
			if len(be.fetchCalls) != whole || len(be.combinedCalls) != paged+1 {
				t.Fatalf("miss %d, a window later: not one page fetch", i)
			}
			if lines, pages := be.combinedCalls[paged], be.combinedPages[paged]; len(lines) != 0 || !slices.Equal(pages, []layout.PageID{p}) {
				t.Fatalf("miss %d on page %d fetched lines %v and pages %v, want page %d alone", i, p, lines, pages, p)
			}
		}
	}
	if st.PageFills < misses-2*fillWindow || st.PageFills != int64(len(be.combinedCalls)) || st.SectorFills != 0 {
		t.Fatalf("%d page fills and %d sector fills for %d page fetches of %d misses",
			st.PageFills, st.SectorFills, len(be.combinedCalls), misses)
	}
	if err := st.CheckFills(); err != nil {
		t.Fatal(err)
	}
}

// Patterns that use the lines they pull never leave whole-line fills: a
// sequential sweep and a three-row stencil fetch every line once, whole,
// in the order they first touch it, through a cache that evicts.
func TestSweepsAndStencilsKeepWholeLines(t *testing.T) {
	check := func(name string, be *fakeBackend, st *stats.Thread, want []layout.LineID) {
		t.Helper()
		if !slices.Equal(be.fetchCalls, want) || len(be.combinedCalls) != 0 || st.PageFills != 0 {
			t.Fatalf("%s: fetched lines %v and %d page lists (%d page fills), want lines %v",
				name, be.fetchCalls, len(be.combinedCalls), st.PageFills, want)
		}
	}

	c, be, st := newFillCache(t, fillGeo, 8)
	var want []layout.LineID
	for l := range layout.LineID(64) {
		readLineWords(t, c, l)
		want = append(want, l)
	}
	check("sweep", be, st, want)

	// Rows of two lines, a cache of four rows.
	const rows, rowWords = 24, 2 * 1024 / 8
	c, be, st = newFillCache(t, fillGeo, 8)
	want = want[:0]
	seen := map[layout.LineID]bool{}
	at := func(i, j int) layout.Addr { return layout.Addr((i*rowWords + j) * 8) }
	for i := 1; i < rows-1; i++ {
		for j := range rowWords {
			for _, a := range []layout.Addr{at(i-1, j), at(i, j), at(i+1, j)} {
				if l := fillGeo.LineOf(fillGeo.PageOf(a)); !seen[l] {
					seen[l] = true
					want = append(want, l)
				}
				mustRead(t, c, a)
			}
		}
	}
	check("stencil", be, st, want)
}

// A span across several pages is one request: a miss on a line the cache
// does not hold fetches every page the span covers of it, and a span over
// the pages a page fill left fetches them all as one sector fill.
func TestSpanOfPageFilledLineIsOneRequest(t *testing.T) {
	c, be, st := newFillCache(t, fillGeo, 16)
	line := toPageFills(t, c, 1) + 100
	first := fillGeo.FirstPage(line)
	buf := make([]byte, 2*fillGeo.PageSize)
	request := func(addr layout.Addr, want []layout.PageID) {
		t.Helper()
		whole, paged := len(be.fetchCalls), len(be.combinedCalls)
		if err := c.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
		if len(be.fetchCalls) != whole || len(be.combinedCalls) != paged+1 || !slices.Equal(be.combinedPages[paged], want) {
			t.Fatalf("span at %#x: %d line fetches, page lists %v, want one list %v",
				uint64(addr), len(be.fetchCalls)-whole, be.combinedPages[paged:], want)
		}
	}
	request(pageAddr(fillGeo, first+1, 2), []layout.PageID{first + 1, first + 2, first + 3})

	line++
	first = fillGeo.FirstPage(line)
	mustRead(t, c, pageAddr(fillGeo, first, 0))
	request(pageAddr(fillGeo, first+1, 2), []layout.PageID{first + 1, first + 2, first + 3})
	if st.SectorFills != 1 {
		t.Fatalf("%d sector fills, want 1", st.SectorFills)
	}
}

// A dense phase after a sparse one pays a sector fill per line until its
// observations are in, and is back to whole lines within two windows.
func TestDensePhaseSwingsBackToWholeLines(t *testing.T) {
	c, be, st := newFillCache(t, fillGeo, 4)
	line := toPageFills(t, c, 1)
	for k := 1; ; k++ {
		if k > 2*fillWindow {
			t.Fatalf("%d dense lines later, still filling page by page", k-1)
		}
		whole := len(be.fetchCalls)
		readLineWords(t, c, line)
		line++
		if len(be.fetchCalls) > whole {
			break
		}
	}
	if st.SectorFills == 0 {
		t.Fatal("no sector fill in the dense phase")
	}
	paged := len(be.combinedCalls)
	for range 2 * fillWindow {
		readLineWords(t, c, line)
		line++
	}
	if len(be.combinedCalls) != paged {
		t.Fatalf("%d page fetches after the swing back", len(be.combinedCalls)-paged)
	}
}

// A one-page line has no smaller grain: it is always fetched whole.
func TestOnePageLinesNeverFillByPage(t *testing.T) {
	geo := layout.Geometry{PageSize: 256, LinePages: 1, NumServers: 1, Striped: true}
	c, be, st := newFillCache(t, geo, 4)
	r := rand.New(rand.NewPCG(3, 4))
	for i := range 256 {
		mustRead(t, c, pageAddr(geo, layout.PageID(i*64+r.IntN(64)), r.IntN(32)))
	}
	if st.PageFills != 0 || len(be.combinedCalls) != 0 || len(be.fetchCalls) != 256 {
		t.Fatalf("%d page fills, %d page fetches, %d line fetches, want 0, 0, 256",
			st.PageFills, len(be.combinedCalls), len(be.fetchCalls))
	}
}

// The grain is a function of the access trace: two caches fed one trace
// of sparse and dense phases make the same fetches and count the same.
func TestSameTraceSameFills(t *testing.T) {
	run := func() (*fakeBackend, *stats.Thread) {
		c, be, st := newFillCache(t, fillGeo, 6)
		r := rand.New(rand.NewPCG(5, 6))
		for range 40 {
			if r.IntN(2) == 0 {
				for range 3 * fillWindow {
					mustRead(t, c, pageAddr(fillGeo, layout.PageID(r.IntN(4096)), r.IntN(32)))
				}
				continue
			}
			first := layout.LineID(r.IntN(1024))
			for l := range layout.LineID(fillWindow) {
				readLineWords(t, c, first+l)
			}
		}
		return be, st
	}
	be1, st1 := run()
	be2, st2 := run()
	if st1.PageFills == 0 || st1.SectorFills == 0 {
		t.Fatalf("%d page fills, %d sector fills: the trace does not switch both ways", st1.PageFills, st1.SectorFills)
	}
	if !slices.Equal(be1.fetchCalls, be2.fetchCalls) || !reflect.DeepEqual(be1.combinedPages, be2.combinedPages) || *st1 != *st2 {
		t.Fatalf("one trace, two caches, different fills:\n%+v\n%+v", *st1, *st2)
	}
}

// A coherence miss on a line the cache holds fetches the invalid pages
// the access covers and those the thread touched since the line became
// resident. A page the line held that no access touched stays invalid,
// needs and all, until the first access to it fetches it. A page the
// line never held is fetched: a lock grant's extents made one page of
// the line resident, and the rest were never there to go unused.
func TestRevalidationFetchesWhatTheThreadUsed(t *testing.T) {
	line := layout.LineID(1)
	p := fillGeo.FirstPage(line)
	tag := proto.IntervalTag{Writer: 2, Interval: 1}
	type step struct {
		read layout.PageID
		want []layout.PageID
	}
	for _, tc := range []struct {
		name    string
		setup   func(t *testing.T, c *Cache)
		steps   []step
		skipped int64
	}{
		{"a touched page is fetched", func(t *testing.T, c *Cache) {
			mustRead(t, c, pageAddr(fillGeo, p, 0))
			mustRead(t, c, pageAddr(fillGeo, p+2, 0))
		}, []step{{p, []layout.PageID{p, p + 2}}}, 2},
		{"a held page no access touched is skipped", func(t *testing.T, c *Cache) {
			mustRead(t, c, pageAddr(fillGeo, p, 0))
		}, []step{
			{p + 3, []layout.PageID{p, p + 3}},
			{p + 1, []layout.PageID{p + 1}},
			{p + 2, []layout.PageID{p + 2}},
		}, 2 + 1},
		{"a line a grant made fetches every page", func(t *testing.T, c *Cache) {
			if !c.InstallGrantExtents(p+1, wholePage(fillGeo, p+1, 7), 0) {
				t.Fatal("grant refused")
			}
		}, []step{{p + 1, []layout.PageID{p, p + 1, p + 2, p + 3}}}, 0},
	} {
		c, be, st := newFillCache(t, fillGeo, 4)
		tc.setup(t, c)
		if err := c.ApplyNotices([]proto.Notice{{Seq: 1, Tag: tag, Pages: []uint64{uint64(p), uint64(p + 1), uint64(p + 2), uint64(p + 3)}}}); err != nil {
			t.Fatal(err)
		}
		for _, s := range tc.steps {
			fetches := len(be.combinedCalls)
			mustRead(t, c, pageAddr(fillGeo, s.read, 1))
			if len(be.combinedCalls) != fetches+1 || len(be.combinedCalls[fetches]) != 0 || !slices.Equal(be.combinedPages[fetches], s.want) {
				t.Fatalf("%s: a read of page %d fetched %d lists %v, want the pages %v", tc.name, s.read, len(be.combinedCalls)-fetches, be.combinedPages[fetches:], s.want)
			}
			needs := be.fetchNeeds[len(be.fetchNeeds)-1]
			for i, n := range needs {
				if len(needs) != len(s.want) || n.Page != uint64(s.want[i]) || !slices.Equal(n.Tags, []proto.IntervalTag{tag}) {
					t.Fatalf("%s: the fetch of pages %v quotes %+v", tc.name, s.want, needs)
				}
			}
		}
		if st.SkippedPages != tc.skipped {
			t.Fatalf("%s: %d pages skipped, want %d", tc.name, st.SkippedPages, tc.skipped)
		}
	}
}
