package pagecache

import (
	"bytes"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// Every frame the cache drops goes back to the pool and nothing it still
// holds does. After evictions (dirty ones too), a stale prefetch, a
// DropRange that discards a prefetch and a combined fetch, every buffer
// of a line's or a combined reply's size the pool hands out is written
// over with 0xA5: every page of every resident line must still read what
// the thread last wrote or fetched.
func TestDroppedFramesArePooledAndResidentOnesAreNot(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	want := make(map[layout.PageID][]byte)
	const nlines = 32
	for p := layout.PageID(0); p < nlines*layout.PageID(geo.LinePages); p++ {
		b := make([]byte, geo.PageSize)
		for i := range b {
			b[i] = byte(int(p)*31 + i%251)
		}
		be.home[p] = b
		want[p] = bytes.Clone(b)
	}
	c, _, st := newCache(t, geo, pooledBackend{be}, func(cfg *Config) { cfg.CapacityLines = 6 })
	lineAddr := func(l int) layout.Addr { return layout.Addr(l * geo.LineSize()) }
	var word [8]byte
	read := func(addr layout.Addr) {
		t.Helper()
		if err := c.Read(addr, word[:]); err != nil {
			t.Fatal(err)
		}
	}
	write := func(addr layout.Addr, v byte) {
		t.Helper()
		data := bytes.Repeat([]byte{v}, 8)
		if err := c.Write(addr, data, false); err != nil {
			t.Fatal(err)
		}
		p := geo.PageOf(addr)
		copy(want[p][geo.PageOffset(addr):], data)
	}
	foreign := func(p layout.PageID, interval uint64) {
		t.Helper()
		n := []proto.Notice{{Tag: proto.IntervalTag{Writer: 2, Interval: interval}, Pages: []uint64{uint64(p)}}}
		if err := c.ApplyNotices(n); err != nil {
			t.Fatal(err)
		}
	}

	// A stream over 16 lines in a 6-line cache: demand faults, one-ahead
	// prefetches, and evictions, every other one of a dirty line.
	for l := 0; l < 16; l++ {
		read(lineAddr(l))
		if l%2 == 0 {
			write(lineAddr(l)+layout.Addr(geo.PageSize)+64, byte(l+1))
		}
	}
	// A stale prefetch: the fault of line 16 prefetches line 17, and a
	// notice names a page of 17 before it is used.
	read(lineAddr(16))
	foreign(geo.FirstPage(17)+2, 1)
	wasted := st.PrefetchWasted
	read(lineAddr(17))
	if st.PrefetchWasted != wasted+1 {
		t.Fatalf("the prefetch of line 17 was not discarded (wasted %d -> %d)", wasted, st.PrefetchWasted)
	}
	// A DropRange over lines 18 and 19, with the prefetch of line 18 that
	// the fault of 17 issued still in flight.
	if _, ok := c.pending[18]; !ok {
		t.Fatal("no prefetch of line 18 in flight")
	}
	c.DropRange(geo.FirstPage(18), 2*uint64(geo.LinePages))
	// A combined fetch: a page of resident, dirty line 16 is invalidated
	// (and flushed), and the fault of line 20 revalidates it too. Line 20
	// is resident when the pool is drained.
	write(lineAddr(16)+8, 0xEE)
	foreign(geo.FirstPage(16), 2)
	combined := st.CombinedFetches
	read(lineAddr(20))
	write(lineAddr(20)+24, 0xDD)
	if st.CombinedFetches != combined+1 {
		t.Fatal("the fault of line 20 did not combine the invalid page of line 16")
	}
	if st.Evictions < 10 || st.DirtyEvicts == 0 {
		t.Fatalf("the run evicted %d lines, %d dirty; the test is vacuous", st.Evictions, st.DirtyEvicts)
	}

	// Drain the pool of line-sized and combined-reply-sized buffers and
	// write over each one.
	var drawn [][]byte
	for i := 0; i < 512; i++ {
		for _, n := range []int{geo.LineSize(), geo.LineSize() + geo.PageSize} {
			b := proto.GetBuf(n)
			b = b[:cap(b)]
			for k := range b {
				b[k] = 0xA5
			}
			drawn = append(drawn, b)
		}
	}
	checked := 0
	for id, le := range c.lines {
		first := geo.FirstPage(id)
		for i := range le.pages {
			if !le.pages[i].valid {
				continue
			}
			p := first + layout.PageID(i)
			if got := le.data[i*geo.PageSize : (i+1)*geo.PageSize]; !bytes.Equal(got, want[p]) {
				t.Fatalf("page %d of resident line %d changed once the pool was drained (first bytes % x, want % x)", p, id, got[:8], want[p][:8])
			}
			checked++
		}
	}
	if checked < 4*geo.LinePages {
		t.Fatalf("only %d resident valid pages checked", checked)
	}
	for _, b := range drawn {
		proto.PutBuf(b)
	}
}

// pooledBackend hands out every fetch in a pooled buffer, as core's
// backend does.
type pooledBackend struct{ *fakeBackend }

func pooled(b []byte) []byte { return append(proto.GetBuf(len(b)), b...) }

func (p pooledBackend) FetchLine(line layout.LineID, needs []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	data, at, err := p.fakeBackend.FetchLine(line, needs, at)
	return pooled(data), at, err
}

func (p pooledBackend) FetchLines(lines []layout.LineID, pages []layout.PageID, needs []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	data, at, err := p.fakeBackend.FetchLines(lines, pages, needs, at)
	return pooled(data), at, err
}

func (p pooledBackend) StartPrefetch(line layout.LineID, needs []proto.PageNeed, at vtime.Time, h *Handoff) <-chan PrefetchResult {
	ch := p.fakeBackend.StartPrefetch(line, needs, at, h)
	if ch == nil {
		return nil
	}
	res := <-ch
	res.Data = pooled(res.Data)
	out := make(chan PrefetchResult, 1)
	out <- res
	return out
}

// An evicted line's entry is reused by the next install with every page
// state reset: a line made resident by a lock grant's page has only that
// page valid, however its entry was used before.
func TestRecycledEntryStartsInvalid(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	be.noPrefetch = true
	c, _, _ := newCache(t, geo, be, func(cfg *Config) { cfg.CapacityLines = 1 })
	var word [8]byte
	if err := c.Write(0, word[:], false); err != nil {
		t.Fatal(err)
	}
	old := c.lines[0]
	page := bytes.Repeat([]byte{7}, geo.PageSize)
	p := geo.FirstPage(3) + 1
	if !c.InstallGrantExtents(p, []proto.PagePayload{{Page: uint64(p), Data: page}}, 0) {
		t.Fatal("grant page not installed")
	}
	le := c.lines[3]
	if le != old {
		t.Fatal("the evicted entry was not reused")
	}
	for i, ps := range le.pages {
		if ps.valid != (i == 1) || ps.dirty || ps.twin != nil || len(ps.stale) != 0 || len(ps.wext) != 0 || ps.wtracked {
			t.Fatalf("page %d of the reused entry: %+v", i, ps)
		}
	}
	if le.lastUse == 0 || !bytes.Equal(le.data[geo.PageSize:2*geo.PageSize], page) {
		t.Fatal("the grant page did not land in the reused entry")
	}
}

// A partially stale page that is refetched keeps its stale-range array,
// emptied: the next partial invalidation of the page reuses it.
func TestRefetchKeepsTheStaleArray(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	be.noPrefetch = true
	c, _, _ := newCache(t, geo, be)
	var word [8]byte
	stale := func(interval uint64) *byteRange {
		t.Helper()
		n := []proto.Notice{{Tag: proto.IntervalTag{Writer: 2, Interval: interval}, Pages: []uint64{0, proto.PackSpanExtent(100, 10)}}}
		if err := c.ApplyNotices(n); err != nil {
			t.Fatal(err)
		}
		ps := &c.lines[0].pages[0]
		if !ps.valid || len(ps.stale) != 1 {
			t.Fatalf("page 0 is not partially stale: %+v", ps)
		}
		return &ps.stale[0]
	}
	if err := c.Read(0, word[:]); err != nil {
		t.Fatal(err)
	}
	first := stale(1)
	if err := c.Read(104, word[:]); err != nil { // overlaps the stale range: refetch
		t.Fatal(err)
	}
	if ps := &c.lines[0].pages[0]; !ps.valid || len(ps.stale) != 0 {
		t.Fatalf("page 0 after the refetch: %+v", ps)
	}
	if again := stale(2); again != first {
		t.Fatal("the refetch dropped the page's stale-range array")
	}
}
