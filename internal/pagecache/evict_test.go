package pagecache

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/layout"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// evictGeo keeps the eviction tests' lines small: two 256-byte pages.
var evictGeo = layout.Geometry{PageSize: 256, LinePages: 2, NumServers: 1, Striped: true}

// evictCache is a cache of capacity lines that does not prefetch: the
// eviction tests look at which lines stay resident.
func evictCache(capacity int) (*Cache, *fakeBackend, *stats.Thread) {
	be := newFakeBackend(evictGeo)
	be.noPrefetch = true
	st := &stats.Thread{}
	c := New(Config{Geo: evictGeo, CPU: vtime.DefaultCPU, Writer: 1, CapacityLines: capacity}, be, vtime.NewClock(0), st)
	return c, be, st
}

// burst reads every word of line's first page: one reference, many
// accesses.
func burst(t *testing.T, c *Cache, line layout.LineID) {
	t.Helper()
	var w [8]byte
	base := layout.Addr(int(line) * evictGeo.LineSize())
	for off := 0; off < evictGeo.PageSize; off += len(w) {
		if err := c.Read(base+layout.Addr(off), w[:]); err != nil {
			t.Fatal(err)
		}
	}
}

// sweepPass bursts through lines [0, n) in order and reports how many
// were resident when the pass reached them.
func sweepPass(t *testing.T, c *Cache, st *stats.Thread, n int) (hits int) {
	t.Helper()
	for l := range n {
		before := st.Misses
		burst(t, c, layout.LineID(l))
		if st.Misses == before {
			hits++
		}
	}
	return hits
}

// toBimodal sweeps lines [0, 2*capacity) until the cache inserts
// bimodally.
func toBimodal(t *testing.T, c *Cache, st *stats.Thread) {
	t.Helper()
	for pass := 0; !c.bimodal(); pass++ {
		if pass == 4*duelSpan {
			t.Fatalf("capacity %d: still LRU after %d passes of a cyclic sweep", c.capacity, pass)
		}
		sweepPass(t, c, st, 2*c.capacity)
	}
}

func resident(c *Cache) []layout.LineID {
	var out []layout.LineID
	for l := range c.lines {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}

// A cyclic sweep over twice the cache misses every line of every pass
// under LRU. Once the selector has turned to bimodal insertion, all but
// one of the cache's lines stay resident from pass to pass. A pass in
// which a bipEvery-th install entered at the MRU end may lose one of
// them before the pass reaches it; the new line hits from the next pass.
func TestCyclicSweepKeepsPartResident(t *testing.T) {
	for _, capacity := range []int{2, 4, 8, 16} {
		c, _, st := evictCache(capacity)
		if hits := sweepPass(t, c, st, 2*capacity); hits != 0 {
			t.Fatalf("capacity %d: %d hits on the first pass", capacity, hits)
		}
		toBimodal(t, c, st)
		for pass := range 2 * bipEvery {
			before := c.duel.installs / bipEvery
			hits := sweepPass(t, c, st, 2*capacity)
			if want := capacity - 1 - (c.duel.installs/bipEvery - before); hits < want {
				t.Fatalf("capacity %d, pass %d after the switch: %d lines hit, want at least %d",
					capacity, pass, hits, want)
			}
		}
	}
}

// lruMisses is the miss count of a plain LRU cache of capacity lines on
// trace.
func lruMisses(trace []layout.LineID, capacity int) int {
	var order []layout.LineID // least recently used first
	misses := 0
	for _, l := range trace {
		if i := slices.Index(order, l); i >= 0 {
			order = slices.Delete(order, i, i+1)
		} else {
			misses++
			if len(order) == capacity {
				order = order[1:]
			}
		}
		order = append(order, l)
	}
	return misses
}

// Access patterns LRU already serves with nothing but cold misses take
// exactly LRU's misses: bimodal insertion would drop each stream's line
// before its next word, and the selector must not turn to it.
func TestStreamsTakeLRUMisses(t *testing.T) {
	words := evictGeo.PageSize / 8
	interleaved := func(streams int) []layout.LineID {
		var trace []layout.LineID
		for i := range 40 {
			for range words {
				for s := range streams {
					trace = append(trace, layout.LineID(1000*s+i))
				}
			}
		}
		return trace
	}
	// A three-row stencil over rows of two lines: each output word reads
	// the rows above, at and below it.
	var stencil []layout.LineID
	for row := 1; row < 30; row++ {
		for l := range 2 {
			for range words {
				for _, r := range []int{row - 1, row, row + 1} {
					stencil = append(stencil, layout.LineID(2*r+l))
				}
			}
		}
	}
	for _, tc := range []struct {
		name     string
		capacity int
		trace    []layout.LineID
	}{
		{"two streams", 4, interleaved(2)},
		{"three streams", 4, interleaved(3)},
		{"three streams, roomy", 16, interleaved(3)},
		{"stencil", 8, stencil},
	} {
		c, _, st := evictCache(tc.capacity)
		var w [8]byte
		for i, l := range tc.trace {
			off := layout.Addr(i % words * 8)
			if err := c.Read(layout.Addr(int(l)*evictGeo.LineSize())+off, w[:]); err != nil {
				t.Fatal(err)
			}
		}
		if st.Evictions == 0 {
			t.Fatalf("%s: nothing evicted; the case tests no policy", tc.name)
		}
		if want := lruMisses(tc.trace, tc.capacity); st.Misses != int64(want) {
			t.Errorf("%s: %d misses, LRU takes %d", tc.name, st.Misses, want)
		}
	}
}

// A working set that fits never evicts, so it never pays for the duel.
func TestFittingWorkingSetAllocatesNoShadow(t *testing.T) {
	c, _, st := evictCache(8)
	for round := range 20 {
		for l := range 8 {
			burst(t, c, layout.LineID(l))
			if round%3 == 0 {
				if err := c.Write(layout.Addr(l*evictGeo.LineSize()), []byte{byte(round)}, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.CollectRelease()
	}
	if st.Evictions != 0 || c.duel != nil {
		t.Fatalf("evictions %d, duel %v: a fitting working set evicted or set up shadows", st.Evictions, c.duel)
	}
}

// Under bimodal insertion a written line still goes first: the victim is
// the written line used longest ago, not the line at the LRU end.
func TestBimodalVictimIsOldestDirtyLine(t *testing.T) {
	c, be, st := evictCache(4)
	toBimodal(t, c, st)
	kept := resident(c)
	older, newer := kept[0], kept[1]
	for _, l := range []layout.LineID{older, newer} {
		if err := c.Write(layout.Addr(int(l)*evictGeo.LineSize()), []byte{1}, false); err != nil {
			t.Fatal(err)
		}
	}
	fresh := layout.LineID(100)
	for i, want := range []layout.LineID{older, newer} {
		burst(t, c, fresh+layout.LineID(i))
		if _, ok := c.lines[want]; ok {
			t.Fatalf("install %d: written line %d still resident (resident %v)", i, want, resident(c))
		}
		if got := evictGeo.LineOf(layout.PageID(be.flushedDiffs[len(be.flushedDiffs)-1].Page)); got != want {
			t.Fatalf("install %d: flushed line %d, want %d", i, got, want)
		}
	}
	if st.DirtyEvicts != 2 {
		t.Fatalf("%d dirty evictions, want 2", st.DirtyEvicts)
	}
}

// The victim does not depend on map order: two caches fed one trace,
// through both insertion orders, hold the same lines after every access.
func TestSameTraceSameVictims(t *testing.T) {
	const capacity = 4
	var trace []layout.LineID
	for range 12 { // a sweep the selector turns to bimodal insertion on
		for l := range 2 * capacity {
			trace = append(trace, layout.LineID(l))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 400 { // two streams it turns back on, then random lines
		trace = append(trace, layout.LineID(20+rng.Intn(3)), layout.LineID(40+rng.Intn(3)))
	}
	for range 400 {
		trace = append(trace, layout.LineID(rng.Intn(3*capacity)))
	}
	a, _, _ := evictCache(capacity)
	b, _, _ := evictCache(capacity)
	switches, was := 0, false
	for i, l := range trace {
		for _, c := range []*Cache{a, b} {
			burst(t, c, l)
			if i%7 == 0 {
				if err := c.Write(layout.Addr(int(l)*evictGeo.LineSize()), []byte{1}, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		if a.bimodal() != was {
			switches, was = switches+1, a.bimodal()
		}
		if ra, rb := resident(a), resident(b); !slices.Equal(ra, rb) {
			t.Fatalf("access %d (line %d): resident %v and %v", i, l, ra, rb)
		}
	}
	if switches < 2 {
		t.Fatalf("the insertion order switched %d times, want both ways", switches)
	}
}

// Under bimodal insertion the prefetch after a miss steps past the lines
// the cache kept to the first one that would miss; under LRU it stops at
// the first resident line, as one-line-ahead paging always has.
func TestPrefetchStepsPastKeptLines(t *testing.T) {
	for _, bimodal := range []bool{false, true} {
		geo := layout.DefaultGeometry()
		be := newFakeBackend(geo)
		c, _, _ := newCache(t, geo, be, func(cfg *Config) { cfg.CapacityLines = 8 })
		if bimodal {
			c.duel = newDuel(c.capacity)
			c.duel.sel, c.duel.bimodal = duelSpan, true
		}
		var w [8]byte
		be.noPrefetch = true
		for _, l := range []int{1, 2, 3} {
			if err := c.Read(layout.Addr(l*geo.LineSize()), w[:]); err != nil {
				t.Fatal(err)
			}
		}
		be.noPrefetch = false
		if err := c.Read(0, w[:]); err != nil {
			t.Fatal(err)
		}
		want := []layout.LineID(nil)
		if bimodal {
			want = []layout.LineID{4}
		}
		if !slices.Equal(be.prefetchCalls, want) {
			t.Errorf("bimodal %v: prefetched %v, want %v", bimodal, be.prefetchCalls, want)
		}
	}
}
