package pagecache

import (
	"math/rand"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// Per-layer host-clock benchmarks of the data plane (ROADMAP item 4).
// Fixed parameters, seeded data, a zero-latency backend: what they
// report is the Go code's own time and allocations per operation.

const (
	benchSeed      = 1
	benchPageSize  = 4096
	benchFaultCap  = 64 // resident lines in BenchmarkFaultInstall: every fault past these evicts
	benchSparseRun = 64 // bytes per run of the sparse page
	benchSparseN   = 6  // runs of the sparse page
)

// benchSparsePage is a page with a handful of dirty runs — a typical
// falsely-shared release.
func benchSparsePage() (cur, twin []byte) {
	rng := rand.New(rand.NewSource(benchSeed))
	twin = make([]byte, benchPageSize)
	rng.Read(twin)
	cur = append([]byte(nil), twin...)
	for i := 0; i < benchSparseN; i++ {
		lo := rng.Intn(benchPageSize - benchSparseRun)
		rng.Read(cur[lo : lo+benchSparseRun])
	}
	return cur, twin
}

// benchFloatPages returns two images of a page of float64 values in
// which every value differs but the top byte of each does not (a
// rewritten grid row keeps its exponents): 512 seven-byte runs, the
// worst case for a run list.
func benchFloatPages() (a, b []byte) {
	rng := rand.New(rand.NewSource(benchSeed))
	a = make([]byte, benchPageSize)
	rng.Read(a)
	b = make([]byte, benchPageSize)
	for i := range b {
		if i%8 == 7 {
			b[i] = a[i]
		} else {
			b[i] = ^a[i]
		}
	}
	return a, b
}

var benchSink int

func benchDiffPage(b *testing.B, fn func(uint64, []byte, []byte) proto.PageDiff, cur, twin []byte, wantRuns int) {
	b.ReportAllocs()
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := fn(0, cur, twin)
		if len(d.Runs) != wantRuns {
			b.Fatalf("%d runs, want %d", len(d.Runs), wantRuns)
		}
		benchSink += len(d.Runs)
	}
}

func sparseRuns() int {
	cur, twin := benchSparsePage()
	return len(diffPageGeneric(0, cur, twin).Runs)
}

func BenchmarkDiffPageWord(b *testing.B) {
	cur, twin := benchSparsePage()
	benchDiffPage(b, diffPage, cur, twin, sparseRuns())
}

func BenchmarkDiffPageGeneric(b *testing.B) {
	cur, twin := benchSparsePage()
	benchDiffPage(b, diffPageGeneric, cur, twin, sparseRuns())
}

func BenchmarkDiffPageWordDense(b *testing.B) {
	cur, twin := benchFloatPages()
	benchDiffPage(b, diffPage, cur, twin, benchPageSize/8)
}

func BenchmarkDiffPageGenericDense(b *testing.B) {
	cur, twin := benchFloatPages()
	benchDiffPage(b, diffPageGeneric, cur, twin, benchPageSize/8)
}

// freshBackend serves zero-filled lines instantly, each in a pooled
// buffer of its own as core's backend does (the Backend ownership rule),
// and swallows flushes.
type freshBackend struct{ geo layout.Geometry }

func zeroFrame(n int) []byte {
	b := proto.GetBuf(n)[:n]
	clear(b)
	return b
}

func (b freshBackend) FetchLine(_ layout.LineID, _ []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	return zeroFrame(b.geo.LineSize()), at, nil
}

func (b freshBackend) FetchLines(lines []layout.LineID, pages []layout.PageID, _ []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	return zeroFrame(len(lines)*b.geo.LineSize() + len(pages)*b.geo.PageSize), at, nil
}

func (freshBackend) StartPrefetch(layout.LineID, []proto.PageNeed, vtime.Time, *Handoff) <-chan PrefetchResult {
	return nil
}

func (freshBackend) FlushEvict(_ []proto.PageDiff, at vtime.Time) (vtime.Time, error) { return at, nil }
func (freshBackend) FlushSync(_ []proto.PageDiff, at vtime.Time) (vtime.Time, error)  { return at, nil }

func benchCache(capLines int) *Cache {
	geo := layout.DefaultGeometry()
	return New(Config{Geo: geo, CPU: vtime.DefaultCPU, CapacityLines: capLines, Writer: 1},
		freshBackend{geo}, vtime.NewClock(0), &stats.Thread{})
}

// benchRelease rewrites page 0 with alternating float64 images and
// closes the interval each time.
func benchRelease(b *testing.B, c *Cache) {
	x, y := benchFloatPages()
	imgs := [2][]byte{x, y}
	for i := 0; i < 2; i++ { // steady state: line resident, overlay (if any) built
		if err := c.WriteSpan(0, imgs[i], false); err != nil {
			b.Fatal(err)
		}
		c.CollectRelease()
	}
	b.ReportAllocs()
	b.SetBytes(benchPageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteSpan(0, imgs[i&1], false); err != nil {
			b.Fatal(err)
		}
		rs := c.CollectRelease()
		benchSink += len(rs.Pages)
	}
}

// BenchmarkReleaseOwned is the jacobi path: an unshared page whose diff
// is retained locally under an ownership claim.
func BenchmarkReleaseOwned(b *testing.B) {
	benchRelease(b, benchCache(0))
}

// BenchmarkReleaseShared is the same page once another writer has
// touched it: every release ships an eager diff.
func BenchmarkReleaseShared(b *testing.B) {
	c := benchCache(0)
	foreign := []proto.Notice{{Tag: proto.IntervalTag{Writer: 2, Interval: 1}, Pages: []uint64{0}}}
	if err := c.ApplyNotices(foreign); err != nil {
		b.Fatal(err)
	}
	benchRelease(b, c)
}

// BenchmarkFaultInstall is a demand fault of a line the cache does not
// hold, with the cache full: fetch, evict a clean line, install.
func BenchmarkFaultInstall(b *testing.B) {
	c := benchCache(benchFaultCap)
	lineSize := c.geo.LineSize()
	var buf [8]byte
	for l := 0; l < benchFaultCap; l++ {
		if err := c.Read(layout.Addr(l*lineSize), buf[:]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(lineSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Read(layout.Addr((benchFaultCap+i)*lineSize), buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

const (
	benchNoticeWriters = 15 // a 16-thread barrier reply: everyone else's release
	benchNoticePages   = 4  // pages each release names, two extents apiece
)

// benchNotices is a barrier reply as jacobi sees one: every other
// writer's release, each naming a few pages of this thread's resident
// halo with the byte extents its spans wrote. Interval numbers are
// stamped by the caller, one release round per apply.
func benchNotices() []proto.Notice {
	ns := make([]proto.Notice, benchNoticeWriters)
	for w := range ns {
		ns[w].Tag.Writer = uint32(w + 2)
		for p := 0; p < benchNoticePages; p++ {
			ns[w].Pages = append(ns[w].Pages, uint64(w*benchNoticePages+p),
				proto.PackSpanExtent(64*w, 32), proto.PackSpanExtent(2048+64*w, 32))
		}
	}
	return ns
}

// applyRound delivers one release round and then revalidates the named
// pages' needs the way the refetch that follows an acquire does, so the
// next round starts from the state jacobi's next iteration starts from.
// The stale-range lists are left standing (a refetch would drop them,
// and the next round would allocate them again: that list is not what
// ApplyNotices' scratch and the tag recycling are about).
func applyRound(tb testing.TB, c *Cache, ns []proto.Notice, round uint64) {
	for i := range ns {
		ns[i].Tag.Interval = round
	}
	if err := c.ApplyNotices(ns); err != nil {
		tb.Fatal(err)
	}
	for p := 0; p < benchNoticeWriters*benchNoticePages; p++ {
		c.clearNeeds(layout.PageID(p))
	}
}

// residentCache holds every page benchNotices names, valid.
func residentCache(tb testing.TB) *Cache {
	c := benchCache(0)
	var buf [8]byte
	for p := 0; p < benchNoticeWriters*benchNoticePages; p++ {
		if err := c.Read(layout.Addr(p*benchPageSize), buf[:]); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// BenchmarkApplyNotices is the acquire side of a jacobi barrier: 15
// notices, 60 resident pages going partially stale, 120 extents.
func BenchmarkApplyNotices(b *testing.B) {
	c, ns := residentCache(b), benchNotices()
	applyRound(b, c, ns, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyRound(b, c, ns, uint64(i+2))
	}
	benchSink += int(c.st.PartialInvals)
}

// A notice naming a resident page by its extents allocates nothing once
// the cache is warm: the extent list is the cache's scratch and the
// page's tag list is one a revalidated page gave back.
func TestApplyNoticesAllocs(t *testing.T) {
	c, ns := residentCache(t), benchNotices()
	round := uint64(1)
	applyRound(t, c, ns, round)
	before := c.st.PartialInvals
	allocs := testing.AllocsPerRun(50, func() {
		round++
		applyRound(t, c, ns, round)
	})
	if got, want := c.st.PartialInvals-before, int64(51*benchNoticeWriters*benchNoticePages); got != want {
		t.Fatalf("%d partial invalidations, want %d: the pages are not resident and valid", got, want)
	}
	if allocs != 0 {
		t.Fatalf("a release round over resident pages allocates %v objects, want 0", allocs)
	}
}
