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

// freshBackend serves zero-filled lines instantly, each in a buffer of
// its own (the Backend ownership rule), and swallows flushes.
type freshBackend struct{ geo layout.Geometry }

func (b freshBackend) FetchLine(_ layout.LineID, _ []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	return make([]byte, b.geo.LineSize()), at, nil
}

func (b freshBackend) FetchLines(lines []layout.LineID, pages []layout.PageID, _ []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	return make([]byte, len(lines)*b.geo.LineSize()+len(pages)*b.geo.PageSize), at, nil
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
