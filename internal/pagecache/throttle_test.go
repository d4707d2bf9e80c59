package pagecache

import (
	"math/rand/v2"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/stats"
)

// throttleGeo keeps the throttle tests' lines small: they fault in
// thousands of them.
var throttleGeo = layout.Geometry{PageSize: 256, LinePages: 2, NumServers: 1, Striped: true}

func newThrottleCache(t *testing.T) (*Cache, *fakeBackend, *stats.Thread) {
	t.Helper()
	be := newFakeBackend(throttleGeo)
	c, _, st := newCache(t, throttleGeo, be, func(cfg *Config) { cfg.CapacityLines = 64 })
	return c, be, st
}

func readLine(t *testing.T, c *Cache, line int) {
	t.Helper()
	mustRead(t, c, layout.Addr(line*throttleGeo.LineSize()))
}

// randomLine draws lines from a range far larger than the cache, so
// every read misses and no prefetched line is ever read.
func randomLine(r *rand.Rand) int { return 1 + r.IntN(1<<24) }

// missIntoBackoff reads random lines, at least min of them, until the
// throttle is in a back-off.
func missIntoBackoff(t *testing.T, c *Cache, r *rand.Rand, min int) {
	t.Helper()
	for i := 0; i < min || c.skip == 0; i++ {
		if i == min+2*maxBackoff {
			t.Fatalf("no back-off after %d random misses", i)
		}
		readLine(t, c, randomLine(r))
	}
}

// A miss stream with no pattern backs off: its first window of
// prefetches goes unused, and from then on it issues at most one
// prefetch per prefetchWindow misses.
func TestThrottleBacksOffOnRandomMisses(t *testing.T) {
	c, be, st := newThrottleCache(t)
	r := rand.New(rand.NewPCG(1, 2))
	for range prefetchWindow + 1 {
		readLine(t, c, randomLine(r))
	}
	if len(be.prefetchCalls) != prefetchWindow || c.skip == 0 {
		t.Fatalf("after the first window: %d prefetches issued, back-off %d, want %d and a back-off",
			len(be.prefetchCalls), c.skip, prefetchWindow)
	}
	const misses = 4096
	for range misses {
		readLine(t, c, randomLine(r))
	}
	issued := len(be.prefetchCalls) - prefetchWindow
	if issued*prefetchWindow > misses {
		t.Fatalf("%d prefetches issued over %d random misses after the first failed window", issued, misses)
	}
	if st.Misses != misses+prefetchWindow+1 || st.PrefetchHits+st.PrefetchLate != 0 {
		t.Fatalf("%d misses, %d prefetches used: the stream was not random", st.Misses, st.PrefetchHits+st.PrefetchLate)
	}
	if c.backoff != maxBackoff {
		t.Fatalf("back-off %d after %d unused probes, want the cap %d", c.backoff, issued/prefetchWindow, maxBackoff)
	}
}

// A sequential stream uses every prefetch, so every miss issues one.
func TestThrottleKeepsSequentialStream(t *testing.T) {
	c, be, st := newThrottleCache(t)
	const n = 1000
	for line := range n {
		readLine(t, c, line)
	}
	if st.Misses != n || st.PrefetchIssued != n || len(be.prefetchCalls) != n {
		t.Fatalf("%d misses issued %d prefetches, want one per miss", st.Misses, st.PrefetchIssued)
	}
	if st.PrefetchHits+st.PrefetchLate != n-1 {
		t.Fatalf("%d of %d prefetches used, want all but the last", st.PrefetchHits+st.PrefetchLate, n)
	}
}

// A stream that turns from random to sequential issues again once the
// back-off running at the turn is over: its probe window passes.
func TestThrottleResumesWhenStreamTurnsSequential(t *testing.T) {
	c, be, _ := newThrottleCache(t)
	r := rand.New(rand.NewPCG(3, 4))
	missIntoBackoff(t, c, r, 300)
	left := c.skip
	issued := len(be.prefetchCalls)
	for line := range left {
		readLine(t, c, line)
	}
	if len(be.prefetchCalls) != issued {
		t.Fatalf("%d prefetches issued inside the back-off", len(be.prefetchCalls)-issued)
	}
	const n = 100
	for line := left; line < left+n; line++ {
		readLine(t, c, line)
		if got := len(be.prefetchCalls) - issued; got != line-left+1 {
			t.Fatalf("sequential miss %d after the back-off: %d prefetches issued, want one per miss", line-left+1, got)
		}
	}
	if c.backoff != minBackoff {
		t.Fatalf("back-off %d after a passing window, want it reset to %d", c.backoff, minBackoff)
	}
}

// A prefetch whose line went stale before the fault that wanted it does
// not count as used: a sequential stream whose every prefetch is
// invalidated in flight backs off after one window.
func TestThrottleCountsStaleAsUnused(t *testing.T) {
	for _, invalidate := range []bool{false, true} {
		c, be, st := newThrottleCache(t)
		for line := range prefetchWindow + 1 {
			readLine(t, c, line)
			if invalidate {
				next := uint64((line + 1) * throttleGeo.LinePages)
				tag := proto.IntervalTag{Writer: 2, Interval: uint64(line + 1)}
				if err := c.ApplyNotices([]proto.Notice{{Seq: uint64(line + 1), Tag: tag, Pages: []uint64{next}}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := prefetchWindow + 1 // one per miss
		if invalidate {
			want = prefetchWindow // the window's stale results stop the next one
			if st.PrefetchWasted != prefetchWindow || st.PrefetchHits+st.PrefetchLate != 0 {
				t.Fatalf("%d stale, %d used, want %d stale", st.PrefetchWasted, st.PrefetchHits+st.PrefetchLate, prefetchWindow)
			}
		}
		if len(be.prefetchCalls) != want {
			t.Fatalf("invalidated in flight %v: %d prefetches issued over %d misses, want %d",
				invalidate, len(be.prefetchCalls), st.Misses, want)
		}
	}
}

// The throttle is the cache's, not the stats record's: resetting the
// record (ResetMeasurement) leaves a running back-off in force.
func TestThrottleSurvivesResetMeasurement(t *testing.T) {
	c, _, st := newThrottleCache(t)
	r := rand.New(rand.NewPCG(5, 6))
	missIntoBackoff(t, c, r, 0)
	left, backoff := c.skip, c.backoff
	*st = stats.Thread{ID: st.ID}
	c.UncountPrefetches()
	if c.skip != left || c.backoff != backoff {
		t.Fatalf("reset moved the throttle: back-off %d/%d, was %d/%d", c.skip, c.backoff, left, backoff)
	}
	for range left {
		readLine(t, c, randomLine(r))
	}
	if st.PrefetchIssued != 0 {
		t.Fatalf("%d prefetches issued inside the back-off that ran across the reset", st.PrefetchIssued)
	}
	readLine(t, c, randomLine(r))
	if st.PrefetchIssued != 1 {
		t.Fatalf("%d prefetches issued when the back-off ended, want the probe's first", st.PrefetchIssued)
	}
}
