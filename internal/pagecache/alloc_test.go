//go:build !race

// Allocation budgets; sync.Pool drops items at random under the race
// detector, so they are not built there.

package pagecache

import (
	"testing"

	"repro/internal/layout"
)

// A demand fault that evicts allocates nothing in the cache once the
// pool is warm: the fetch list is the cache's own array, the evicted
// frame goes back to the pool the next fetch takes it from, and the
// entry is recycled. A prefetch of a line with no needs snapshots none.
func TestFaultAllocatesNothing(t *testing.T) {
	c := benchCache(8)
	next := layout.LineID(0)
	var w [8]byte
	fault := func() {
		if err := c.Read(layout.Addr(int(next)*c.geo.LineSize()), w[:]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range 16 {
		fault()
	}
	if n := testing.AllocsPerRun(100, fault); n != 0 {
		t.Errorf("a fault that evicts allocates %v objects, want 0", n)
	}
	if c.st.Evictions < 100 {
		t.Fatalf("%d evictions: the faults did not evict", c.st.Evictions)
	}
	if n := testing.AllocsPerRun(100, func() { c.needsSnapshot(next) }); n != 0 {
		t.Errorf("snapshotting a line without needs allocates %v objects, want 0", n)
	}
}
