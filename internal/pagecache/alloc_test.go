//go:build !race

// Allocation budgets; sync.Pool drops items at random under the race
// detector, so they are not built there.

package pagecache

import (
	"testing"

	"repro/internal/layout"
)

// A demand fault that evicts allocates nothing in the cache once the
// pool is warm, whatever its grain: the fetch lists are the cache's own
// scratch, the evicted frame goes back to the pool the next fetch takes
// it from, and the entry is recycled. Whole lines are filled while the
// reads touch every page of their lines; one-word reads turn the cache
// to page fills, and a second word on another page of the line is a
// sector fill. A prefetch of a line with no needs snapshots none.
func TestFaultAllocatesNothing(t *testing.T) {
	c := benchCache(8)
	next := layout.LineID(0)
	var w [8]byte
	read := func(line layout.LineID, page int) {
		if err := c.Read(layout.Addr(int(line)*c.geo.LineSize()+page*c.geo.PageSize), w[:]); err != nil {
			t.Fatal(err)
		}
	}
	grains := []struct {
		name  string
		pages int // pages of each line read
		fills *int64
	}{
		{"whole-line", c.geo.LinePages, &c.st.Misses},
		{"page", 1, &c.st.PageFills},
		{"page and sector", 2, &c.st.SectorFills},
	}
	for _, g := range grains {
		fault := func() {
			for p := range g.pages {
				read(next, p)
			}
			next++
		}
		for range 4 * fillWindow {
			fault()
		}
		before, evictions := *g.fills, c.st.Evictions
		if n := testing.AllocsPerRun(100, fault); n != 0 {
			t.Errorf("%s: a fault that evicts allocates %v objects, want 0", g.name, n)
		}
		if *g.fills-before < 100 || c.st.Evictions-evictions < 100 {
			t.Fatalf("%s: %d fills, %d evictions in 101 faults", g.name, *g.fills-before, c.st.Evictions-evictions)
		}
		if g.pages == c.geo.LinePages && c.st.PageFills != 0 {
			t.Fatalf("%s: %d page fills", g.name, c.st.PageFills)
		}
	}
	if c.st.PageFills == 0 || c.st.SectorFills == 0 {
		t.Fatalf("%d page fills, %d sector fills", c.st.PageFills, c.st.SectorFills)
	}
	if n := testing.AllocsPerRun(100, func() { c.needsSnapshot(next) }); n != 0 {
		t.Errorf("snapshotting a line without needs allocates %v objects, want 0", n)
	}
}
