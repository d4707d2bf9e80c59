package pagecache

import (
	"math/bits"

	"repro/internal/layout"
)

// Fill granularity.
//
// A demand miss on a line the cache does not hold fetches the whole
// multi-page line (Section II): a thread that walks its data pays one
// round trip for LinePages pages. A thread that reads one word of each
// line it pulls pays for LinePages pages and uses one. So the cache
// chooses the grain of each such fill at run time, from how much of its
// recent fills the thread went on to touch.
//
// Every resident line keeps a mask of the pages demand accesses touched.
// Each fill of a line the cache did not hold is observed once, when the
// line leaves the cache or fillWindow fills later, whichever comes first:
// the observation is the number of pages touched by then. The pending
// fills are keyed by their fill number, not the line, so an entry that
// left and was refilled is never read twice. While the last fillWindow
// observations average at most half a line, a miss on a line the cache
// does not hold installs it with every page invalid and fetches only the
// pages the access covers (a page fill). A later access to one of the
// other pages is a miss on a resident line, which fetches every invalid
// page of it in one request (a sector fill). A dense pattern pays that
// one extra round trip per line until its observations move the window
// back to whole lines. A one-page line never engages.
//
// A miss on a line the cache holds (a coherence miss: notices left some
// of its pages invalid) chooses its grain from the same mask. It fetches
// the invalid pages the access covers and those demand accesses touched
// since the line became resident, and leaves invalid, with their needs,
// the pages the line held valid in that time that no access touched:
// the thread did not use them before, so it is not refetching them for
// itself (unusedPages). The first access that touches one fetches it. A
// page the line never held, such as the rest of a line a lock grant's
// extents made resident, is fetched, and so is every page of a sector
// fill.
const fillWindow = 8

// grainWindow is the fill-granularity state (see fillWindow).
type grainWindow struct {
	fills uint64 // fills of absent lines so far
	// pend holds the last fillWindow fills, by fill number modulo
	// fillWindow: the entry and the number it was filled under.
	pend [fillWindow]pendingFill
	// obs are the last fillWindow observations, by observation number
	// modulo fillWindow; sum is their sum and n how many were made.
	obs [fillWindow]int
	sum int
	n   int
}

// pendingFill is a fill not observed yet.
type pendingFill struct {
	le   *lineEntry
	fill uint64
}

// Filling names the grain of the demand fetch the cache is making, for
// a backend to name its fetch by: "line" (whole lines), "page" (the
// pages an access covers, of a line the cache did not hold), "sector"
// (the pages a page fill left), "pages" (invalidated pages of lines
// the cache holds) or "frame" (sealed frames of fork pages, frames.go).
func (c *Cache) Filling() string { return c.filling }

// Skipped is how many invalid pages of the faulting line the demand
// fetch in progress leaves for a later touch (see unusedPages).
func (c *Cache) Skipped() int { return c.skipped }

// unusedPages is the mask of resident line le's pages that a fault for
// an access to pages p through last leaves invalid: the pages the line
// has held since it became resident that no demand access touched, less
// those the access covers.
func (c *Cache) unusedPages(le *lineEntry, p, last layout.PageID) uint64 {
	first := c.geo.FirstPage(le.id)
	last = min(last, first+layout.PageID(c.geo.LinePages-1))
	covered := (uint64(2)<<(last-first) - 1) &^ (uint64(1)<<(p-first) - 1)
	return le.held &^ le.touched &^ covered
}

// sparse reports whether a miss on a line the cache does not hold fills
// only the pages the access covers: the window is full and averages at
// most half a line. The touch mask holds 64 pages.
func (c *Cache) sparse() bool {
	g := &c.grain
	return c.geo.LinePages > 1 && c.geo.LinePages <= 64 &&
		g.n >= fillWindow && g.sum <= fillWindow*(c.geo.LinePages/2)
}

// noteFill registers the fill that just made le resident, observing the
// fill fillWindow fills back if it has not left the cache since.
func (c *Cache) noteFill(le *lineEntry) {
	g := &c.grain
	g.fills++
	slot := &g.pend[g.fills%fillWindow]
	if slot.le != nil && slot.le.fill == slot.fill {
		c.observe(slot.le)
	}
	le.fill = g.fills
	*slot = pendingFill{le, g.fills}
}

// observe adds le's touched pages to the window, once per fill.
func (c *Cache) observe(le *lineEntry) {
	if le.fill == 0 {
		return
	}
	le.fill = 0
	g := &c.grain
	i := g.n % fillWindow
	n := bits.OnesCount64(le.touched)
	g.sum += n - g.obs[i]
	g.obs[i] = n
	g.n++
}

// pageFillEntry makes line resident for a page fill, every page invalid
// until the fetched ones are installed into it.
func (c *Cache) pageFillEntry(line layout.LineID) {
	c.evictIfFull()
	le := c.newEntry(line, c.newFrame())
	c.noteFill(le)
	le.partial = true
	c.place(le)
	c.st.PageFills++
}

// coveredPages appends the pages of line from p through last, the pages
// an access starting at p covers.
func (c *Cache) coveredPages(out []layout.PageID, line layout.LineID, p, last layout.PageID) []layout.PageID {
	last = min(last, c.geo.FirstPage(line)+layout.PageID(c.geo.LinePages-1))
	for ; p <= last; p++ {
		out = append(out, p)
	}
	return out
}

// UncountFills is called when the thread's stats record is reset: a
// page fill the old record counted leaves no sector fill to the new one,
// so the new record's sector fills never outnumber its page fills
// (stats.Thread.CheckFills).
func (c *Cache) UncountFills() {
	for _, le := range c.lines {
		le.partial = false
	}
}
