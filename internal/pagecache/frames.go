package pagecache

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// Sealed frames (DESIGN.md §16). A fork's home serves each page of the
// fork from its snapshot's sealed frame until a write makes the page a
// private copy, and a sealed frame never changes. So the cache keeps a
// copy of every frame it reads, and a miss on a fork page that it has
// not held since the fork and that has no needs is served from that
// copy: under RegC a read of a page for which the thread holds no write
// notice may return any value no synchronisation ordered after it, and
// the sealed value is always one.

// FrameReader is a Backend that can read sealed frames; the cache fills
// pages from frames only when its backend is one.
type FrameReader interface {
	// FetchFrames reads, in one request to their home, the sealed frames
	// the given fork pages map, whatever private copy the home holds of
	// them, in page order. The bytes are the cache's (see Backend). An
	// empty reply means the home refused: a page maps no frame there.
	FetchFrames(pages []layout.PageID, at vtime.Time) ([]byte, vtime.Time, error)
}

// forkImage is one fork the thread made: pages [first, first+n) are the
// images of pages 0..n-1 of sealed snapshot snap. held marks the pages
// the cache has held valid since the fork; eviction leaves it alone.
type forkImage struct {
	first layout.PageID
	n     uint64
	snap  uint64
	held  []uint64
}

func cmpFork(f forkImage, p layout.PageID) int { return cmp.Compare(f.first, p) }

// AddFork tells the cache that pages [first, first+npages) were just
// mapped onto the pages of sealed snapshot snap by a fork the thread
// made. A fork it knew over any of those pages is forgotten: its range
// was freed.
func (c *Cache) AddFork(first layout.PageID, npages, snap uint64) {
	for i := 0; i < len(c.forks); i++ {
		if f := c.forks[i]; f.first < first+layout.PageID(npages) && first < f.first+layout.PageID(f.n) {
			c.dropFork(i)
			i--
		}
	}
	i, _ := slices.BinarySearchFunc(c.forks, first, cmpFork)
	c.forks = slices.Insert(c.forks, i, forkImage{first, npages, snap, make([]uint64, (npages+63)/64)})
	if c.frames[snap] == nil {
		c.frames[snap] = make([][]byte, npages)
	}
}

// ForgetFork forgets the fork whose range starts at first: it is being
// freed.
func (c *Cache) ForgetFork(first layout.PageID) {
	if i, ok := slices.BinarySearchFunc(c.forks, first, cmpFork); ok {
		c.dropFork(i)
	}
}

// dropFork forgets fork i, and its snapshot's frames with the last fork
// of it.
func (c *Cache) dropFork(i int) {
	snap := c.forks[i].snap
	c.forks = slices.Delete(c.forks, i, i+1)
	if !slices.ContainsFunc(c.forks, func(f forkImage) bool { return f.snap == snap }) {
		delete(c.frames, snap)
	}
}

// forkOf is the fork page p belongs to, or nil.
func (c *Cache) forkOf(p layout.PageID) *forkImage {
	i, ok := slices.BinarySearchFunc(c.forks, p, cmpFork)
	if !ok {
		if i == 0 {
			return nil
		}
		i--
	}
	if f := &c.forks[i]; uint64(p-f.first) < f.n {
		return f
	}
	return nil
}

// hold marks page i of le held valid, on the line and on the fork the
// page belongs to.
func (c *Cache) hold(le *lineEntry, i int) {
	le.held |= 1 << i
	p := c.geo.FirstPage(le.id) + layout.PageID(i)
	if f := c.forkOf(p); f != nil {
		f.held[(p-f.first)/64] |= 1 << ((p - f.first) % 64)
	}
}

// frameFill serves a miss on line, which the cache does not hold, from
// sealed frames, when every page the fill would fetch (the pages p
// through last of it for a page fill, else the whole line) is a page of
// one fork that the cache has not held since the fork and that has no
// needs. The frames the cache lacks come in one frame read and are kept;
// a refused read leaves the miss to an ordinary fetch. It reports
// whether it served the miss.
func (c *Cache) frameFill(line layout.LineID, p, last layout.PageID) (bool, error) {
	if len(c.forks) == 0 || c.fr == nil {
		return false, nil
	}
	if _, resident := c.lines[line]; resident {
		return false, nil
	}
	lo, hi := c.geo.FirstPage(line), c.geo.FirstPage(line)+layout.PageID(c.geo.LinePages-1)
	pageFill := c.sparse()
	if pageFill {
		lo, hi = p, min(last, hi)
	}
	f := c.forkOf(lo)
	if f == nil || uint64(hi-f.first) >= f.n {
		return false, nil
	}
	frames := c.frames[f.snap][lo-f.first : hi-f.first+1]
	missing := c.pageList[:0]
	for q := lo; q <= hi; q++ {
		if k := q - f.first; f.held[k/64]>>(k%64)&1 != 0 || len(c.pageNeeds[q].tags) > 0 {
			return false, nil
		}
		if frames[q-lo] == nil {
			missing = append(missing, q)
		}
	}
	c.pageList = missing
	if len(missing) > 0 {
		c.filling = "frame"
		data, readyAt, err := c.fr.FetchFrames(missing, c.clock.Now())
		if err != nil {
			return false, err
		}
		c.clock.AdvanceTo(readyAt)
		if len(data) == 0 {
			return false, nil
		}
		if len(data) != c.geo.PageSize*len(missing) {
			return false, fmt.Errorf("pagecache: frame read for line %d returned %d bytes, want %d", line, len(data), c.geo.PageSize*len(missing))
		}
		c.st.BytesReceived += int64(len(data))
		for i, q := range missing {
			frames[q-lo] = slices.Clone(data[i*c.geo.PageSize : (i+1)*c.geo.PageSize])
		}
		proto.PutBuf(data)
	}
	c.st.FrameFills += int64(len(frames) - len(missing))
	if pageFill {
		c.pageFillEntry(line)
		for q := lo; q <= hi; q++ {
			c.installPage(q, frames[q-lo])
		}
		return true, nil
	}
	frame := c.newFrame()
	for i, b := range frames {
		copy(frame[i*c.geo.PageSize:], b)
	}
	c.install(line, frame)
	return true, nil
}
