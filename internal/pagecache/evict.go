package pagecache

import (
	"slices"

	"repro/internal/layout"
)

// Eviction order.
//
// Every resident line carries a lastUse stamp, all stamps distinct, and
// the victim is the line with the lowest (evictIfFull), a written line
// before any clean one. Under LRU every touch stamps a line above every
// other. An out-of-core sweep over more lines than the cache holds is
// LRU's worst case: each line leaves before its next use, so every line
// of every sweep misses.
//
// Bimodal insertion (Qureshi et al., "Adaptive Insertion Policies for
// High Performance Caching", ISCA 2007) keeps part of such a sweep
// resident. A newly installed line enters at the LRU end, below every
// other stamp, except every bipEvery-th install, which enters at the MRU
// end. A line moves to the MRU end only when a demand reference reaches
// it after a different line was touched: a burst of accesses to one line
// is one reference.
//
// Neither order wins everywhere, so the cache chooses at run time (set
// dueling). Two tag-only shadow directories of the cache's size, one LRU
// and one bimodal, see the same stream of line references. A saturating
// selector starts at LRU and counts the misses one takes that the other
// does not; the cache turns to bimodal insertion once the LRU shadow has
// missed duelSpan more times than the bimodal one, and back once the
// bimodal shadow has. Nothing of this exists before the cache first
// evicts: a working set that fits keeps today's LRU order at no cost.
const (
	bipEvery = 32
	duelSpan = 16
)

// The stamps: touches count up from stampBase, LRU-end insertions count
// down from it, so every LRU-end line is older than every touched one
// and the newest LRU-end line is the oldest of all.
const stampBase = 1 << 63

// duel is the run-time choice of insertion order (see bipEvery).
type duel struct {
	lru, bip shadow
	// sel is the selector: +1 for each reference only the LRU shadow
	// misses, -1 for each only the bimodal shadow misses, held in
	// [0, duelSpan]. bimodal turns on at duelSpan and off at 0.
	sel     int
	bimodal bool
	// installs counts the real cache's installs since its first eviction.
	installs int
}

// shadow is a tag-only directory in recency order, MRU first.
type shadow struct {
	tags     []layout.LineID
	installs int // misses so far, for the bimodal shadow's every bipEvery-th
}

func newDuel(capacity int) *duel {
	return &duel{
		lru: shadow{tags: make([]layout.LineID, 0, capacity)},
		bip: shadow{tags: make([]layout.LineID, 0, capacity)},
	}
}

// ref feeds both shadows one line reference and moves the selector.
func (d *duel) ref(line layout.LineID) {
	lruMiss := d.lru.ref(line, false)
	bipMiss := d.bip.ref(line, true)
	switch {
	case lruMiss && !bipMiss:
		d.sel = min(d.sel+1, duelSpan)
	case bipMiss && !lruMiss:
		d.sel = max(d.sel-1, 0)
	}
	switch d.sel {
	case duelSpan:
		d.bimodal = true
	case 0:
		d.bimodal = false
	}
}

// ref references line and reports whether it missed. A hit moves line
// to the MRU end; a miss drops the LRU end of a full directory and
// inserts line at the MRU end, or, under bimodal insertion, at the LRU
// end but for every bipEvery-th miss.
func (s *shadow) ref(line layout.LineID, bimodal bool) bool {
	if i := slices.Index(s.tags, line); i >= 0 {
		copy(s.tags[1:i+1], s.tags[:i])
		s.tags[0] = line
		return false
	}
	if len(s.tags) == cap(s.tags) {
		s.tags = s.tags[:len(s.tags)-1]
	}
	if bimodal {
		s.installs++
		if s.installs%bipEvery != 0 {
			s.tags = append(s.tags, line)
			return true
		}
	}
	s.tags = slices.Insert(s.tags, 0, line)
	return true
}

// bimodal reports whether the cache inserts bimodally right now.
func (c *Cache) bimodal() bool { return c.duel != nil && c.duel.bimodal }

// reference notes a demand reference to line and reports whether it
// starts a burst (a different line was referenced last). Once the cache
// has evicted, each burst is one reference for the shadows.
func (c *Cache) reference(line layout.LineID) bool {
	fresh := line != c.lastRef
	c.lastRef = line
	if fresh && c.duel != nil {
		c.duel.ref(line)
	}
	return fresh
}

// promote stamps le most recently used.
func (c *Cache) promote(le *lineEntry) {
	c.useTick++
	le.lastUse = c.useTick
}

// touch stamps le after an install into it or a fetch of its pages:
// most recently used under LRU, unchanged under bimodal insertion, where
// only a fresh demand reference promotes (ensureValidRange).
func (c *Cache) touch(le *lineEntry) {
	if !c.bimodal() {
		c.promote(le)
	}
}

// place stamps a line just made resident: at the MRU end under LRU and
// for every bipEvery-th bimodal install, at the LRU end otherwise.
func (c *Cache) place(le *lineEntry) {
	if d := c.duel; d != nil {
		d.installs++
		if d.bimodal && d.installs%bipEvery != 0 {
			c.coldTick--
			le.lastUse = c.coldTick
			return
		}
	}
	c.promote(le)
}

// evictIfFull makes room for one more line. The victim is the line with
// the lowest stamp, with a bias toward lines holding written pages
// (Section II: "the eviction policy used is biased towards pages that
// have been written to"): dirty data is pushed home early, which both
// frees the twin storage and shortens the diff work left at the next
// release. The first eviction sets up the duel.
func (c *Cache) evictIfFull() {
	if len(c.lines) < c.capacity {
		return
	}
	if c.duel == nil {
		c.duel = newDuel(c.capacity)
	}
	var oldest, oldestDirty *lineEntry
	for _, le := range c.lines {
		if oldest == nil || le.lastUse < oldest.lastUse {
			oldest = le
		}
		if lineDirty(le) && (oldestDirty == nil || le.lastUse < oldestDirty.lastUse) {
			oldestDirty = le
		}
	}
	victim := oldest
	if oldestDirty != nil {
		victim = oldestDirty
	}
	c.evict(victim)
}

func lineDirty(le *lineEntry) bool {
	for i := range le.pages {
		if le.pages[i].dirty {
			return true
		}
	}
	return false
}
