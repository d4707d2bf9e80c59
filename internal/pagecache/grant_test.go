package pagecache

import (
	"bytes"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
)

// A page shipped with a lock grant replaces the thread's invalid copy
// and clears its needs, so InstallGrantPage must refuse it while the
// thread knows of a write the releaser's copy, vouched for up to the
// grant's horizon, may lack: a need above the horizon, or a write of the
// thread's own whose notice has not come back at or below it. Every
// other copy installs.
func TestInstallGrantPageRefusesWhatTheHorizonMissed(t *testing.T) {
	geo := layout.DefaultGeometry()
	shipped := bytes.Repeat([]byte{7}, geo.PageSize)
	var word [8]byte
	word[0] = 42
	const p = layout.PageID(0)

	// Each case leaves page p invalid and returns the horizons at which
	// the grant must be refused and then the one at which it installs.
	cases := []struct {
		name  string
		lines int
		setup func(t *testing.T, c *Cache) (refuse []uint64, install uint64)
	}{
		{"own write lost to an invalidation", 0, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustWrite(t, c, 0, word[:], false)
			notify(t, c, 2, 2, p) // flushes the dirty page home
			refuseAll(t, c, p, shipped, 5, 1<<40)
			c.CollectRelease()
			refuseAll(t, c, p, shipped, 5)
			notify(t, c, 1, 6, p) // own notice back above 5
			return []uint64{5}, 6
		}},
		{"own write lost to an eviction", 1, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustWrite(t, c, 0, word[:], false)
			mustRead(t, c, layout.Addr(geo.LineSize())) // evicts line 0, flushing it
			refuseAll(t, c, p, shipped, 5)
			c.CollectRelease()
			notify(t, c, 1, 3, p)
			return []uint64{2}, 3
		}},
		{"own record lost to an eviction", 1, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustWrite(t, c, 0, word[:], true)
			mustRead(t, c, layout.Addr(geo.LineSize()))
			refuseAll(t, c, p, shipped, 5)
			rs := c.CollectRelease()
			if err := c.ApplyNotices([]proto.Notice{{Seq: 4, Tag: rs.Tag, Records: rs.Records}}); err != nil {
				t.Fatal(err)
			}
			return []uint64{3}, 4
		}},
		// A notice can come back with its record left out, because a later
		// notice of the same list repeats the record (last record wins). It
		// still vouches for the record's page.
		{"own record left out of its notice", 0, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustWrite(t, c, 0, word[:], true)
			rs := c.CollectRelease()
			notify(t, c, 2, 3, p) // invalidates the page
			survivor := proto.Notice{Seq: 5, Tag: proto.IntervalTag{Writer: 2, Interval: 5}, Records: []proto.StoreRecord{{Addr: 0, Data: word[:]}}}
			if err := c.ApplyNotices([]proto.Notice{{Seq: 4, Tag: rs.Tag}, survivor}); err != nil {
				t.Fatal(err)
			}
			return []uint64{4}, 5
		}},
		{"own evicted record left out of its notice", 1, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustWrite(t, c, 0, word[:], true)
			mustRead(t, c, layout.Addr(geo.LineSize()))
			rs := c.CollectRelease()
			if err := c.ApplyNotices([]proto.Notice{{Seq: 4, Tag: rs.Tag}}); err != nil {
				t.Fatal(err)
			}
			return []uint64{3}, 4
		}},
		{"need above the horizon", 0, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustRead(t, c, 0)
			notify(t, c, 2, 9, p)
			return []uint64{8}, 9
		}},
		{"need that came inline", 0, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustRead(t, c, 0)
			notify(t, c, 2, 0, p)
			refuseAll(t, c, p, shipped, 1<<62)
			// A fetch clears it; a later need at 3 vouched for at 3 installs.
			mustRead(t, c, 0)
			notify(t, c, 2, 3, p)
			return []uint64{2}, 3
		}},
		{"foreign need only", 0, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			mustRead(t, c, 0)
			notify(t, c, 2, 1, p)
			return nil, 1
		}},
		{"absent line", 0, func(t *testing.T, c *Cache) ([]uint64, uint64) {
			return nil, 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			be := newFakeBackend(geo)
			be.noPrefetch = true
			c, _, _ := newCache(t, geo, be, func(cfg *Config) { cfg.CapacityLines = tc.lines })
			refuse, at := tc.setup(t, c)
			refuseAll(t, c, p, shipped, refuse...)
			if !c.InstallGrantPage(p, shipped, at) {
				t.Fatalf("refused at horizon %d", at)
			}
			le := c.lines[geo.LineOf(p)]
			if !le.pages[c.pageIndex(p)].valid || !bytes.Equal(le.data[:geo.PageSize], shipped) {
				t.Fatal("the shipped bytes did not land")
			}
			if _, ok := c.pageNeeds[p]; ok {
				t.Fatal("the install left the page's needs")
			}
		})
	}
}

// refuseAll checks that InstallGrantPage refuses page p at every horizon
// and leaves it as it was.
func refuseAll(t *testing.T, c *Cache, p layout.PageID, data []byte, horizons ...uint64) {
	t.Helper()
	for _, h := range horizons {
		needs := len(c.pageNeeds[p].tags)
		if c.InstallGrantPage(p, data, h) {
			t.Fatalf("installed at horizon %d", h)
		}
		if le, ok := c.lines[c.geo.LineOf(p)]; ok && le.pages[c.pageIndex(p)].valid {
			t.Fatalf("page valid after a refusal at horizon %d", h)
		}
		if len(c.pageNeeds[p].tags) != needs {
			t.Fatalf("a refusal at horizon %d changed the page's needs", h)
		}
	}
}

// notify applies one notice from writer naming page p.
func notify(t *testing.T, c *Cache, writer uint32, seq uint64, p layout.PageID) {
	t.Helper()
	tag := proto.IntervalTag{Writer: writer, Interval: max(seq, 1)}
	if writer == c.cfg.Writer {
		tag.Interval = c.Interval()
	}
	if err := c.ApplyNotices([]proto.Notice{{Seq: seq, Tag: tag, Pages: []uint64{uint64(p)}}}); err != nil {
		t.Fatal(err)
	}
}

func mustRead(t *testing.T, c *Cache, addr layout.Addr) {
	t.Helper()
	var b [8]byte
	if err := c.Read(addr, b[:]); err != nil {
		t.Fatal(err)
	}
}

func mustWrite(t *testing.T, c *Cache, addr layout.Addr, data []byte, region bool) {
	t.Helper()
	if err := c.Write(addr, data, region); err != nil {
		t.Fatal(err)
	}
}
