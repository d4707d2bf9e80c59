package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCollectorSpanAndOrder(t *testing.T) {
	c := NewCollector(0)
	c.Span("thread 1", CatLock, "lock 1", 200, 300, nil)
	c.Span("thread 0", CatFetch, "fetch line 5", 100, 150, map[string]any{"home": 0})
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	ev := c.Events()
	if ev[0].Start != 100 || ev[1].Start != 200 {
		t.Fatalf("events not sorted: %+v", ev)
	}
	if ev[0].Dur != 50 {
		t.Fatalf("duration = %v", ev[0].Dur)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Span("x", CatFault, "y", 0, 1, nil) // must not panic
}

func TestNegativeDurationClamped(t *testing.T) {
	c := NewCollector(0)
	c.Span("a", CatLock, "l", 100, 50, nil)
	if c.Events()[0].Dur != 0 {
		t.Fatal("negative duration not clamped")
	}
}

func TestLimitDropsExcess(t *testing.T) {
	c := NewCollector(3)
	for i := 0; i < 10; i++ {
		c.Span("a", CatFault, "f", 0, 1, nil)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestDroppedCountsEventsPastTheLimit(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 4; i++ {
		c.Span("a", CatFault, "f", 0, 1, nil)
	}
	if c.Dropped() != 0 {
		t.Fatalf("Dropped = %d at the limit, want 0", c.Dropped())
	}
	// Past the limit, from several goroutines at once.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				c.Span("b", CatFetch, "f", 0, 1, nil)
			}
		}()
	}
	wg.Wait()
	if c.Len() != 4 || c.Dropped() != 100 {
		t.Fatalf("Len = %d, Dropped = %d, want 4 and 100", c.Len(), c.Dropped())
	}
	if s := c.Summary(); !strings.Contains(s, "dropped     100 events  past the limit of 4") {
		t.Fatalf("summary does not report the drops: %q", s)
	}
}

func TestChromeTraceExport(t *testing.T) {
	c := NewCollector(0)
	c.Span("thread 0", CatBarrier, "barrier 1", 1000, 3000, nil)
	c.Span("memserver 0", CatFetch, "fetch line 2", 1500, 2500, map[string]any{"needs": 1})
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 events + 2 thread_name metadata rows.
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var sawX, sawM bool
	for _, r := range rows {
		switch r["ph"] {
		case "X":
			sawX = true
			if r["ts"].(float64) < 1 { // ns -> µs conversion happened
				t.Errorf("ts = %v", r["ts"])
			}
		case "M":
			sawM = true
		}
	}
	if !sawX || !sawM {
		t.Fatalf("missing event kinds: X=%v M=%v", sawX, sawM)
	}
}

func TestSummary(t *testing.T) {
	c := NewCollector(0)
	c.Span("a", CatLock, "l", 0, 10, nil)
	c.Span("a", CatLock, "l", 10, 30, nil)
	c.Span("b", CatFetch, "f", 0, 5, nil)
	s := c.Summary()
	if !strings.Contains(s, "lock") || !strings.Contains(s, "2 events") {
		t.Fatalf("summary: %q", s)
	}
}

func TestConcurrentAdds(t *testing.T) {
	c := NewCollector(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Span("t", CatFault, "f", 0, 1, nil)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 800 {
		t.Fatalf("Len = %d", c.Len())
	}
}
