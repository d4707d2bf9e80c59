// Package trace records protocol events in virtual time and exports
// them in the Chrome trace-event format (chrome://tracing, Perfetto),
// so a Samhita run can be inspected visually: page faults, fetch round
// trips, lock and barrier spans, releases and pulls, per thread and per
// server.
//
// Tracing is opt-in (attach a Collector through core.Config) and cheap
// when off: the runtime checks a nil collector before composing any
// event.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/vtime"
)

// Category classifies events for filtering in the viewer.
type Category string

// Categories emitted by the runtime.
const (
	CatFault    Category = "fault"    // cache miss handling (compute side)
	CatFetch    Category = "fetch"    // line fetch round trip
	CatPrefetch Category = "prefetch" // anticipatory-paging fetches (issue to landing)
	CatLock     Category = "lock"     // mutex acquire/release spans
	CatBarrier  Category = "barrier"  // barrier wait spans
	CatCond     Category = "cond"     // condition-variable waits
	CatRelease  Category = "release"  // diff collection + batch posting
	CatAlloc    Category = "alloc"    // manager allocation round trips
	CatNet      Category = "net"      // transport faults: drops, delays, partitions, duplicates
	CatLive     Category = "live"     // liveness: kills, member deaths, reclamation, failover
)

// Event is one completed span in virtual time.
type Event struct {
	Name  string
	Cat   Category
	Actor string     // "thread 3", "memserver 0", ...
	Start vtime.Time // virtual start
	Dur   vtime.Time // virtual duration
	Args  map[string]any
}

// Collector accumulates events from many goroutines.
type Collector struct {
	mu      sync.Mutex
	events  []Event
	limit   int
	dropped int
}

// NewCollector creates a collector; limit bounds retained events
// (0 = 1<<20). When full, further events are dropped and counted —
// tracing is a diagnostic aid, not an audit log.
func NewCollector(limit int) *Collector {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Collector{limit: limit}
}

// Add records one event.
func (c *Collector) Add(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) < c.limit {
		c.events = append(c.events, e)
	} else {
		c.dropped++
	}
}

// Span is a convenience for "the actor did name from start to end".
func (c *Collector) Span(actor string, cat Category, name string, start, end vtime.Time, args map[string]any) {
	if c == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	c.Add(Event{Name: name, Cat: cat, Actor: actor, Start: start, Dur: dur, Args: args})
}

// Len reports how many events are retained.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Dropped reports how many events arrived after the collector reached
// its limit and were not retained.
func (c *Collector) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Events returns a copy of the retained events sorted by start time.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// chromeEvent is the trace-event JSON shape ("X" = complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the events as a Chrome trace-event JSON array.
// Virtual nanoseconds map to trace microseconds; each actor becomes a
// thread row.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	events := c.Events()
	tids := map[string]int{}
	var rows []chromeEvent
	for _, e := range events {
		tid, ok := tids[e.Actor]
		if !ok {
			tid = len(tids) + 1
			tids[e.Actor] = tid
		}
		rows = append(rows, chromeEvent{
			Name: e.Name,
			Cat:  string(e.Cat),
			Ph:   "X",
			TS:   float64(e.Start) / 1e3,
			Dur:  float64(e.Dur) / 1e3,
			PID:  1,
			TID:  tid,
			Args: e.Args,
		})
	}
	// Metadata rows naming the threads.
	for actor, tid := range tids {
		rows = append(rows, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": actor},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(rows)
}

// Summary renders per-category counts and total virtual time, then the
// number of events dropped past the limit.
func (c *Collector) Summary() string {
	counts := map[Category]int{}
	durs := map[Category]vtime.Time{}
	for _, e := range c.Events() {
		counts[e.Cat]++
		durs[e.Cat] += e.Dur
	}
	cats := make([]string, 0, len(counts))
	for cat := range counts {
		cats = append(cats, string(cat))
	}
	sort.Strings(cats)
	out := ""
	for _, cat := range cats {
		out += fmt.Sprintf("%-8s %6d events  %v\n", cat, counts[Category(cat)], durs[Category(cat)])
	}
	out += fmt.Sprintf("%-8s %6d events  past the limit of %d\n", "dropped", c.Dropped(), c.limit)
	return out
}
