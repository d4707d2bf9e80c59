package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// span is one timed call from the harness into the program. Spans of one
// repetition share its id; Parent is the index of the enclosing span in
// the recorder (-1 for a root).
type span struct {
	Name       string
	Rep        int
	Parent     int
	Start, End time.Duration // host time since the recorder was created
}

// recorder keeps the harness's spans in memory; they are written out
// when the benchmark ends. It is used from the harness goroutine only.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string, rep int) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Rep: rep, Parent: parent, Start: time.Since(r.t0)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) time.Duration {
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d closed out of order", id))
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = time.Since(r.t0)
	return r.spans[id].End - r.spans[id].Start
}

// selfTimes folds spans into self time per name for one repetition: a
// span's self time is its duration minus the part its direct children
// cover.
func selfTimes(spans []span, rep int) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Rep == rep && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		if s.Rep == rep {
			self[s.Name] += s.End - s.Start - child[i]
		}
	}
	return self
}

// virtKind maps a collector event onto the operation it times. Event
// names carry object ids ("lock 7", "fetch line 12"); the first word
// with the category is the operation.
func virtKind(e trace.Event) string {
	word, _, _ := strings.Cut(e.Name, " ")
	switch e.Cat {
	case trace.CatLock:
		return word // "lock" or "unlock"
	case trace.CatAlloc:
		return "alloc" // alloc, snapshot, fork
	default:
		return string(e.Cat)
	}
}

// virtSelfTimes folds the collector's virtual-time events into self time
// per operation kind, summed over actors. Within one actor an event is
// the child of the innermost event that contains it (a release inside
// the barrier that caused it); an event that only overlaps its
// predecessor is a sibling. Prefetches run beside their thread, so they
// never nest: their time is reported whole.
func virtSelfTimes(events []trace.Event) map[string]int64 {
	byActor := make(map[string][]trace.Event)
	self := make(map[string]int64)
	for _, e := range events {
		if e.Cat == trace.CatPrefetch {
			self["prefetch"] += int64(e.Dur)
			continue
		}
		byActor[e.Actor] = append(byActor[e.Actor], e)
	}
	type open struct {
		kind string
		end  int64
	}
	for _, evs := range byActor {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Start != evs[j].Start {
				return evs[i].Start < evs[j].Start
			}
			return evs[i].Dur > evs[j].Dur // the container first
		})
		var stack []open
		for _, e := range evs {
			start, end := int64(e.Start), int64(e.Start+e.Dur)
			for len(stack) > 0 && (stack[len(stack)-1].end <= start || stack[len(stack)-1].end < end) {
				stack = stack[:len(stack)-1]
			}
			kind := virtKind(e)
			self[kind] += end - start
			if len(stack) > 0 {
				self[stack[len(stack)-1].kind] -= end - start
			}
			stack = append(stack, open{kind, end})
		}
	}
	return self
}

// chromeEvent is one row of a Chrome trace-event file ("X" = complete
// event, "M" = metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes one traced repetition: process 1 holds the
// harness spans on a single row in host microseconds; process 2 holds
// the program's collector events, one row per actor, in virtual
// microseconds. The two clocks share no origin; only durations compare.
func writeChromeTrace(w io.Writer, spans []span, rep int, events []trace.Event) error {
	rows := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "benchmark harness (host clock)"}},
		{Name: "process_name", Ph: "M", PID: 2, Args: map[string]any{"name": "samhita (virtual clock)"}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: 1, Args: map[string]any{"name": "harness"}},
	}
	for i, s := range spans {
		if s.Rep != rep {
			continue
		}
		rows = append(rows, chromeEvent{
			Name: s.Name, Cat: "harness", Ph: "X", PID: 1, TID: 1,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "rep": s.Rep},
		})
	}
	tids := make(map[string]int)
	for _, e := range events {
		tid, ok := tids[e.Actor]
		if !ok {
			tid = len(tids) + 1
			tids[e.Actor] = tid
			rows = append(rows, chromeEvent{Name: "thread_name", Ph: "M", PID: 2, TID: tid, Args: map[string]any{"name": e.Actor}})
		}
		rows = append(rows, chromeEvent{
			Name: e.Name, Cat: string(e.Cat), Ph: "X", PID: 2, TID: tid,
			TS: float64(e.Start) / 1e3, Dur: float64(e.Dur) / 1e3, Args: e.Args,
		})
	}
	return json.NewEncoder(w).Encode(rows)
}
