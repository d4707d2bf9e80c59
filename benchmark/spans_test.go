package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/vtime"
)

func TestSelfTimesFoldsANest(t *testing.T) {
	ms := time.Millisecond
	// rep 1: root [0,100) holds boot [0,10), run [10,80) and close [90,100);
	// run holds two "inner" spans [20,30) and [40,70); the second holds
	// "leaf" [45,50). rep 2 must not leak into rep 1.
	spans := []span{
		{Name: "root", Rep: 1, Parent: -1, Start: 0, End: 100 * ms},
		{Name: "boot", Rep: 1, Parent: 0, Start: 0, End: 10 * ms},
		{Name: "run", Rep: 1, Parent: 0, Start: 10 * ms, End: 80 * ms},
		{Name: "inner", Rep: 1, Parent: 2, Start: 20 * ms, End: 30 * ms},
		{Name: "inner", Rep: 1, Parent: 2, Start: 40 * ms, End: 70 * ms},
		{Name: "leaf", Rep: 1, Parent: 4, Start: 45 * ms, End: 50 * ms},
		{Name: "close", Rep: 1, Parent: 0, Start: 90 * ms, End: 100 * ms},
		{Name: "run", Rep: 2, Parent: -1, Start: 200 * ms, End: 900 * ms},
	}
	got := selfTimes(spans, 1)
	want := map[string]time.Duration{
		"root": 10 * ms, "boot": 10 * ms, "run": 30 * ms, "inner": 35 * ms, "leaf": 5 * ms, "close": 10 * ms,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	var sum time.Duration
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
		sum += got[name]
	}
	if sum != 100*ms {
		t.Errorf("self times sum to %v, the root lasted 100ms", sum)
	}
}

func TestRecorderNestsByCallOrder(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", 7)
	child := r.begin("child", 7)
	r.end(child)
	r.end(root)
	if r.spans[child].Parent != root || r.spans[root].Parent != -1 {
		t.Fatalf("parents %d and %d", r.spans[root].Parent, r.spans[child].Parent)
	}
	if s := r.spans[root]; s.End < r.spans[child].End || s.Start > r.spans[child].Start {
		t.Fatalf("root %v does not contain child %v", s, r.spans[child])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("closing a span that is not innermost must panic")
		}
	}()
	a := r.begin("a", 7)
	r.begin("b", 7)
	r.end(a)
}

func TestVirtSelfTimesNestsByContainment(t *testing.T) {
	ev := func(actor string, cat trace.Category, name string, start, dur int64) trace.Event {
		return trace.Event{Actor: actor, Cat: cat, Name: name, Start: vtime.Time(start), Dur: vtime.Time(dur)}
	}
	events := []trace.Event{
		// thread 0: a barrier [0,100) holding a release [10,40); then an
		// unlock [200,260) holding a release [210,230); a fetch [300,350)
		// that a lock [340,400) merely overlaps (siblings).
		ev("thread 0", trace.CatBarrier, "barrier 3", 0, 100),
		ev("thread 0", trace.CatRelease, "release", 10, 30),
		ev("thread 0", trace.CatLock, "unlock 9", 200, 60),
		ev("thread 0", trace.CatRelease, "release", 210, 20),
		ev("thread 0", trace.CatFetch, "fetch line 5", 300, 50),
		ev("thread 0", trace.CatLock, "lock 9", 340, 60),
		// thread 1: the same interval on another actor must not nest under
		// thread 0's barrier; a prefetch never nests.
		ev("thread 1", trace.CatLock, "lock 9", 20, 30),
		ev("thread 1", trace.CatPrefetch, "prefetch line 6", 25, 10),
		ev("thread 1", trace.CatAlloc, "fork", 60, 5),
	}
	got := virtSelfTimes(events)
	want := map[string]int64{
		"barrier": 70, "release": 50, "unlock": 40, "fetch": 50, "lock": 90, "prefetch": 10, "alloc": 5,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s self time = %d, want %d", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestChromeTraceHasBothClocks(t *testing.T) {
	spans := []span{{Name: "run", Rep: 1, Parent: -1, Start: 0, End: time.Millisecond}}
	events := []trace.Event{{Actor: "thread 0", Cat: trace.CatLock, Name: "lock 1", Start: 1000, Dur: 500}}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans, 1, events); err != nil {
		t.Fatal(err)
	}
	var rows []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	var harness, program int
	for _, r := range rows {
		if r.Ph != "X" {
			continue
		}
		switch r.PID {
		case 1:
			harness++
			if r.Dur != 1000 {
				t.Errorf("harness span lasts %v us, want 1000", r.Dur)
			}
		case 2:
			program++
			if r.TS != 1 || r.Dur != 0.5 {
				t.Errorf("program event at %v us for %v us, want 1 and 0.5", r.TS, r.Dur)
			}
		}
	}
	if harness != 1 || program != 1 {
		t.Errorf("%d harness and %d program events, want 1 and 1", harness, program)
	}
}
