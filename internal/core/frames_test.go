package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/proto"
	"repro/internal/vm"
	"repro/internal/vtime"
)

// frameEnv is what a sealed-frame case runs against: a 16-page image
// whose page p starts with sealedWord(p), sealed into snap by thread 0,
// a barrier across the case's threads, a lock, a slot to pass an address
// through, and a buffer of 32 lines to sweep the 8-line caches with.
type frameEnv struct {
	snap  uint64
	bar   vm.Barrier
	lock  vm.Mutex
	addr  atomic.Uint64
	sweep vm.Addr
}

const (
	frameImage = 16 << 12
	frameY     = 5 // a page of the image's second line
	frameZ     = 9 // a page of its third line
)

func sealedWord(p int) int64 { return 1000 + int64(p) }

// evict reads one word of each of the sweep buffer's lines: every line
// the cache held before is gone.
func (e *frameEnv) evict(th vm.Thread) {
	for l := range 32 {
		th.ReadInt64(e.sweep + vm.Addr(l<<14))
	}
}

// A miss on a fork page the thread made, has never held and has no needs
// on is served from the thread's own copy of the sealed frame. Every
// other read of a fork page sees what RegC says it must: each case fails
// when the rule it names is taken out of the frame path.
func TestFrameFillsKeepRegC(t *testing.T) {
	page := func(f vm.Addr, p int) vm.Addr { return f + vm.Addr(p<<12) }
	cases := []struct {
		name    string
		threads int
		body    func(t *testing.T, e *frameEnv, th vm.Thread)
	}{{
		// The peer's notice leaves the page with needs.
		name: "a peer's released write to a fork page is read after an acquire", threads: 2,
		body: func(t *testing.T, e *frameEnv, th vm.Thread) {
			if th.ID() == 0 {
				f := th.ForkAS(e.snap)
				th.ReadInt64(page(f, frameZ)) // a frame read: the thread has frames
				e.addr.Store(uint64(f))
			}
			e.bar.Wait(th)
			f := vm.Addr(e.addr.Load())
			if th.ID() == 1 {
				th.WriteInt64(page(f, frameY), 77)
			}
			e.bar.Wait(th)
			if got := th.ReadInt64(page(f, frameY)); th.ID() == 0 && got != 77 {
				t.Errorf("fork page read %d after the barrier, want the peer's 77", got)
			}
		},
	}, {
		// The thread's frames are the sealed bytes, never a fetched copy.
		name: "a second fork of the same snapshot reads the sealed value after the first fork's page was CoW-broken", threads: 1,
		body: func(t *testing.T, e *frameEnv, th vm.Thread) {
			a := th.ForkAS(e.snap)
			th.WriteInt64(page(a, frameY), -1)
			e.evict(th) // the dirty page goes home: the home breaks it
			if got := th.ReadInt64(page(a, frameY)); got != -1 {
				t.Fatalf("first fork read %d, want its own -1", got)
			}
			b := th.ForkAS(e.snap)
			if got := th.ReadInt64(page(b, frameY)); got != sealedWord(frameY) {
				t.Errorf("second fork read %d, want sealed %d", got, sealedWord(frameY))
			}
		},
	}, {
		// Writing the page held it.
		name: "a page the thread wrote, then lost to eviction, reads back the write", threads: 1,
		body: func(t *testing.T, e *frameEnv, th vm.Thread) {
			f := th.ForkAS(e.snap)
			th.WriteInt64(page(f, frameY), 55)
			e.evict(th)
			if got := th.ReadInt64(page(f, frameY)); got != 55 {
				t.Errorf("fork page read %d after eviction, want the thread's 55", got)
			}
		},
	}, {
		// Thread 2 holds the lock while 1 and then 0 queue: 2's release
		// grants 1 with the train [0], and 1 grants 0 peer-to-peer,
		// shipping the fork page it fetched and wrote whole under the
		// lock. The grant's extents cover the page, so it has no needs
		// left: only its held bit keeps it off the frame path.
		name: "a page installed by a lock grant's extents, then lost to eviction, is never frame-filled", threads: 3,
		body: func(t *testing.T, e *frameEnv, th vm.Thread) {
			const us = vtime.Time(1000)
			if th.ID() == 0 {
				e.addr.Store(uint64(th.ForkAS(e.snap)))
			}
			e.bar.Wait(th)
			f := vm.Addr(e.addr.Load())
			start := th.Clock()
			whole := make([]float64, 512)
			for i := range whole {
				whole[i] = 88
			}
			switch th.ID() {
			case 2:
				th.SleepUntil(start + 50*us)
				e.lock.Lock(th)
				th.SleepUntil(start + 1000*us)
				e.lock.Unlock(th)
			case 1:
				th.SleepUntil(start + 100*us)
				e.lock.Lock(th)
				th.ReadInt64(page(f, frameY)) // fetched in the region: shipped on
				th.WriteFloat64s(page(f, frameY), whole)
				e.lock.Unlock(th)
			case 0:
				th.SleepUntil(start + 200*us)
				e.lock.Lock(th)
				if got := th.ReadFloat64(page(f, frameY)); got != 88 {
					t.Errorf("granted fork page read %v, want 88", got)
				}
				e.lock.Unlock(th)
				e.evict(th)
				if got := th.ReadFloat64(page(f, frameY)); got != 88 {
					t.Errorf("granted fork page read %v after eviction, want 88", got)
				}
			}
			e.bar.Wait(th)
		},
	}, {
		// Another fork of the snapshot gives the thread the frame of a
		// page the freed one never touched.
		name: "a freed fork range that the striped zone reuses reads as the new allocation", threads: 1,
		body: func(t *testing.T, e *frameEnv, th vm.Thread) {
			f := th.ForkAS(e.snap)
			th.ReadInt64(page(f, frameY))
			g := th.ForkAS(e.snap)
			th.ReadInt64(page(g, frameZ))
			th.Free(f)
			r := th.GlobalAlloc(frameImage)
			if r != f {
				t.Fatalf("the allocator did not reuse the freed fork range (%#x vs %#x)", uint64(r), uint64(f))
			}
			if got := th.ReadInt64(page(r, frameZ)); got != 0 {
				t.Errorf("reused range read %d, want the new allocation's 0", got)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CacheLines = 8
			cfg.StripeMin = 4096
			rt := newRuntime(t, cfg)
			tap := &grantTap{Transport: rt.transport}
			rt.transport = tap
			e := &frameEnv{bar: rt.NewBarrier(tc.threads), lock: rt.NewMutex()}
			_, err := rt.Run(tc.threads, func(th vm.Thread) {
				if th.ID() == 0 {
					img := th.GlobalAlloc(frameImage)
					for p := range frameImage >> 12 {
						th.WriteInt64(page(img, p), sealedWord(p))
					}
					e.snap = th.SnapshotAS(img, frameImage)
					e.sweep = th.GlobalAlloc(32 << 14)
				}
				e.bar.Wait(th)
				tc.body(t, e, th)
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.threads == 3 && !grantedPages(t, tap, 1, 0) {
				t.Fatal("thread 1 shipped thread 0 no page with its grant; the schedule moved")
			}
		})
	}
}

// grantedPages reports whether thread from granted a lock to thread to
// peer-to-peer with lock-carried pages.
func grantedPages(t *testing.T, tap *grantTap, from, to int) bool {
	for i, body := range tap.grants {
		if tap.srcs[i] == ThreadNode(from+1) && tap.dsts[i] == ThreadNode(to+1) {
			var g proto.LockGrant
			if err := proto.Decode(&g, body); err != nil {
				t.Fatal(err)
			}
			return len(g.PageData) > 0
		}
	}
	return false
}
