package core

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/stats"
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

// forkMapDelay is how late a slowForkMaps endpoint stamps each ForkMap
// it starts: far later than anything a case does without a join.
const forkMapDelay = vtime.Time(1_000_000)

// slowForkMaps is a Transport whose endpoints start every ForkMap
// forkMapDelay late, so its home gets it after any request the thread
// sends it, or a peer sends it, without joining the ForkMap's ack first.
type slowForkMaps struct{ Transport }

func (s slowForkMaps) NewEndpoint(id scl.NodeID) (scl.Endpoint, error) {
	ep, err := s.Transport.NewEndpoint(id)
	if err != nil {
		return nil, err
	}
	return slowForkMapEndpoint{ep}, nil
}

type slowForkMapEndpoint struct{ scl.Endpoint }

func (e slowForkMapEndpoint) Start(dst scl.NodeID, req proto.Msg, at vtime.Time, p *scl.Pending) {
	if req.Kind() == proto.KForkMap {
		at += forkMapDelay
	}
	e.Endpoint.Start(dst, req, at, p)
}

// ForkAS returns before its homes ack their ForkMaps. Each case makes a
// request that needs the mapping while the ack is still out, and fails
// when the join that orders it after the ForkMap is taken out: the
// frame read's own, the manager request's, the flush's, the body's last,
// the unlock's. Free is guarded twice, by its manager request and by
// its unmap, and fails only without both.
func TestDeferredForkMapAck(t *testing.T) {
	page := func(f vm.Addr, p int) vm.Addr { return f + vm.Addr(p<<12) }
	cases := []struct {
		name    string
		threads int
		body    func(t *testing.T, e *frameEnv, th vm.Thread)
		after   func(t *testing.T, rt *Runtime, e *frameEnv, tap *grantTap, run *stats.Run)
	}{{
		name: "a frame read issued right after ForkAS is served", threads: 1,
		body: func(t *testing.T, e *frameEnv, th vm.Thread) {
			for range 2 {
				f := th.ForkAS(e.snap)
				if got := th.ReadInt64(page(f, frameY)); got != sealedWord(frameY) {
					t.Errorf("fork page read %d right after ForkAS, want sealed %d", got, sealedWord(frameY))
				}
			}
		},
		// A refused frame read leaves the miss to a fetch and keeps no
		// frame, so the second fork's read is no frame fill either.
		after: func(t *testing.T, _ *Runtime, _ *frameEnv, _ *grantTap, run *stats.Run) {
			if run.Threads[0].FrameFills == 0 {
				t.Error("no page was filled from a frame: the home refused the frame read, having no mapping yet")
			}
		},
	}, {
		name: "a fork published through a barrier reads sealed bytes at a peer", threads: 2,
		body: func(t *testing.T, e *frameEnv, th vm.Thread) {
			if th.ID() == 0 {
				e.addr.Store(uint64(th.ForkAS(e.snap)))
			}
			e.bar.Wait(th)
			f := vm.Addr(e.addr.Load())
			if got := th.ReadInt64(page(f, frameZ)); th.ID() == 1 && got != sealedWord(frameZ) {
				t.Errorf("peer read %d through the published fork, want sealed %d", got, sealedWord(frameZ))
			}
		},
	}, {
		// The thread holds the frames already, so the write faults with no
		// message, and the seal's flush is its first request to the home.
		name: "SnapshotAS of a fork whose ForkMap is in flight seals the inherited frames", threads: 1,
		body: func(t *testing.T, e *frameEnv, th vm.Thread) {
			a := th.ForkAS(e.snap)
			e.bar.Wait(th)
			th.ReadInt64(page(a, frameY))
			f := th.ForkAS(e.snap)
			th.WriteInt64(page(f, frameY)+8, -5)
			nested := th.SnapshotAS(f, frameImage)
			g := th.ForkAS(nested)
			e.bar.Wait(th)
			if got := th.ReadInt64(page(g, frameY)); got != sealedWord(frameY) {
				t.Errorf("nested fork's written page read %d, want the inherited %d", got, sealedWord(frameY))
			}
			if got := th.ReadInt64(page(g, frameY) + 8); got != -5 {
				t.Errorf("nested fork read %d, want the sealed write -5", got)
			}
		},
	}, {
		name: "a body that returns with a ForkMap in flight closes cleanly, with SnapshotRefs conserved", threads: 1,
		body: func(t *testing.T, e *frameEnv, th vm.Thread) {
			e.addr.Store(uint64(th.ForkAS(e.snap)))
		},
		after: func(t *testing.T, rt *Runtime, e *frameEnv, _ *grantTap, run *stats.Run) {
			if got := run.Threads[0].SyncTime; got < forkMapDelay {
				t.Errorf("thread's sync time %d ends before its ForkMap's ack (%d late)", got, forkMapDelay)
			}
			geo := rt.cfg.Geo
			first, homes := geo.PageOf(layout.Addr(e.addr.Load())), map[int]bool{}
			for p := range frameImage >> 12 {
				homes[geo.HomeOf(first+layout.PageID(p))] = true
			}
			if got := rt.TierStats().SnapshotRefs.Load(); got != int64(len(homes)) {
				t.Errorf("SnapshotRefs = %d, want one fork range at each of its %d homes", got, len(homes))
			}
		},
	}, {
		name: "Free of a fork whose ForkMap is in flight returns its range", threads: 1,
		body: func(t *testing.T, e *frameEnv, th vm.Thread) {
			f := th.ForkAS(e.snap)
			th.Free(f)
			r := th.GlobalAlloc(frameImage)
			if r != f {
				t.Fatalf("the allocator did not reuse the freed fork range (%#x vs %#x)", uint64(r), uint64(f))
			}
			if got := th.ReadInt64(page(r, frameZ)); got != 0 {
				t.Errorf("reused range read %d, want the new allocation's 0", got)
			}
		},
		after: func(t *testing.T, rt *Runtime, _ *frameEnv, _ *grantTap, _ *stats.Run) {
			if got := rt.TierStats().SnapshotRefs.Load(); got != 0 {
				t.Errorf("SnapshotRefs = %d after the fork's free, want 0", got)
			}
		},
	}, {
		// Thread 0 holds the lock while 1 queues, then forks inside it:
		// its unlock grants 1 peer to peer, ahead of its notice.
		name: "a fork published through a peer-to-peer grant reads sealed bytes at the next holder", threads: 2,
		body: func(t *testing.T, e *frameEnv, th vm.Thread) {
			const us = vtime.Time(1000)
			start := th.Clock()
			switch th.ID() {
			case 0:
				th.SleepUntil(start + 50*us)
				e.lock.Lock(th)
				th.SleepUntil(start + 1000*us)
				e.addr.Store(uint64(th.ForkAS(e.snap)))
				e.lock.Unlock(th)
			case 1:
				th.SleepUntil(start + 100*us)
				e.lock.Lock(th)
				f := vm.Addr(e.addr.Load())
				if got := th.ReadInt64(page(f, frameZ)); got != sealedWord(frameZ) {
					t.Errorf("next holder read %d through the granted fork, want sealed %d", got, sealedWord(frameZ))
				}
				e.lock.Unlock(th)
			}
		},
		after: func(t *testing.T, _ *Runtime, _ *frameEnv, tap *grantTap, _ *stats.Run) {
			if !slices.ContainsFunc(tap.srcs, func(n scl.NodeID) bool { return n == ThreadNode(1) }) {
				t.Fatal("thread 0 granted no lock peer to peer; the schedule moved")
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CacheLines = 8
			cfg.StripeMin = 4096
			rt := newRuntime(t, cfg)
			tap := &grantTap{Transport: slowForkMaps{rt.transport}}
			rt.transport = tap
			e := &frameEnv{bar: rt.NewBarrier(tc.threads), lock: rt.NewMutex()}
			run, err := rt.Run(tc.threads, func(th vm.Thread) {
				if th.ID() == 0 {
					img := th.GlobalAlloc(frameImage)
					for p := range frameImage >> 12 {
						th.WriteInt64(page(img, p), sealedWord(p))
					}
					e.snap = th.SnapshotAS(img, frameImage)
				}
				e.bar.Wait(th)
				tc.body(t, e, th)
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.after != nil {
				tc.after(t, rt, e, tap, run)
			}
		})
	}
}
