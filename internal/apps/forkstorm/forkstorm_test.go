package forkstorm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/pthreads"
	"repro/internal/vm"
)

func newRT(t *testing.T, mutate ...func(*core.Config)) *core.Runtime {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.CacheLines = 256
	cfg.Geo.NumServers = 4
	cfg.ServerShards = 2
	cfg.StripeMin = 4096 // small images still stripe in tests
	for _, m := range mutate {
		m(&cfg)
	}
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

var quick = Params{ImageBytes: 64 << 10, Forks: 24, ReadsPerFork: 3, WritesPerFork: 1}

// The storm itself is the correctness check: every fork read verifies
// the sealed value bit for bit while the parent concurrently dirties
// the original image, and every fork write is read back. Run() already
// panics on any violation, so a clean run plus the counters is the
// assertion. The CoW point: a fork's p99 must undercut the eager-copy
// cold start.
func TestForkStormSealedReadsAndColdStart(t *testing.T) {
	rt := newRT(t)
	defer rt.Close()
	res, err := Run(rt, 4, quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Forks != int64(quick.Forks) || res.Errors != 0 {
		t.Fatalf("forks=%d errors=%d, want %d/0", res.Forks, res.Errors, quick.Forks)
	}
	if res.ColdStartNs == 0 || res.P99 == 0 {
		t.Fatalf("degenerate measurements: cold=%d p99=%d", res.ColdStartNs, res.P99)
	}
	if res.P99 >= 2*res.ColdStartNs {
		t.Fatalf("fork p99 %d !< 2x cold start %d — copy-on-write is not paying off", res.P99, res.ColdStartNs)
	}
	ts := rt.TierStats()
	if ts.SealedPages.Load() == 0 {
		t.Fatal("no pages sealed")
	}
	if ts.SnapshotRefs.Load() == 0 {
		t.Fatal("no fork ranges registered")
	}
	if ts.CoWBreaks.Load() == 0 {
		t.Fatal("fork writes caused no copy-on-write breaks")
	}
}

// Bit-identical determinism on the sequenced fabric.
func TestForkStormDeterministic(t *testing.T) {
	run := func() *Result {
		rt := newRT(t)
		defer rt.Close()
		res, err := Run(rt, 4, quick)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.P50 != r2.P50 || r1.P99 != r2.P99 || r1.ColdStartNs != r2.ColdStartNs {
		t.Fatalf("quantiles differ across identical runs: (%d,%d,%d) vs (%d,%d,%d)",
			r1.P50, r1.P99, r1.ColdStartNs, r2.P50, r2.P99, r2.ColdStartNs)
	}
	for i := range r1.Run.Threads {
		if r1.Run.Threads[i] != r2.Run.Threads[i] {
			t.Errorf("thread %d stats differ", i)
		}
	}
}

// The storm under a tight hot budget: the tier demotes pages mid-run and
// every verification still passes (the tier is invisible to the data
// plane).
func TestForkStormTiered(t *testing.T) {
	rt := newRT(t, func(c *core.Config) { c.HotBytes = 32 << 10 })
	defer rt.Close()
	res, err := Run(rt, 4, quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Forks != int64(quick.Forks) || res.Errors != 0 {
		t.Fatalf("tiered storm: forks=%d errors=%d", res.Forks, res.Errors)
	}
	ts := rt.TierStats()
	if ts.Demotions.Load() == 0 {
		t.Fatal("tight hot budget caused no demotions")
	}
	if ts.HotHits.Load() == 0 {
		t.Fatal("no hot hits recorded")
	}
}

// The baseline backend implements the same verbs with an eager copy.
func TestForkStormPthreads(t *testing.T) {
	res, err := Run(pthreads.New(pthreads.Config{}), 4, quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Forks != int64(quick.Forks) || res.Errors != 0 {
		t.Fatalf("pthreads storm: forks=%d errors=%d", res.Forks, res.Errors)
	}
}

// Freeing a fork must unmap it at the homes before the striped space
// is recycled: a later allocation reusing the range reads zeros — not
// the dead fork's CoW pages, not the sealed snapshot frames — and the
// snapshot itself survives for further forks. The full teardown then
// reclaims every sealed frame and range registration.
func TestForkFreeReuse(t *testing.T) {
	runForkFreeReuse(t, newRT(t))
}

// The same lifecycle on an unsequenced fabric, where the clients reach
// the servers concurrently in real time.
func TestForkFreeReuseUnsequenced(t *testing.T) {
	runForkFreeReuse(t, newRT(t, func(c *core.Config) {
		c.Faults = faultnet.New(faultnet.Config{Seed: 11}) // no kills: just an unsequenced fabric
	}))
}

// The same lifecycle on tiered servers whose hot sets hold one page a
// shard: freeing the fork drops its demoted private pages unpromoted, and
// Close finds the tier's moves still account for every cold page.
func TestForkFreeReuseTiered(t *testing.T) {
	rt := newRT(t, func(c *core.Config) { c.HotBytes = 8 << 10 })
	runForkFreeReuse(t, rt)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if rt.TierStats().ColdDrops.Load() == 0 {
		t.Fatal("the free dropped no cold page: the tier check saw no drop")
	}
}

func runForkFreeReuse(t *testing.T, rt *core.Runtime) {
	defer rt.Close()
	const n = 32 << 10
	elems := n / 8
	_, err := rt.Run(1, func(th vm.Thread) {
		base := th.GlobalAlloc(n)
		img := vm.F64{Base: base}
		for j := 0; j < elems; j++ {
			img.Set(th, j, sealedVal(3, j))
		}
		snap := th.SnapshotAS(base, n)

		forkA := th.ForkAS(snap)
		a := vm.F64{Base: forkA}
		if got := a.At(th, 5); got != sealedVal(3, 5) {
			t.Errorf("fork A element 5 = %v, want sealed %v", got, sealedVal(3, 5))
		}
		// CoW-break a few pages so the homes hold private fork pages too.
		for j := 0; j < elems; j += 512 {
			a.Set(th, j, 424242)
		}
		th.Free(forkA)

		// First-fit reuse of the freed striped range: every byte must read
		// as zero — neither fork A's private writes nor the sealed frames
		// may bleed through the recycled addresses.
		reuse := th.GlobalAlloc(n)
		if reuse != forkA {
			t.Errorf("allocator did not reuse the freed fork range (%#x vs %#x); reuse check weakened", uint64(reuse), uint64(forkA))
		}
		r := vm.F64{Base: reuse}
		for j := 0; j < elems; j++ {
			if got := r.At(th, j); got != 0 {
				t.Errorf("recycled element %d = %v, want 0", j, got)
				break
			}
		}

		// The snapshot is still forkable after one fork died.
		forkB := th.ForkAS(snap)
		b := vm.F64{Base: forkB}
		for j := 0; j < elems; j += 97 {
			if got := b.At(th, j); got != sealedVal(3, j) {
				t.Errorf("post-free fork B element %d = %v, want sealed %v", j, got, sealedVal(3, j))
				break
			}
		}

		// Full teardown: the last fork and the original image go away,
		// releasing the snapshot record and its sealed frames everywhere.
		th.Free(forkB)
		th.Free(base)
		th.Free(reuse)
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := rt.TierStats()
	if got := ts.SealedPages.Load(); got != 0 {
		t.Errorf("SealedPages = %d after full teardown, want 0 (server-side frame leak)", got)
	}
	if got := ts.SnapshotRefs.Load(); got != 0 {
		t.Errorf("SnapshotRefs = %d after full teardown, want 0 (fork range leak)", got)
	}
}

// Snapshotting a fork whose pages were never CoW-broken must seal the
// inherited parent image, not implicit zeros: forks of the nested
// snapshot read the original sealed values, and writes through them
// stay private.
func TestSnapshotOfUnbrokenFork(t *testing.T) {
	rt := newRT(t)
	defer rt.Close()
	const n = 32 << 10
	elems := n / 8
	_, err := rt.Run(1, func(th vm.Thread) {
		base := th.GlobalAlloc(n)
		img := vm.F64{Base: base}
		for j := 0; j < elems; j++ {
			img.Set(th, j, sealedVal(5, j))
		}
		snap1 := th.SnapshotAS(base, n)
		// Fork F is snapshotted untouched: no read, no write, so not one
		// of its pages exists on the homes when the seal runs.
		forkF := th.ForkAS(snap1)
		snap2 := th.SnapshotAS(forkF, n)
		// Dirty F completely AFTER the nested seal; G must not see it.
		f := vm.F64{Base: forkF}
		for j := 0; j < elems; j++ {
			f.Set(th, j, -7)
		}
		forkG := th.ForkAS(snap2)
		g := vm.F64{Base: forkG}
		for j := 0; j < elems; j++ {
			if got := g.At(th, j); got != sealedVal(5, j) {
				t.Errorf("nested fork G element %d = %v, want inherited sealed %v", j, got, sealedVal(5, j))
				break
			}
		}
		// Writes through G stay private to G: a sibling fork of snap2
		// still reads the inherited image.
		for j := 0; j < elems; j += 256 {
			g.Set(th, j, 999)
		}
		forkH := th.ForkAS(snap2)
		h := vm.F64{Base: forkH}
		for j := 0; j < elems; j += 128 {
			if got := h.At(th, j); got != sealedVal(5, j) {
				t.Errorf("sibling fork H element %d = %v, want inherited sealed %v", j, got, sealedVal(5, j))
				break
			}
		}
		// Teardown in dependency order; every record and frame must go.
		th.Free(forkG)
		th.Free(forkH)
		th.Free(forkF)
		th.Free(base)
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := rt.TierStats()
	if got := ts.SealedPages.Load(); got != 0 {
		t.Errorf("SealedPages = %d after teardown, want 0", got)
	}
	if got := ts.SnapshotRefs.Load(); got != 0 {
		t.Errorf("SnapshotRefs = %d after teardown, want 0", got)
	}
}

// Fork linearizability, checked exhaustively rather than by sampled
// reads: the child must see the sealed image exactly — element for
// element — and neither parent writes after the seal nor another fork's
// writes may ever appear through it.
func TestForkLinearizability(t *testing.T) {
	rt := newRT(t)
	defer rt.Close()
	const bytes = 32 << 10
	elems := bytes / 8
	bar := rt.NewBarrier(2)
	var imgBase, snapID shared
	_, err := rt.Run(2, func(th vm.Thread) {
		if th.ID() == 0 {
			base := th.GlobalAlloc(bytes)
			img := vm.F64{Base: base}
			for j := 0; j < elems; j++ {
				img.Set(th, j, sealedVal(7, j))
			}
			imgBase.set(uint64(base))
			snapID.set(th.SnapshotAS(base, bytes))
			bar.Wait(th)
			// Parent dirties EVERY element after the seal.
			for j := 0; j < elems; j++ {
				img.Set(th, j, -1)
			}
			bar.Wait(th) // child forks after this point
			bar.Wait(th)
			return
		}
		bar.Wait(th)
		bar.Wait(th)
		// Two forks taken after the parent dirtied everything.
		a := vm.F64{Base: th.ForkAS(snapID.get())}
		b := vm.F64{Base: th.ForkAS(snapID.get())}
		for j := 0; j < elems; j++ {
			if got := a.At(th, j); got != sealedVal(7, j) {
				t.Errorf("fork A element %d = %v, want sealed %v", j, got, sealedVal(7, j))
				break
			}
		}
		// Writes to fork A must not surface through fork B.
		for j := 0; j < elems; j += 64 {
			a.Set(th, j, 12345)
		}
		for j := 0; j < elems; j++ {
			want := sealedVal(7, j)
			if got := b.At(th, j); got != want {
				t.Errorf("fork B element %d = %v, want sealed %v (leak from fork A?)", j, got, want)
				break
			}
		}
		bar.Wait(th)
	})
	if err != nil {
		t.Fatal(err)
	}
}
