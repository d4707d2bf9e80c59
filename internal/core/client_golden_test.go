package core

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/vm"
)

const clientGolden = "testdata/client.golden"

// clientScript runs one scripted sequenced run through every client path
// of the compute thread and reports what it left behind: every
// stats.Thread field of every thread, the fabric's message and byte
// totals, and each server's and manager replica's clock. Four threads
// share two servers of two shards and two manager homes (so contended
// locks hand over peer to peer), on a cache of eight lines.
func clientScript(t *testing.T, replicas int) string {
	cfg := DefaultConfig()
	cfg.CacheLines = 8
	cfg.Geo.NumServers = 2
	cfg.ServerShards = 2
	cfg.ManagerShards = 2
	cfg.ManagerReplicas = replicas
	cfg.StripeMin = 32 << 10
	rt := newRuntime(t, cfg)

	const (
		p     = 4
		elems = 64 << 10 // 512 KiB of float64, four times the cache
		chunk = 512
	)
	mu, quiet := rt.NewMutex(), rt.NewMutex()
	bar := rt.NewBarrier(p)
	cond := rt.NewCond()
	var arrBase, ctrBase, snapID atomic.Uint64
	run, err := rt.Run(p, func(th vm.Thread) {
		id := th.ID()
		if id == 0 {
			arrBase.Store(uint64(th.GlobalAlloc(elems * 8)))
			ctrBase.Store(uint64(th.GlobalAlloc(4096)))
		}
		bar.Wait(th)
		arr := vm.Addr(arrBase.Load())
		ctr := vm.Addr(ctrBase.Load())

		// Ordinary stores to a quarter each, then everyone reads it all:
		// evictions, prefetches and pulls of lazily owned pages.
		buf := make([]float64, chunk)
		for i := id * elems / p; i < (id+1)*elems/p; i += chunk {
			for j := range buf {
				buf[j] = float64(i + j)
			}
			th.WriteFloat64s(arr+vm.Addr(8*i), buf)
		}
		bar.Wait(th)
		for i := 0; i < elems; i += chunk {
			th.ReadFloat64s(arr+vm.Addr(8*i), buf)
			if buf[chunk-1] != float64(i+chunk-1) {
				t.Errorf("thread %d: element %d = %v", id, i+chunk-1, buf[chunk-1])
				return
			}
		}

		// False sharing: all four write every page of the array's head,
		// so barriers ship computed diffs once the pages turn shared, and
		// read them right after, so fetches park on the last arriver's
		// batches.
		for round := 0; round < 4; round++ {
			if id == 3 {
				th.Compute(1 << 14)
			}
			for pg := 0; pg < 16; pg++ {
				th.WriteFloat64(arr+vm.Addr(4096*pg+8*(4*round+id)), float64(round))
			}
			bar.Wait(th)
			for pg := 0; pg < 16; pg++ {
				th.ReadFloat64(arr + vm.Addr(4096*pg+8*(4*round+3-id)))
			}
		}

		// A contended lock whose releases carry records, and one whose
		// releases carry none.
		for i := 0; i < 3; i++ {
			mu.Lock(th)
			th.WriteInt64(ctr, th.ReadInt64(ctr)+1)
			mu.Unlock(th)
			quiet.Lock(th)
			th.ReadInt64(ctr)
			quiet.Unlock(th)
		}
		bar.Wait(th)

		// Three waiters woken by a broadcast, then one by a signal.
		// The wakers compute first, so the waiters are parked by then.
		flag, flag2 := ctr+64, ctr+72
		if id == 3 {
			th.Compute(1 << 20)
			mu.Lock(th)
			th.WriteInt64(flag, 1)
			mu.Unlock(th)
			cond.Broadcast(th)
		} else {
			mu.Lock(th)
			for th.ReadInt64(flag) == 0 {
				cond.Wait(th, mu)
			}
			mu.Unlock(th)
		}
		switch id {
		case 0:
			mu.Lock(th)
			for th.ReadInt64(flag2) == 0 {
				cond.Wait(th, mu)
			}
			mu.Unlock(th)
		case 1:
			th.Compute(1 << 21)
			mu.Lock(th)
			th.WriteInt64(flag2, 1)
			mu.Unlock(th)
			cond.Signal(th)
		}
		bar.Wait(th)

		// The three allocators and both frees.
		m := th.Malloc(100)
		th.WriteInt64(m, int64(id))
		g := th.GlobalAlloc(4096)
		th.WriteInt64(g, int64(id))
		th.Free(g)
		if id == 1 {
			th.Free(th.GlobalAlloc(64 << 10))
		}
		bar.Wait(th)

		// A snapshot of the array's head, two forks of it and their frees.
		if id == 0 {
			snapID.Store(th.SnapshotAS(arr, 64<<10))
		}
		bar.Wait(th)
		if id == 1 || id == 2 {
			f := th.ForkAS(snapID.Load())
			if got := th.ReadFloat64(f + 800); got != 100 {
				t.Errorf("thread %d: fork element 100 = %v", id, got)
			}
			th.WriteFloat64(f+808, -1)
			th.Free(f)
		}
		bar.Wait(th)
		if got := th.ReadInt64(ctr); got != 3*p {
			t.Errorf("thread %d: counter = %d, want %d", id, got, 3*p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "manager replicas %d\n", replicas)
	threads := run.Threads
	sort.Slice(threads, func(i, j int) bool { return threads[i].ID < threads[j].ID })
	for i := range threads {
		v := reflect.ValueOf(threads[i])
		fmt.Fprintf(&b, "thread %d:", threads[i].ID)
		for f := 1; f < v.NumField(); f++ {
			name := v.Type().Field(f).Name
			if laterCounters[name] && v.Field(f).Int() == 0 {
				continue
			}
			fmt.Fprintf(&b, " %s=%d", name, v.Field(f).Int())
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "fabric: msgs=%d bytes=%d\n", rt.Fabric().Messages(), rt.Fabric().Bytes())
	for i, s := range rt.Servers() {
		fmt.Fprintf(&b, "server %d: clock=%d\n", i, int64(s.Clock()))
	}
	for i, m := range rt.Managers() {
		fmt.Fprintf(&b, "manager %d: clock=%d handoffs=%d\n", i, int64(m.Clock()), m.Stats().Handoffs.Load())
	}
	return b.String()
}

// laterCounters are the stats.Thread fields added after the golden was
// written: a line leaves one out while it reads zero, so the golden
// still pins it at zero without a rewrite.
var laterCounters = map[string]bool{"PageFills": true, "SectorFills": true, "SkippedPages": true, "FrameFills": true}

// Every client path of a compute thread — contended locks with and
// without records, barriers, condition waits, signals and broadcasts, the
// three allocators, frees, snapshots and forks, on a cache that evicts
// and prefetches — is pinned by what one sequenced run leaves behind, for
// a lone manager and for three replicas. testdata/client.golden was
// written by the thread before its round trips, releases and home
// fan-outs each had one way; a differing line is a behaviour change.
func TestClientGolden(t *testing.T) {
	got := clientScript(t, 1) + clientScript(t, 3)
	if *updateConvoy {
		if err := os.WriteFile(clientGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(clientGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
