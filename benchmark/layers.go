package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench/quantile"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/manager"
	"repro/internal/memserver"
	"repro/internal/pagecache"
	"repro/internal/proto"
	"repro/internal/replog"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/vtime"
)

// The isolated drivers time calls into one layer's public functions from
// outside, with benchmark-owned stubs on the other side of the layer.
// Each driver constructs only that layer (plus the fabric it attaches
// to), so its numbers move only when that layer's code does.

// probe makes n calls and reports the host time and the heap objects
// they cost.
type probe func(n int) (time.Duration, uint64)

// whole times everything f does.
func whole(f func(n int)) probe {
	return func(n int) (time.Duration, uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		f(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		return d, m1.Mallocs - m0.Mallocs
	}
}

// driverBatches is how many batches a driver measures; it reports their
// median.
const driverBatches = 5

// perCall sizes a batch so that it lasts about batch, runs
// driverBatches of them and returns the median host ns and heap objects
// per call.
func perCall(batch time.Duration, p probe) (ns, allocs float64) {
	n := 1
	for {
		d, _ := p(n)
		if d >= batch/2 || n >= 1<<24 {
			break
		}
		grow := 2.0
		if d > 0 {
			grow = 1.2 * float64(batch) / float64(d)
		}
		if grow > 100 {
			grow = 100
		}
		if grow < 2 {
			grow = 2
		}
		n = int(float64(n) * grow)
	}
	var nss, als []float64
	for i := 0; i < driverBatches; i++ {
		d, a := p(n)
		nss = append(nss, float64(d.Nanoseconds())/float64(n))
		als = append(als, float64(a)/float64(n))
	}
	return median(nss), median(als)
}

// driverLink is the link model of every driver fabric: the benchmark's
// QDR InfiniBand, so virtual per-call times are comparable with the
// workloads'.
var driverLink = vtime.QDRInfiniBand

// layerDrivers runs every isolated driver and returns its metrics by
// name. batch is the length of one measured batch.
func layerDrivers(batch time.Duration) (map[string]float64, error) {
	m := make(map[string]float64)
	for _, d := range []func(time.Duration, map[string]float64) error{
		driveVM, drivePagecache, driveSCL, driveSimnet, driveProto,
		driveMemserver, driveManager, driveReplog, driveQuantile,
	} {
		if err := d(batch, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// --- vm: accessors of a one-thread runtime on a resident line.

func driveVM(batch time.Duration, m map[string]float64) error {
	rt, err := core.New(baseConfig(1, 1, 1, 1))
	if err != nil {
		return fmt.Errorf("vm driver: %w", err)
	}
	_, err = rt.Run(1, func(t vm.Thread) {
		a := t.Malloc(8192)
		buf := make([]float64, 128) // 1 KiB
		t.WriteFloat64s(a, buf)
		var sink float64
		m["vm.read_hit_host_ns"], _ = perCall(batch, whole(func(n int) {
			for i := 0; i < n; i++ {
				sink += t.ReadFloat64(a)
			}
		}))
		m["vm.write_hit_host_ns"], _ = perCall(batch, whole(func(n int) {
			for i := 0; i < n; i++ {
				t.WriteFloat64(a, sink)
			}
		}))
		m["vm.readslice_host_ns_per_kib"], _ = perCall(batch, whole(func(n int) {
			for i := 0; i < n; i++ {
				t.ReadFloat64s(a, buf)
			}
		}))
	})
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("vm driver: %w", err)
	}
	return nil
}

// --- pagecache over a zero-latency backend stub.

// zeroBackend serves zero-filled lines instantly and swallows flushes.
type zeroBackend struct{ geo layout.Geometry }

func (b zeroBackend) FetchLine(_ layout.LineID, _ []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	return make([]byte, b.geo.LineSize()), at, nil
}

func (b zeroBackend) FetchLines(lines []layout.LineID, pages []layout.PageID, _ []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	return make([]byte, len(lines)*b.geo.LineSize()+len(pages)*b.geo.PageSize), at, nil
}

func (zeroBackend) StartPrefetch(layout.LineID, []proto.PageNeed, vtime.Time, *pagecache.Handoff) <-chan pagecache.PrefetchResult {
	return nil // declines: the fault driver times demand faults only
}

func (zeroBackend) FlushEvict(_ []proto.PageDiff, at vtime.Time) (vtime.Time, error) { return at, nil }
func (zeroBackend) FlushSync(_ []proto.PageDiff, at vtime.Time) (vtime.Time, error)  { return at, nil }

// releasePages is how many dirty shared pages one driven release closes.
const releasePages = 64

func drivePagecache(batch time.Duration, m map[string]float64) error {
	geo := layout.DefaultGeometry()
	newCache := func(capLines int, noLazy bool) *pagecache.Cache {
		return pagecache.New(pagecache.Config{
			Geo: geo, CPU: vtime.DefaultCPU, CapacityLines: capLines, PrefetchDepth: 1, Writer: 1, NoLazyOwner: noLazy,
		}, zeroBackend{geo}, vtime.NewClock(0), &stats.Thread{})
	}
	var cerr error
	check := func(err error) {
		if err != nil && cerr == nil {
			cerr = fmt.Errorf("pagecache driver: %w", err)
		}
	}

	c := newCache(64, false)
	word, page := make([]byte, 8), make([]byte, geo.PageSize)
	check(c.Write(0, word, false)) // fault the line in and twin the page once
	m["pagecache.read_hit_host_ns"], _ = perCall(batch, whole(func(n int) {
		for i := 0; i < n; i++ {
			check(c.Read(0, word))
		}
	}))
	m["pagecache.write_hit_host_ns"], _ = perCall(batch, whole(func(n int) {
		for i := 0; i < n; i++ {
			check(c.Write(0, word, false))
		}
	}))
	ns, _ := perCall(batch, whole(func(n int) {
		for i := 0; i < n; i++ {
			check(c.ReadSpan(0, page))
		}
	}))
	m["pagecache.readspan_host_ns_per_kib"] = ns / float64(geo.PageSize/1024)
	ns, _ = perCall(batch, whole(func(n int) {
		for i := 0; i < n; i++ {
			check(c.WriteSpan(0, page, false))
		}
	}))
	m["pagecache.writespan_host_ns_per_kib"] = ns / float64(geo.PageSize/1024)

	// Demand faults: every call touches a line never seen before, so each
	// one misses, fetches from the stub and (cache full) evicts a clean
	// line.
	fc := newCache(64, false)
	next := layout.Addr(0)
	m["pagecache.fault_host_ns"], m["pagecache.fault_allocs"] = perCall(batch, whole(func(n int) {
		for i := 0; i < n; i++ {
			check(fc.Read(next, word))
			next += layout.Addr(geo.LineSize())
		}
	}))

	// Releases: NoLazyOwner sends every dirty page down the shared-page
	// path (deferred byte diff in FinishRelease), as pages another writer
	// has touched go. Only BeginRelease..FinishRelease is timed.
	rc := newCache(64, true)
	ns, allocs := perCall(batch, func(n int) (time.Duration, uint64) {
		var d time.Duration
		var objs uint64
		var m0, m1 runtime.MemStats
		for i := 0; i < n; i++ {
			for p := 0; p < releasePages; p++ {
				word[0]++
				check(rc.Write(layout.Addr(p*geo.PageSize), word, false))
			}
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			rc.FinishRelease(rc.BeginRelease())
			d += time.Since(t0)
			runtime.ReadMemStats(&m1)
			objs += m1.Mallocs - m0.Mallocs
		}
		return d, objs
	})
	m["pagecache.release_host_ns_per_page"] = ns / releasePages
	m["pagecache.release_allocs_per_page"] = allocs / releasePages
	return cerr
}

// --- echo responders shared by the scl and simnet drivers.

// echoEndpoint answers every request with its own body until ep closes.
func echoEndpoint(ep scl.Endpoint, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		req, ok := ep.Recv()
		if !ok {
			return
		}
		var body proto.FetchLineResp
		if err := req.Decode(&body); err != nil {
			req.ReplyError(err, req.Arrive())
			continue
		}
		req.Reply(&body, req.Arrive()+req.Svc())
	}
}

// callLoop drives n echo calls of a payload through ep.
func callLoop(ep scl.Endpoint, dst scl.NodeID, payload []byte, errp *error) func(n int) {
	req := &proto.FetchLineResp{Data: payload}
	var at vtime.Time
	return func(n int) {
		for i := 0; i < n; i++ {
			var resp proto.FetchLineResp
			done, err := ep.Call(dst, req, &resp, at)
			if err != nil {
				if *errp == nil {
					*errp = err
				}
				return
			}
			at = done
		}
	}
}

func driveSCL(batch time.Duration, m map[string]float64) error {
	var err error
	small, line := make([]byte, 64), make([]byte, 16<<10)
	var wg sync.WaitGroup

	fab := simnet.NewFabric(driverLink)
	srv, cli := scl.NewSimEndpoint(fab, 1), scl.NewSimEndpoint(fab, 2)
	wg.Add(1)
	go echoEndpoint(srv, &wg)
	bare, allocs := perCall(batch, whole(callLoop(cli, 1, small, &err)))
	m["scl.sim_call_host_ns"], m["scl.sim_call_allocs"] = bare, allocs
	retried, _ := perCall(batch, whole(callLoop(scl.WithRetry(cli, scl.DefaultRetryPolicy, nil), 1, small, &err)))
	m["scl.retry_overhead_host_ns"] = retried - bare
	cli.Close()
	srv.Close()
	wg.Wait()
	if err != nil {
		return fmt.Errorf("scl sim driver: %w", err)
	}

	tcp := scl.NewTCPFactory(driverLink)
	tsrv, err := tcp.NewEndpoint(1)
	if err != nil {
		return fmt.Errorf("scl tcp driver: %w", err)
	}
	tcli, err := tcp.NewEndpoint(2)
	if err != nil {
		tcp.Close()
		return fmt.Errorf("scl tcp driver: %w", err)
	}
	wg.Add(1)
	go echoEndpoint(tsrv, &wg)
	m["scl.tcp_call_host_ns"], m["scl.tcp_call_allocs"] = perCall(batch, whole(callLoop(tcli, 1, small, &err)))
	m["scl.tcp_call16k_host_ns"], _ = perCall(batch, whole(callLoop(tcli, 1, line, &err)))
	tcp.Close()
	wg.Wait()
	if err != nil {
		return fmt.Errorf("scl tcp driver: %w", err)
	}
	return nil
}

// --- simnet: the raw Port, no codec.

func driveSimnet(batch time.Duration, m map[string]float64) error {
	fab := simnet.NewFabric(driverLink)
	srv, cli := fab.NewPort(1), fab.NewPort(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // answers calls, swallows posts
		defer wg.Done()
		for {
			req, ok := srv.Recv()
			if !ok {
				return
			}
			if !req.OneWay() {
				req.Reply(req.Kind(), req.Body(), req.Arrive()+req.Svc())
			}
		}
	}()
	var err error
	body := make([]byte, 64)
	var at vtime.Time
	m["simnet.call_host_ns"], _ = perCall(batch, whole(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, _, at, err = cli.Call(1, 7, body, at)
		}
	}))
	m["simnet.post_host_ns"], _ = perCall(batch, whole(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			at, err = cli.Post(1, 7, body, at)
		}
	}))
	cli.Close()
	srv.Close()
	wg.Wait()
	if err != nil {
		return fmt.Errorf("simnet driver: %w", err)
	}
	return nil
}

// --- proto: Encode / Decode of five representative messages.

// protoSample is one message to encode and a constructor of the empty
// value to decode it into.
type protoSample struct {
	msg   proto.Msg
	fresh func() proto.Msg
}

func protoSamples() map[string]protoSample {
	records := func(n int) []proto.StoreRecord {
		rs := make([]proto.StoreRecord, n)
		for i := range rs {
			rs[i] = proto.StoreRecord{Addr: uint64(1<<34 + 24*i), Data: make([]byte, 24)}
		}
		return rs
	}
	diffs := make([]proto.PageDiff, 8)
	for i := range diffs {
		diffs[i].Page = uint64(100 + i)
		for r := 0; r < 4; r++ {
			diffs[i].Runs = append(diffs[i].Runs, proto.DiffRun{Off: uint32(1024 * r), Data: make([]byte, 256)})
		}
	}
	notices := make([]proto.Notice, 8)
	for i := range notices {
		notices[i] = proto.Notice{Seq: uint64(i + 1), Tag: proto.IntervalTag{Writer: uint32(i + 1), Interval: 9}, Pages: []uint64{uint64(i)}, Records: records(2)}
	}
	entries := make([]proto.ReplEntry, 8)
	for i := range entries {
		entries[i] = proto.ReplEntry{Index: uint64(i + 1), Term: 1, Src: 100, Kind: uint16(proto.KUnlockReq), Body: make([]byte, 96)}
	}
	return map[string]protoSample{
		"fetch_resp": {&proto.FetchLineResp{Data: make([]byte, 16<<10)},
			func() proto.Msg { return new(proto.FetchLineResp) }},
		"diff_batch": {&proto.DiffBatch{Tag: proto.IntervalTag{Writer: 3, Interval: 7}, Diffs: diffs},
			func() proto.Msg { return new(proto.DiffBatch) }},
		"lock_resp": {&proto.LockResp{Seq: 8, Notices: notices, Gen: 5},
			func() proto.Msg { return new(proto.LockResp) }},
		"unlock_req": {&proto.UnlockReq{Lock: 4, Thread: 3, Interval: 7, Records: records(16)},
			func() proto.Msg { return new(proto.UnlockReq) }},
		"repl_append": {&proto.ReplAppend{Term: 1, Entries: entries},
			func() proto.Msg { return new(proto.ReplAppend) }},
	}
}

func driveProto(batch time.Duration, m map[string]float64) error {
	for name, sample := range protoSamples() {
		var body []byte
		encNs, encAllocs := perCall(batch, whole(func(n int) {
			for i := 0; i < n; i++ {
				body = proto.Encode(sample.msg)
			}
		}))
		var err error
		decNs, decAllocs := perCall(batch, whole(func(n int) {
			for i := 0; i < n && err == nil; i++ {
				err = proto.Decode(sample.fresh(), body)
			}
		}))
		if err != nil {
			return fmt.Errorf("proto driver: %s: %w", name, err)
		}
		m["proto.encode_host_ns."+name] = encNs
		m["proto.decode_host_ns."+name] = decNs
		m["proto.roundtrip_allocs."+name] = encAllocs + decAllocs
	}
	return nil
}

// --- memserver: one server behind a sim endpoint, one client.

const (
	memNode   scl.NodeID = 100
	memClient scl.NodeID = 1
	memLines             = 16 // populated lines the fetch drivers cycle over
)

// memHarness is one running memory server and its only client.
type memHarness struct {
	srv *memserver.Server
	cli *scl.SimEndpoint
	wg  sync.WaitGroup
	geo layout.Geometry
	at  vtime.Time
	seq uint64 // interval counter of the driver's one writer
}

func newMemHarness(hotBytes int64) *memHarness {
	h := &memHarness{geo: layout.DefaultGeometry()}
	fab := simnet.NewFabric(driverLink)
	h.srv = memserver.New(scl.NewSimEndpoint(fab, memNode), 0, h.geo, vtime.DefaultCPU,
		func(w uint32) scl.NodeID { return 200 + scl.NodeID(w) })
	h.srv.SetTier(hotBytes, vtime.ColdNVMe, new(stats.Tier))
	h.cli = scl.NewSimEndpoint(fab, memClient)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.srv.Run()
	}()
	return h
}

func (h *memHarness) stop() error {
	var ack proto.Ack
	_, err := h.cli.Call(memNode, &proto.Shutdown{}, &ack, h.at)
	h.wg.Wait()
	h.cli.Close()
	return err
}

// batchOf builds a diff batch that rewrites 512 bytes in each of the 8
// pages starting at first.
func (h *memHarness) batchOf(first uint64) *proto.DiffBatch {
	h.seq++
	b := &proto.DiffBatch{Tag: proto.IntervalTag{Writer: 9, Interval: h.seq}}
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(h.seq)
	}
	for p := uint64(0); p < 8; p++ {
		b.Diffs = append(b.Diffs, proto.PageDiff{Page: first + p, Runs: []proto.DiffRun{{Off: 64, Data: data}}})
	}
	return b
}

// apply posts one batch and waits until the server has applied it (the
// inbox is a FIFO, so the ping's ack proves it).
func (h *memHarness) apply(b *proto.DiffBatch) error {
	at, err := h.cli.Post(memNode, b, h.at)
	if err != nil {
		return err
	}
	var ack proto.Ack
	h.at, err = h.cli.Call(memNode, &proto.Ping{}, &ack, at)
	return err
}

// populate materializes memLines lines at the server.
func (h *memHarness) populate() error {
	pages := uint64(memLines * h.geo.LinePages)
	for first := uint64(0); first < pages; first += 8 {
		if err := h.apply(h.batchOf(first)); err != nil {
			return err
		}
	}
	return nil
}

// fetchLoop fetches the populated lines round robin and adds the
// client-observed virtual round trips to *virt.
func (h *memHarness) fetchLoop(virt *vtime.Time, calls *int, errp *error) func(n int) {
	line := uint64(0)
	return func(n int) {
		for i := 0; i < n && *errp == nil; i++ {
			var resp proto.FetchLineResp
			done, err := h.cli.Call(memNode, &proto.FetchLineReq{Line: line % memLines}, &resp, h.at)
			if err != nil {
				*errp = err
				return
			}
			*virt += done - h.at
			*calls++
			h.at = done
			line++
		}
	}
}

func driveMemserver(batch time.Duration, m map[string]float64) error {
	var err error
	h := newMemHarness(0)
	if err = h.populate(); err != nil {
		return fmt.Errorf("memserver driver: %w", err)
	}
	var virt vtime.Time
	var calls int
	m["memserver.fetch_host_ns"], m["memserver.fetch_allocs"] = perCall(batch, whole(h.fetchLoop(&virt, &calls, &err)))
	m["memserver.fetch_virt_ns"] = rate(float64(virt), float64(calls))

	// Diff apply: the virtual cost is the service time the server books,
	// read from its clock.
	clock0, applies := h.srv.Clock(), 0
	m["memserver.diff_apply_host_ns"], _ = perCall(batch, whole(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			err = h.apply(h.batchOf(uint64(8 * (applies % (memLines * h.geo.LinePages / 8)))))
			applies++
		}
	}))
	m["memserver.diff_apply_virt_ns"] = rate(float64(h.srv.Clock()-clock0), float64(applies))
	if serr := h.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("memserver driver: %w", err)
	}

	// Cold fetch: a two-page hot budget, so every line fetched was
	// demoted since its last visit and is promoted again.
	c := newMemHarness(int64(2 * h.geo.PageSize))
	if err = c.populate(); err != nil {
		return fmt.Errorf("memserver cold driver: %w", err)
	}
	virt, calls = 0, 0
	m["memserver.cold_fetch_host_ns"], _ = perCall(batch, whole(c.fetchLoop(&virt, &calls, &err)))
	m["memserver.cold_fetch_virt_ns"] = rate(float64(virt), float64(calls))
	if serr := c.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("memserver cold driver: %w", err)
	}
	return nil
}

// --- manager: one manager with four homes, sim-endpoint clients.

const mgrNode scl.NodeID = 500

// mgrClient speaks the thread side of the sync protocol.
type mgrClient struct {
	ep       *scl.SimEndpoint
	id       uint32
	at       vtime.Time
	lastSeen uint64
	interval uint64
}

func (c *mgrClient) lockUnlock(lock uint32) error {
	var resp proto.LockResp
	at, err := c.ep.Call(mgrNode, &proto.LockReq{Lock: lock, Thread: c.id, LastSeen: c.lastSeen}, &resp, c.at)
	if err != nil {
		return err
	}
	c.lastSeen = resp.Seq
	c.interval++
	var ack proto.Ack
	c.at, err = c.ep.Call(mgrNode, &proto.UnlockReq{Lock: lock, Thread: c.id, Interval: c.interval}, &ack, at)
	return err
}

func (c *mgrClient) barrier(id, count uint32) error {
	c.interval++
	var resp proto.BarrierResp
	at, err := c.ep.Call(mgrNode, &proto.BarrierReq{
		Barrier: id, Count: count, Thread: c.id, LastSeen: c.lastSeen, Interval: c.interval,
	}, &resp, c.at)
	if err != nil {
		return err
	}
	c.at, c.lastSeen = at, resp.Seq
	return nil
}

func (c *mgrClient) allocFree() error {
	var resp proto.AllocResp
	at, err := c.ep.Call(mgrNode, &proto.AllocReq{Thread: c.id, Size: 64, Align: 16, Strategy: proto.AllocShared}, &resp, c.at)
	if err != nil {
		return err
	}
	var freed proto.FreeResp
	c.at, err = c.ep.Call(mgrNode, &proto.FreeReq{Thread: c.id, Addr: resp.Addr}, &freed, at)
	return err
}

func driveManager(batch time.Duration, m map[string]float64) error {
	fab := simnet.NewFabric(driverLink)
	mgr := manager.New(scl.NewSimEndpoint(fab, mgrNode), layout.DefaultGeometry())
	mgr.SetShards(4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mgr.Run()
	}()
	const parties = 16
	clients := make([]*mgrClient, parties)
	for i := range clients {
		clients[i] = &mgrClient{ep: scl.NewSimEndpoint(fab, scl.NodeID(i+1)), id: uint32(i + 1)}
	}
	var err error
	c0 := clients[0]
	at0, pairs := c0.at, 0
	m["manager.lock_unlock_host_ns"], _ = perCall(batch, whole(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			err = c0.lockUnlock(1)
			pairs++
		}
	}))
	m["manager.lock_unlock_virt_ns"] = rate(float64(c0.at-at0), float64(pairs))

	// One barrier round: all sixteen clients arrive, the last arrival
	// releases them. The clients pace each other through the barrier
	// itself, so n rounds need no other coordination.
	at0, rounds := c0.at, 0
	errs := make([]error, parties)
	m["manager.barrier16_host_ns"], _ = perCall(batch, whole(func(n int) {
		var round sync.WaitGroup
		for i, c := range clients {
			round.Add(1)
			go func(i int, c *mgrClient) {
				defer round.Done()
				for r := 0; r < n && errs[i] == nil; r++ {
					errs[i] = c.barrier(2, parties)
				}
			}(i, c)
		}
		round.Wait()
		rounds += n
	}))
	m["manager.barrier16_virt_ns"] = rate(float64(c0.at-at0), float64(rounds))
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}

	m["manager.alloc_host_ns"], _ = perCall(batch, whole(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			err = c0.allocFree()
		}
	}))

	var ack proto.Ack
	if _, serr := c0.ep.Call(mgrNode, &proto.Shutdown{}, &ack, c0.at); err == nil {
		err = serr
	}
	wg.Wait()
	for _, c := range clients {
		c.ep.Close()
	}
	if err != nil {
		return fmt.Errorf("manager driver: %w", err)
	}
	return nil
}

// --- replog: one append acknowledged by two followers.

func driveReplog(batch time.Duration, m map[string]float64) error {
	p := replog.NewProposer(1, []int{1, 2}, 1)
	followers := []*replog.Acceptor{{}, {}}
	body := make([]byte, 96)
	var err error
	m["replog.append_ack_host_ns"], m["replog.append_ack_allocs"] = perCall(batch, whole(func(n int) {
		for i := 0; i < n && err == nil; i++ {
			p.Append(100, proto.KUnlockReq, body)
			for id, f := range followers {
				entries, snap := p.Batch(id + 1)
				_, ack := f.Offer(&proto.ReplAppend{Term: p.Term, Entries: entries})
				if snap || !ack.OK || p.Ack(id+1, &ack) {
					err = fmt.Errorf("replog driver: follower %d rejected index %d", id+1, p.Last())
				}
			}
			p.Truncate(p.Last())
		}
	}))
	return err
}

// --- quantile

func driveQuantile(batch time.Duration, m map[string]float64) error {
	sk := quantile.New(quantile.DefaultAlpha)
	v := int64(1000)
	m["quantile.add_host_ns"], _ = perCall(batch, whole(func(n int) {
		for i := 0; i < n; i++ {
			sk.Add(v)
			v = 1000 + (v*31)%99991
		}
	}))
	return nil
}
