package memserver

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

var testLink = vtime.LinkModel{
	Name:         "test",
	Latency:      1000,
	BytesPerSec:  1e9,
	SendOverhead: 50,
	ServiceTime:  100,
}

type harness struct {
	srv    *Server
	cli    scl.Endpoint
	wg     sync.WaitGroup
	doneAt vtime.Time
}

func newHarness(t *testing.T, geo layout.Geometry) *harness {
	t.Helper()
	f := simnet.NewFabric(testLink)
	srvEP := scl.NewSimEndpoint(f, 100)
	h := &harness{
		srv: New(srvEP, 0, geo, vtime.DefaultCPU, func(w uint32) scl.NodeID { return 200 + scl.NodeID(w) }),
		cli: scl.NewSimEndpoint(f, 1),
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.srv.Run()
	}()
	t.Cleanup(func() {
		var ack proto.Ack
		if _, err := h.cli.Call(100, &proto.Shutdown{}, &ack, h.doneAt); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		h.wg.Wait()
	})
	return h
}

func (h *harness) fetch(t *testing.T, line layout.LineID, needs []proto.PageNeed) []byte {
	t.Helper()
	var resp proto.FetchLineResp
	at, err := h.cli.Call(100, &proto.FetchLineReq{Line: uint64(line), Needs: needs}, &resp, h.doneAt)
	if err != nil {
		t.Fatalf("fetch line %d: %v", line, err)
	}
	h.doneAt = at
	return resp.Data
}

func (h *harness) post(t *testing.T, m proto.Msg) {
	t.Helper()
	at, err := h.cli.Post(100, m, h.doneAt)
	if err != nil {
		t.Fatalf("post %v: %v", m.Kind(), err)
	}
	h.doneAt = at
}

func TestFetchUntouchedLineIsZero(t *testing.T) {
	geo := layout.DefaultGeometry()
	h := newHarness(t, geo)
	data := h.fetch(t, 3, nil)
	if len(data) != geo.LineSize() {
		t.Fatalf("line size %d, want %d", len(data), geo.LineSize())
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
	if got := h.srv.Stats().Fetches.Load(); got != 1 {
		t.Errorf("Fetches = %d", got)
	}
}

func TestDiffBatchThenFetch(t *testing.T) {
	geo := layout.DefaultGeometry()
	h := newHarness(t, geo)
	h.post(t, &proto.DiffBatch{
		Tag: proto.IntervalTag{Writer: 9, Interval: 1},
		Diffs: []proto.PageDiff{{
			Page: 1,
			Runs: []proto.DiffRun{{Off: 10, Data: []byte{1, 2, 3}}},
		}},
	})
	// Quote the tag so the fetch is ordered after the batch.
	data := h.fetch(t, 0, []proto.PageNeed{{Page: 1, Tags: []proto.IntervalTag{{Writer: 9, Interval: 1}}}})
	off := geo.PageSize + 10 // page 1 is second page of line 0
	if !bytes.Equal(data[off:off+3], []byte{1, 2, 3}) {
		t.Fatalf("diff not applied: %v", data[off:off+3])
	}
}

func TestFetchParksUntilDiffArrives(t *testing.T) {
	geo := layout.DefaultGeometry()
	h := newHarness(t, geo)

	tag := proto.IntervalTag{Writer: 2, Interval: 5}
	fetched := make(chan []byte)
	go func() {
		var resp proto.FetchLineResp
		_, err := h.cli.Call(100, &proto.FetchLineReq{
			Line:  0,
			Needs: []proto.PageNeed{{Page: 0, Tags: []proto.IntervalTag{tag}}},
		}, &resp, 0)
		if err != nil {
			t.Errorf("parked fetch: %v", err)
		}
		fetched <- resp.Data
	}()

	// The fetch cannot complete before the batch is posted. Wait until
	// the server has parked it, then post the batch.
	for h.srv.Stats().ParkedFetches.Load() == 0 {
	}
	select {
	case <-fetched:
		t.Fatal("fetch completed before diff arrived")
	default:
	}
	h.post(t, &proto.DiffBatch{
		Tag:   tag,
		Diffs: []proto.PageDiff{{Page: 0, Runs: []proto.DiffRun{{Off: 0, Data: []byte{42}}}}},
	})
	data := <-fetched
	if data[0] != 42 {
		t.Fatalf("parked fetch returned stale data: %d", data[0])
	}
}

// A fetch parked on a tag whose writer the manager has reaped would
// wait forever: the writer announced its release interval but died
// before shipping the DiffBatch. The manager's WriterDead obituary must
// unpark it (serving the bytes that did arrive) and keep later fetches
// quoting the dead writer's tags from parking at all.
func TestWriterDeadUnparksFetch(t *testing.T) {
	geo := layout.DefaultGeometry()
	h := newHarness(t, geo)

	// An earlier interval of the doomed writer did land...
	applied := proto.IntervalTag{Writer: 3, Interval: 1}
	h.post(t, &proto.DiffBatch{
		Tag:   applied,
		Diffs: []proto.PageDiff{{Page: 0, Runs: []proto.DiffRun{{Off: 0, Data: []byte{7}}}}},
	})
	// ...but the closing interval was only announced; its batch was
	// never shipped.
	lost := proto.IntervalTag{Writer: 3, Interval: 2}

	fetched := make(chan []byte)
	go func() {
		var resp proto.FetchLineResp
		_, err := h.cli.Call(100, &proto.FetchLineReq{
			Line:  0,
			Needs: []proto.PageNeed{{Page: 0, Tags: []proto.IntervalTag{applied, lost}}},
		}, &resp, 0)
		if err != nil {
			t.Errorf("parked fetch: %v", err)
		}
		fetched <- resp.Data
	}()
	for h.srv.Stats().ParkedFetches.Load() == 0 {
	}
	select {
	case <-fetched:
		t.Fatal("fetch completed though the lost tag never arrived")
	default:
	}

	h.post(t, &proto.WriterDead{Writer: 3})
	select {
	case data := <-fetched:
		if data[0] != 7 {
			t.Fatalf("unparked fetch lost the applied interval: %d", data[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch still parked after WriterDead obituary")
	}

	// A later fetch quoting the dead writer's unapplied tag must not
	// park at all.
	data := h.fetch(t, 0, []proto.PageNeed{{Page: 0, Tags: []proto.IntervalTag{lost}}})
	if data[0] != 7 {
		t.Fatalf("post-obituary fetch returned %d, want 7", data[0])
	}
	if got := h.srv.Stats().ParkedFetches.Load(); got != 1 {
		t.Errorf("ParkedFetches = %d, want 1 (the post-obituary fetch must not park)", got)
	}
}

func TestEmptyPagesMarkTagApplied(t *testing.T) {
	geo := layout.DefaultGeometry()
	h := newHarness(t, geo)
	// Evict flush delivers the bytes mid-interval...
	h.post(t, &proto.EvictFlush{
		Writer: 1,
		Diffs:  []proto.PageDiff{{Page: 2, Runs: []proto.DiffRun{{Off: 0, Data: []byte{7}}}}},
	})
	// ...and the release's batch lists the page as already flushed.
	tag := proto.IntervalTag{Writer: 1, Interval: 1}
	h.post(t, &proto.DiffBatch{Tag: tag, EmptyPages: []uint64{2}})
	data := h.fetch(t, 0, []proto.PageNeed{{Page: 2, Tags: []proto.IntervalTag{tag}}})
	if data[2*geo.PageSize] != 7 {
		t.Fatalf("evict-flushed byte missing: %d", data[2*geo.PageSize])
	}
	if got := h.srv.Stats().EvictFlushes.Load(); got != 1 {
		t.Errorf("EvictFlushes = %d", got)
	}
}

func TestRecordsApplied(t *testing.T) {
	geo := layout.DefaultGeometry()
	h := newHarness(t, geo)
	tag := proto.IntervalTag{Writer: 4, Interval: 2}
	h.post(t, &proto.DiffBatch{
		Tag:     tag,
		Records: []proto.StoreRecord{{Addr: uint64(geo.PageSize) + 100, Data: []byte{9, 8}}},
	})
	data := h.fetch(t, 0, []proto.PageNeed{{Page: 1, Tags: []proto.IntervalTag{tag}}})
	off := geo.PageSize + 100
	if !bytes.Equal(data[off:off+2], []byte{9, 8}) {
		t.Fatalf("record not applied: %v", data[off:off+2])
	}
	if got := h.srv.Stats().Records.Load(); got != 1 {
		t.Errorf("Records = %d", got)
	}
}

func TestWrongHomeRejected(t *testing.T) {
	geo := layout.Geometry{PageSize: 4096, LinePages: 4, NumServers: 2, Striped: true}
	h := newHarness(t, geo) // server index 0
	var resp proto.FetchLineResp
	// Line 1 homes on server 1, not 0.
	if _, err := h.cli.Call(100, &proto.FetchLineReq{Line: 1}, &resp, 0); err == nil {
		t.Fatal("fetch of foreign line succeeded")
	}
}

// Shutdown answers every parked fetch with the typed shutdown error, on
// every shard: a single-line fetch and a combined fetch whose pages
// spread over the shards all quote a tag that never lands.
func TestShutdownFailsParkedFetch(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := simnet.NewFabric(testLink)
			srv := New(scl.NewSimEndpoint(f, 100), 0, shardGeo, vtime.DefaultCPU, nil)
			srv.SetShards(shards)
			done := make(chan struct{})
			go func() { srv.Run(); close(done) }()

			never := []proto.IntervalTag{{Writer: 1, Interval: 1}}
			const npages = 8
			var pages []uint64
			var needs []proto.PageNeed
			onShard := make(map[int]bool)
			for p := uint64(0); p < npages; p++ {
				pages = append(pages, p)
				needs = append(needs, proto.PageNeed{Page: p, Tags: never})
				onShard[shardGeo.ShardOf(layout.PageID(p), shards)] = true
			}
			if shards > 1 && len(onShard) < 2 {
				t.Fatalf("%d pages landed on %d shard(s); the test needs several", npages, len(onShard))
			}

			errc := make(chan error, 2)
			go func() {
				var resp proto.FetchLineResp
				_, err := scl.NewSimEndpoint(f, 1).Call(100, &proto.FetchLineReq{Line: 0, Needs: needs[:1]}, &resp, 0)
				errc <- err
			}()
			go func() {
				var resp proto.FetchLinesResp
				_, err := scl.NewSimEndpoint(f, 2).Call(100, &proto.FetchLinesReq{Pages: pages, Needs: needs}, &resp, 0)
				errc <- err
			}()
			for srv.Stats().ParkedFetches.Load() < int64(1+len(onShard)) {
				runtime.Gosched()
			}
			if _, err := scl.NewSimEndpoint(f, 3).Post(100, &proto.Shutdown{}, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := <-errc; err == nil {
					t.Error("parked fetch survived shutdown without error")
				} else if !errors.Is(err, proto.ErrShutdown) {
					t.Errorf("parked fetch error not typed as shutdown: %v", err)
				}
			}
			<-done
		})
	}
}

// A warm standby applies the primary's replicated diff stream but
// refuses fetches with a typed proto.ErrNotPromoted until promoted;
// after promotion it serves the replicated bytes.
func TestStandbyReplicationAndPromotion(t *testing.T) {
	geo := layout.DefaultGeometry()
	f := simnet.NewFabric(testLink)
	live := new(stats.Liveness)
	primary := New(scl.NewSimEndpoint(f, 100), 0, geo, vtime.DefaultCPU, nil)
	primary.SetReplica(101)
	primary.SetLiveness(live)
	standby := New(scl.NewSimEndpoint(f, 101), 0, geo, vtime.DefaultCPU, nil)
	standby.SetStandby(true)
	standby.SetLiveness(live)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); primary.Run() }()
	go func() { defer wg.Done(); standby.Run() }()
	cli := scl.NewSimEndpoint(f, 1)
	defer func() {
		var ack proto.Ack
		for _, node := range []scl.NodeID{100, 101} {
			if _, err := cli.Call(node, &proto.Shutdown{}, &ack, 0); err != nil {
				t.Errorf("shutdown %d: %v", node, err)
			}
		}
		wg.Wait()
	}()

	tag := proto.IntervalTag{Writer: 3, Interval: 1}
	var ack proto.Ack
	// Two-way, so the ack proves the primary applied and forwarded it.
	if _, err := cli.Call(100, &proto.DiffBatch{
		Tag:   tag,
		Diffs: []proto.PageDiff{{Page: 0, Runs: []proto.DiffRun{{Off: 7, Data: []byte{42}}}}},
	}, &ack, 0); err != nil {
		t.Fatal(err)
	}

	var resp proto.FetchLineResp
	if _, err := cli.Call(101, &proto.FetchLineReq{Line: 0}, &resp, 0); err == nil {
		t.Fatal("unpromoted standby served a fetch")
	} else if !errors.Is(err, proto.ErrNotPromoted) {
		t.Fatalf("standby refusal not typed: %v", err)
	}

	if _, err := cli.Call(101, &proto.Promote{}, &ack, 0); err != nil {
		t.Fatalf("promote: %v", err)
	}
	// Quoting the tag parks the fetch until the replicated batch has
	// been applied, so this cannot race the one-way replication stream.
	var after proto.FetchLineResp
	if _, err := cli.Call(101, &proto.FetchLineReq{
		Line:  0,
		Needs: []proto.PageNeed{{Page: 0, Tags: []proto.IntervalTag{tag}}},
	}, &after, 0); err != nil {
		t.Fatalf("promoted fetch: %v", err)
	}
	if after.Data[7] != 42 {
		t.Fatalf("replicated byte missing from promoted standby: %d", after.Data[7])
	}
	if live.ReplBatches.Load() == 0 {
		t.Error("replication counter never moved")
	}
	if live.Promotions.Load() != 1 {
		t.Errorf("Promotions = %d, want 1", live.Promotions.Load())
	}
}

// Property: a random sequence of diff batches leaves the server's pages
// byte-identical to a directly mutated model array.
func TestDiffApplicationMatchesModel(t *testing.T) {
	geo := layout.DefaultGeometry()
	prop := func(seed int64) bool {
		h := newHarness(t, geo)
		rng := rand.New(rand.NewSource(seed))
		model := make([]byte, geo.LineSize()) // line 0
		var tags []proto.IntervalTag
		for i := 0; i < 8; i++ {
			tag := proto.IntervalTag{Writer: uint32(rng.Intn(4)), Interval: uint64(i + 1)}
			tags = append(tags, tag)
			var diffs []proto.PageDiff
			for p := 0; p < geo.LinePages; p++ {
				if rng.Intn(2) == 0 {
					continue
				}
				n := 1 + rng.Intn(64)
				off := rng.Intn(geo.PageSize - n)
				data := make([]byte, n)
				rng.Read(data)
				copy(model[p*geo.PageSize+off:], data)
				diffs = append(diffs, proto.PageDiff{
					Page: uint64(p),
					Runs: []proto.DiffRun{{Off: uint32(off), Data: data}},
				})
			}
			h.post(t, &proto.DiffBatch{Tag: tag, Diffs: diffs})
		}
		needs := make([]proto.PageNeed, geo.LinePages)
		for p := range needs {
			needs[p] = proto.PageNeed{Page: uint64(p), Tags: tags}
		}
		got := h.fetch(t, 0, needs)
		return bytes.Equal(got, model)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// The server's virtual clock must advance past every arrival it
// processes (queueing).
func TestServerClockAdvances(t *testing.T) {
	geo := layout.DefaultGeometry()
	h := newHarness(t, geo)
	h.doneAt = 1_000_000
	_ = h.fetch(t, 0, nil)
	if got := h.srv.Clock(); got < 1_000_000+testLink.Latency {
		t.Fatalf("server clock %v did not pass request arrival", got)
	}
}

// Two fetches parked on one tag wake in the order they parked: the first
// is booked first on the calendar, in every run. The parked fetches used
// to sit in a Go map, and the run, not the input, picked who went first.
func TestParkedFetchesWakeInParkOrder(t *testing.T) {
	tag := proto.IntervalTag{Writer: 2, Interval: 1}
	fetch := &proto.FetchLineReq{Line: 0, Needs: []proto.PageNeed{{Page: 0, Tags: []proto.IntervalTag{tag}}}}
	var first [2]vtime.Time
	for run := 0; run < 40; run++ {
		f := simnet.NewFabric(testLink)
		srv := New(scl.NewSimEndpoint(f, 100), 0, layout.DefaultGeometry(), vtime.DefaultCPU, nil)
		done := make(chan struct{})
		go func() { srv.Run(); close(done) }()
		var got [2]vtime.Time
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var resp proto.FetchLineResp
				at, err := scl.NewSimEndpoint(f, scl.NodeID(i+1)).Call(100, fetch, &resp, 0)
				if err != nil {
					t.Errorf("fetch %d: %v", i, err)
				}
				got[i] = at
			}()
			for srv.Stats().ParkedFetches.Load() <= int64(i) {
				runtime.Gosched()
			}
		}
		ctl := scl.NewSimEndpoint(f, 3)
		if _, err := ctl.Post(100, &proto.DiffBatch{Tag: tag}, 0); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		var ack proto.Ack
		if _, err := ctl.Call(100, &proto.Shutdown{}, &ack, 0); err != nil {
			t.Fatal(err)
		}
		<-done
		if got[0] >= got[1] {
			t.Fatalf("run %d: the first-parked fetch was answered at %d, the second at %d", run, got[0], got[1])
		}
		if run == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d answered at %v, run 0 at %v", run, got, first)
		}
	}
}

// forwardFault is a primary's endpoint whose forwards to the standby fail
// with err, reporting the kind of each forward it failed on tried.
type forwardFault struct {
	scl.Endpoint
	standby scl.NodeID
	err     error
	tried   chan proto.Kind
}

func (e forwardFault) Call(dst scl.NodeID, req, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	if dst == e.standby {
		e.tried <- req.Kind()
		return at, e.err
	}
	return e.Endpoint.Call(dst, req, resp, at)
}

// A mutation whose forward may not have reached the standby is not
// acked, so its sender re-sends it, to the promoted standby if need be
// (ROADMAP item 9b). A forward that failed because the standby is gone
// is no reason to hold the ack back.
func TestNoAckForAForwardTheStandbyMayLack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		err   error
		acked bool
	}{
		{"untyped failure", errors.New("forward lost"), false},
		{"standby gone", fmt.Errorf("forward: %w", proto.ErrPeerDied), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := simnet.NewFabric(testLink)
			ep := scl.NewSimEndpoint(f, 100)
			tried := make(chan proto.Kind, 1)
			srv := New(forwardFault{Endpoint: ep, standby: 101, err: tc.err, tried: tried}, 0, layout.DefaultGeometry(), vtime.DefaultCPU, nil)
			srv.SetReplica(101)
			done := make(chan struct{})
			go func() { srv.Run(); close(done) }()

			page0 := []proto.PageDiff{{Page: 0, Runs: []proto.DiffRun{{Off: 0, Data: []byte{1}}}}}
			reqs := []proto.Msg{
				&proto.DiffBatch{Tag: proto.IntervalTag{Writer: 1, Interval: 1}, Diffs: page0},
				&proto.EvictFlush{Writer: 1, Diffs: page0},
				&proto.SealAS{Snap: 1, NPages: 1},
				&proto.ForkMap{Snap: 1, Base: 1 << 20, NPages: 1},
				&proto.ForkUnmap{Base: 1 << 20, NPages: 1},
			}
			errs := make([]chan error, len(reqs))
			for i, m := range reqs {
				errs[i] = make(chan error, 1)
				go func() {
					_, err := scl.NewSimEndpoint(f, scl.NodeID(i+1)).Call(100, m, &proto.Ack{}, 0)
					errs[i] <- err
				}()
				if k := <-tried; k != m.Kind() {
					t.Fatalf("a %v forwarded a %v", m.Kind(), k)
				}
			}
			var ack proto.Ack
			if _, err := scl.NewSimEndpoint(f, 99).Call(100, &proto.Shutdown{}, &ack, 0); err != nil {
				t.Fatal(err)
			}
			<-done
			ep.Close() // a call the server never answered fails now
			for i, m := range reqs {
				switch err := <-errs[i]; {
				case tc.acked && err != nil:
					t.Errorf("%v: %v", m.Kind(), err)
				case !tc.acked && err == nil:
					t.Errorf("%v acked though its forward failed", m.Kind())
				}
			}
		})
	}
}
