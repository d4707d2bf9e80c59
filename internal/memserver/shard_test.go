package memserver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

// shardGeo is a single-page-line geometry so every page is its own
// cache line and the shard mapping is exercised page by page.
var shardGeo = layout.Geometry{
	PageSize:   layout.DefaultPageSize,
	LinePages:  1,
	NumServers: 1,
	Striped:    true,
}

// newShardedHarness boots one server with the given shard count on an
// unsequenced fabric (so its clients run concurrently in real time
// against the server's one goroutine) and returns a client-endpoint
// factory.
func newShardedHarness(t *testing.T, geo layout.Geometry, shards int) (*Server, func(node scl.NodeID) scl.Endpoint) {
	t.Helper()
	f := simnet.NewFabric(testLink)
	srvEP := scl.NewSimEndpoint(f, 100)
	srv := New(srvEP, 0, geo, vtime.DefaultCPU, nil)
	srv.SetShards(shards)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Run()
	}()
	ctl := scl.NewSimEndpoint(f, 99)
	t.Cleanup(func() {
		var ack proto.Ack
		if _, err := ctl.Call(100, &proto.Shutdown{}, &ack, 1<<40); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		wg.Wait()
	})
	return srv, func(node scl.NodeID) scl.Endpoint { return scl.NewSimEndpoint(f, node) }
}

// pageVal builds a full-page diff whose first 8 bytes encode val.
func pageVal(page layout.PageID, val uint64) proto.PageDiff {
	data := make([]byte, 8)
	binary.LittleEndian.PutUint64(data, val)
	return proto.PageDiff{Page: uint64(page), Runs: []proto.DiffRun{{Off: 0, Data: data}}}
}

// TestShardedConcurrentDisjointTraffic is the -race hammer: several
// writers, each on its own client endpoint, pound one 4-shard server
// with DiffBatch posts against disjoint page sets while fetching their
// pages back with quoted interval tags. Per-page tag ordering must
// hold: a fetch quoting tag (w, i) must observe interval i's bytes even
// when the fetch overtakes the one-way batch and has to park. A
// concurrent reader issues combined multi-page fetches spanning every
// writer's pages to stress the split/join path at the same time.
func TestShardedConcurrentDisjointTraffic(t *testing.T) {
	const (
		writers   = 4
		intervals = 50
		pagesPer  = 3
	)
	srv, dial := newShardedHarness(t, shardGeo, 4)

	pagesOf := func(w int) []layout.PageID {
		ps := make([]layout.PageID, pagesPer)
		for k := range ps {
			ps[k] = layout.PageID((w-1)*pagesPer + k)
		}
		return ps
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ep := dial(scl.NodeID(w))
			var at vtime.Time
			for i := uint64(1); i <= intervals; i++ {
				tag := proto.IntervalTag{Writer: uint32(w), Interval: i}
				db := &proto.DiffBatch{Tag: tag}
				for _, p := range pagesOf(w) {
					db.Diffs = append(db.Diffs, pageVal(p, uint64(i)))
				}
				var err error
				if at, err = ep.Post(100, db, at); err != nil {
					errs <- fmt.Errorf("writer %d post %d: %w", w, i, err)
					return
				}
				for _, p := range pagesOf(w) {
					var resp proto.FetchLineResp
					at2, err := ep.Call(100, &proto.FetchLineReq{
						Line:  uint64(p),
						Needs: []proto.PageNeed{{Page: uint64(p), Tags: []proto.IntervalTag{tag}}},
					}, &resp, at)
					if err != nil {
						errs <- fmt.Errorf("writer %d fetch page %d interval %d: %w", w, p, i, err)
						return
					}
					at = at2
					if got := binary.LittleEndian.Uint64(resp.Data); got != uint64(i) {
						errs <- fmt.Errorf("writer %d page %d: fetched value %d after applying interval %d", w, p, got, i)
						return
					}
				}
			}
		}(w)
	}
	// Reader: combined fetches across all writers' pages, with no tag
	// quotes — any snapshot is legal, the fetch just must not fail or
	// tear the reply tiling (each page's value must be one the owner
	// actually wrote: 0..intervals).
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep := dial(50)
		var at vtime.Time
		for r := 0; r < 2*intervals; r++ {
			var pages []uint64
			for w := 1; w <= writers; w++ {
				for _, p := range pagesOf(w) {
					pages = append(pages, uint64(p))
				}
			}
			var resp proto.FetchLinesResp
			at2, err := ep.Call(100, &proto.FetchLinesReq{Pages: pages}, &resp, at)
			if err != nil {
				errs <- fmt.Errorf("reader round %d: %w", r, err)
				return
			}
			at = at2
			if want := len(pages) * shardGeo.PageSize; len(resp.Data) != want {
				errs <- fmt.Errorf("reader round %d: reply %d bytes, want %d", r, len(resp.Data), want)
				return
			}
			for k := range pages {
				v := binary.LittleEndian.Uint64(resp.Data[k*shardGeo.PageSize:])
				if v > intervals {
					errs <- fmt.Errorf("reader round %d: page %d holds %d, beyond last interval %d", r, pages[k], v, intervals)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.Stats()
	if got := st.DiffBatches.Load(); got != writers*intervals {
		t.Errorf("DiffBatches = %d, want %d", got, writers*intervals)
	}
	if st.SplitFetches.Load() == 0 {
		t.Errorf("no combined fetch was split across shards (SplitFetches = 0)")
	}
}

// TestSplitFetchAssemblesSegments checks the dispatcher's split/join
// byte plumbing: after one batch writes distinct patterns to pages that
// map to different shards, a combined fetch spanning lines and pages
// must return the segments tiled exactly in request order.
func TestSplitFetchAssemblesSegments(t *testing.T) {
	srv, dial := newShardedHarness(t, shardGeo, 4)
	ep := dial(1)

	const npages = 8
	tag := proto.IntervalTag{Writer: 7, Interval: 1}
	db := &proto.DiffBatch{Tag: tag}
	for p := 0; p < npages; p++ {
		data := bytes.Repeat([]byte{byte(p + 1)}, shardGeo.PageSize)
		db.Diffs = append(db.Diffs, proto.PageDiff{Page: uint64(p), Runs: []proto.DiffRun{{Off: 0, Data: data}}})
	}
	at, err := ep.Post(100, db, 0)
	if err != nil {
		t.Fatalf("post batch: %v", err)
	}

	// Lines [0 1] then pages [2..7], every page gated on the batch's tag.
	req := &proto.FetchLinesReq{Lines: []uint64{0, 1}}
	var needs []proto.PageNeed
	for p := 0; p < npages; p++ {
		if p >= 2 {
			req.Pages = append(req.Pages, uint64(p))
		}
		needs = append(needs, proto.PageNeed{Page: uint64(p), Tags: []proto.IntervalTag{tag}})
	}
	req.Needs = needs
	var resp proto.FetchLinesResp
	if _, err := ep.Call(100, req, &resp, at); err != nil {
		t.Fatalf("combined fetch: %v", err)
	}
	if want := npages * shardGeo.PageSize; len(resp.Data) != want {
		t.Fatalf("reply %d bytes, want %d", len(resp.Data), want)
	}
	for p := 0; p < npages; p++ {
		seg := resp.Data[p*shardGeo.PageSize : (p+1)*shardGeo.PageSize]
		for i, b := range seg {
			if b != byte(p+1) {
				t.Fatalf("segment %d byte %d = %#x, want %#x", p, i, b, byte(p+1))
			}
		}
	}

	st := srv.Stats()
	if st.SplitFetches.Load() != 1 {
		t.Errorf("SplitFetches = %d, want 1", st.SplitFetches.Load())
	}
	if st.SplitBatches.Load() != 1 {
		t.Errorf("SplitBatches = %d, want 1 (the %d-page batch spans shards)", st.SplitBatches.Load(), npages)
	}
}

// TestParallelApplyMatchesSerial checks that a batch big enough for the
// bounded parallel copy pool (>= 4 pages, >= 16 KiB) lands the same
// bytes as the serial path and is counted.
func TestParallelApplyMatchesSerial(t *testing.T) {
	srv, dial := newShardedHarness(t, shardGeo, 1)
	ep := dial(1)

	const npages = 6
	tag := proto.IntervalTag{Writer: 3, Interval: 1}
	db := &proto.DiffBatch{Tag: tag}
	for p := 0; p < npages; p++ {
		data := bytes.Repeat([]byte{byte(0xA0 + p)}, shardGeo.PageSize)
		db.Diffs = append(db.Diffs, proto.PageDiff{Page: uint64(p), Runs: []proto.DiffRun{{Off: 0, Data: data}}})
	}
	at, err := ep.Post(100, db, 0)
	if err != nil {
		t.Fatalf("post batch: %v", err)
	}
	for p := 0; p < npages; p++ {
		var resp proto.FetchLineResp
		at2, err := ep.Call(100, &proto.FetchLineReq{
			Line:  uint64(p),
			Needs: []proto.PageNeed{{Page: uint64(p), Tags: []proto.IntervalTag{tag}}},
		}, &resp, at)
		if err != nil {
			t.Fatalf("fetch page %d: %v", p, err)
		}
		at = at2
		for i, b := range resp.Data {
			if b != byte(0xA0+p) {
				t.Fatalf("page %d byte %d = %#x, want %#x", p, i, b, byte(0xA0+p))
			}
		}
	}
	if got := srv.Stats().ParallelApplies.Load(); got != 1 {
		t.Errorf("ParallelApplies = %d, want 1", got)
	}
}
