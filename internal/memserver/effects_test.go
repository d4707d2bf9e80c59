package memserver

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite testdata/effects.golden")

// testdata/effects.golden pins everything a memory server sends over a
// scripted run of every request kind: each reply, each diff pull and
// each forward to the standby as "dst kind at hex(body)", grouped by
// destination node in the order that node was sent them. The file was
// written by the server as it stood before its transitions queued their
// replies.
//
// The server is index 0 of two, with two shards and a two-page hot
// budget. Pages are 64 bytes, lines two pages: shard 0 homes lines 0,
// 4, 6, 8 (pages 0-1, 8-9, 12-13, 16-17), shard 1 lines 2, 18, 20, 22
// (pages 4-5, 36-37, 40-41, 44-45). Writers 7 and 8 have cache agents
// (nodes 207 and 208) that answer pulls; writer 66 has none.

const effectsGoldenPath = "testdata/effects.golden"

var effectsGeo = layout.Geometry{PageSize: 64, LinePages: 2, NumServers: 2, Striped: true}

const (
	effectsServer  scl.NodeID = 100
	effectsStandby scl.NodeID = 101
)

// effectLine is one recorded send.
type effectLine struct {
	dst  uint32
	kind proto.Kind
	at   vtime.Time
	body []byte
}

// formatEffects renders the recorded sends, one line each, grouped by
// destination in ascending node order. Within a group the order is the
// slice's.
func formatEffects(lines []effectLine) string {
	slices.SortStableFunc(lines, func(a, b effectLine) int { return int(a.dst) - int(b.dst) })
	var sb strings.Builder
	for _, l := range lines {
		body := "-"
		if len(l.body) > 0 {
			body = hex.EncodeToString(l.body)
		}
		fmt.Fprintf(&sb, "%d %v %d %s\n", l.dst, l.kind, l.at, body)
	}
	return sb.String()
}

// replyLink carries answers back to clients. Its latency dwarfs every
// send time of the script, so a caller's Call returns the answer's
// arrival, never its own send time, and the answer's send time can be
// recovered from it.
var replyLink = vtime.LinkModel{Name: "reply", Latency: 1 << 40, BytesPerSec: 1e9, SendOverhead: 50}

// effectsRig is a server on an unsequenced fabric driven by one script
// goroutine: its requests queue at the server in the order it sends
// them, and a request that must park is sent from a goroutine of its
// own, the script waiting until the server has parked it.
type effectsRig struct {
	t     *testing.T
	fab   *simnet.Fabric
	srv   *Server
	ports map[uint32]*simnet.Port
	sent  int
	parks int64

	mu      sync.Mutex
	lines   []effectLine // every send: answers where callers got them, calls where the server made them
	waiters sync.WaitGroup
	done    chan struct{}
}

// tapEndpoint records the calls the server makes (pulls and forwards)
// where it makes them.
type tapEndpoint struct {
	scl.Endpoint
	r *effectsRig
}

func (e tapEndpoint) Call(dst scl.NodeID, req, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	e.r.record(effectLine{dst: uint32(dst), kind: req.Kind(), at: at, body: proto.Encode(req)})
	return e.Endpoint.Call(dst, req, resp, at)
}

func (r *effectsRig) record(l effectLine) {
	r.mu.Lock()
	r.lines = append(r.lines, l)
	r.mu.Unlock()
}

func newEffectsRig(t *testing.T) *effectsRig {
	r := &effectsRig{t: t, fab: simnet.NewFabric(testLink), ports: make(map[uint32]*simnet.Port), done: make(chan struct{})}
	r.fab.SetLinkFn(func(src, dst simnet.NodeID) vtime.LinkModel {
		if src == simnet.NodeID(effectsServer) && dst < simnet.NodeID(effectsServer) {
			return replyLink
		}
		return testLink
	})
	// The standby acks every forward; the agents answer pulls from their
	// retained diffs, handing each page's over once.
	standby := scl.NewSimEndpoint(r.fab, effectsStandby)
	go func() {
		for req, ok := standby.Recv(); ok; req, ok = standby.Recv() {
			req.Reply(&proto.Ack{}, req.Arrive())
		}
	}()
	retained := map[uint32]map[uint64][]proto.DiffRun{
		7: {12: {{Off: 8, Data: []byte{0x71, 0x72}}}},
		8: {12: {{Off: 24, Data: []byte{0x81}}}, 16: {{Off: 0, Data: []byte{0x82, 0x83, 0x84}}}},
	}
	var agents []scl.Endpoint
	for w, diffs := range retained {
		a := &fakeAgent{ep: scl.NewSimEndpoint(r.fab, 200+simnet.NodeID(w)), diffs: diffs}
		agents = append(agents, a.ep)
		go runFakeAgent(a)
	}
	t.Cleanup(func() {
		standby.Close()
		for _, a := range agents {
			a.Close()
		}
	})
	ep := tapEndpoint{Endpoint: scl.NewSimEndpoint(r.fab, effectsServer), r: r}
	r.srv = New(ep, 0, effectsGeo, vtime.DefaultCPU, func(w uint32) scl.NodeID { return 200 + scl.NodeID(w) })
	r.srv.SetShards(2)
	r.srv.SetTier(2*int64(effectsGeo.PageSize), vtime.ColdNVMe, new(stats.Tier))
	r.srv.SetReplica(effectsStandby)
	r.srv.SetLiveness(new(stats.Liveness))
	go func() {
		defer close(r.done)
		r.srv.Run()
	}()
	return r
}

// port returns node's port, sending the script's next request: it leaves
// at 400 ns times its place in the script.
func (r *effectsRig) next(node uint32) (*simnet.Port, vtime.Time) {
	port := r.ports[node]
	if port == nil {
		port = r.fab.NewPort(simnet.NodeID(node))
		r.ports[node] = port
	}
	r.sent++
	return port, vtime.Time(400 * r.sent)
}

// answer makes a call and records its answer at the time it was sent.
func (r *effectsRig) answer(port *simnet.Port, kind proto.Kind, body []byte, at vtime.Time) {
	respKind, resp, doneAt, err := port.Call(simnet.NodeID(effectsServer), uint16(kind), body, at)
	if err != nil {
		r.t.Errorf("call from node %d at %d: %v", port.ID(), at, err)
		return
	}
	sentAt := doneAt - replyLink.Deliver(replyLink.SendOverhead, len(resp)+simnet.HeaderBytes)
	r.record(effectLine{dst: uint32(port.ID()), kind: proto.Kind(respKind), at: sentAt, body: resp})
}

// send delivers one request from node: a call waits for its answer, a
// one-way returns at once.
func (r *effectsRig) send(node uint32, kind proto.Kind, body []byte, oneway bool) {
	r.t.Helper()
	port, at := r.next(node)
	if !oneway {
		r.answer(port, kind, body, at)
		return
	}
	if _, err := port.Post(simnet.NodeID(effectsServer), uint16(kind), body, at); err != nil {
		r.t.Fatalf("post from node %d at %d: %v", node, at, err)
	}
}

func (r *effectsRig) call(node uint32, m proto.Msg) { r.send(node, m.Kind(), proto.Encode(m), false) }
func (r *effectsRig) post(node uint32, m proto.Msg) { r.send(node, m.Kind(), proto.Encode(m), true) }

// park makes a call the server parks in halves shard halves, from a
// goroutine of its own, and returns once the server has parked them.
func (r *effectsRig) park(node uint32, m proto.Msg, halves int64) {
	port, at := r.next(node)
	body := proto.Encode(m)
	r.waiters.Add(1)
	go func() {
		defer r.waiters.Done()
		r.answer(port, m.Kind(), body, at)
	}()
	r.parks += halves
	for r.srv.Stats().ParkedFetches.Load() < r.parks {
		runtime.Gosched()
	}
}

func effectsDiff(page uint64, off uint32, data ...byte) proto.PageDiff {
	return proto.PageDiff{Page: page, Runs: []proto.DiffRun{{Off: off, Data: data}}}
}

func effectsNeed(page uint64, writer uint32, interval uint64) proto.PageNeed {
	return proto.PageNeed{Page: page, Tags: []proto.IntervalTag{{Writer: writer, Interval: interval}}}
}

func effectsAddr(page uint64) uint64 { return page * uint64(effectsGeo.PageSize) }

// runEffectsScript is the run. Node 1 makes every call that is answered
// at once; each parked call has a node of its own. No two fetches wait
// for one tag: the order such fetches wake in was not the server's to
// fix when this file was written.
func runEffectsScript(r *effectsRig) {
	tag := func(w uint32, i uint64) proto.IntervalTag { return proto.IntervalTag{Writer: w, Interval: i} }

	// Fetches of untouched memory: one line, then lines and pages of both
	// shards.
	r.call(1, &proto.FetchLineReq{Line: 0})
	r.call(1, &proto.FetchLinesReq{Lines: []uint64{0, 2}, Pages: []uint64{8, 37}})

	// Batches: one-way and acked, on one shard and split across both.
	r.post(1, &proto.DiffBatch{Tag: tag(7, 1), Diffs: []proto.PageDiff{effectsDiff(0, 0, 1, 2, 3), effectsDiff(1, 16, 4)}})
	r.post(1, &proto.DiffBatch{
		Tag:     tag(8, 1),
		Diffs:   []proto.PageDiff{effectsDiff(4, 0, 5, 6), effectsDiff(8, 8, 7)},
		Records: []proto.StoreRecord{{Addr: effectsAddr(5) + 3, Data: []byte{9, 9}}},
	})
	r.call(1, &proto.DiffBatch{
		Tag:     tag(7, 2),
		Diffs:   []proto.PageDiff{effectsDiff(4, 32, 0xa1)},
		Records: []proto.StoreRecord{{Addr: effectsAddr(4) + 48, Data: []byte{0xa2}}},
	})
	r.call(1, &proto.DiffBatch{
		Tag:        tag(8, 2),
		Diffs:      []proto.PageDiff{effectsDiff(0, 56, 0xb1), effectsDiff(36, 0, 0xb2, 0xb3)},
		EmptyPages: []uint64{9, 37},
	})
	r.call(1, &proto.FetchLinesReq{
		Lines: []uint64{0, 2}, Pages: []uint64{8, 37},
		Needs: []proto.PageNeed{effectsNeed(0, 7, 1), effectsNeed(4, 8, 1), effectsNeed(36, 8, 2)},
	})

	// A fetch parked on a tag, woken by its batch; a combined fetch with
	// one shard's half parked, woken by a split batch.
	r.park(2, &proto.FetchLineReq{Line: 2, Needs: []proto.PageNeed{effectsNeed(4, 7, 3)}}, 1)
	r.post(1, &proto.DiffBatch{Tag: tag(7, 3), Diffs: []proto.PageDiff{effectsDiff(4, 8, 0xc1)}})
	r.park(3, &proto.FetchLinesReq{Lines: []uint64{0, 18}, Needs: []proto.PageNeed{effectsNeed(36, 8, 3)}}, 1)
	r.post(1, &proto.DiffBatch{Tag: tag(8, 3), Diffs: []proto.PageDiff{effectsDiff(36, 8, 0xc2), effectsDiff(1, 0, 0xc3)}})

	// Lazy ownership: writer 7 claims page 12, writer 8's claim pulls it
	// over, a record on the page pulls writer 8's bytes, and a fetch of a
	// page writer 8 claimed pulls; a page owned by writer 66, whose agent
	// is gone, fails its fetch.
	r.post(1, &proto.DiffBatch{Tag: tag(7, 4), OwnedPages: []uint64{12}})
	r.post(1, &proto.DiffBatch{Tag: tag(8, 4), OwnedPages: []uint64{12, 16}})
	r.post(1, &proto.DiffBatch{Tag: tag(7, 5), Records: []proto.StoreRecord{{Addr: effectsAddr(12) + 32, Data: []byte{0xd1}}}})
	r.call(1, &proto.FetchLineReq{Line: 8, Needs: []proto.PageNeed{effectsNeed(16, 8, 4)}})
	r.call(1, &proto.FetchLineReq{Line: 6})
	r.post(1, &proto.DiffBatch{Tag: tag(66, 1), OwnedPages: []uint64{44}})
	r.call(1, &proto.FetchLinesReq{Lines: []uint64{22, 0}})

	// Evictions: split and acked, then on one shard and one-way.
	r.call(1, &proto.EvictFlush{Writer: 9, Diffs: []proto.PageDiff{effectsDiff(1, 40, 0xe1), effectsDiff(5, 0, 0xe2)}})
	r.post(1, &proto.EvictFlush{Writer: 9, Diffs: []proto.PageDiff{effectsDiff(37, 8, 0xe3)}})

	// Snapshots: a seal on one shard, a split seal quoting a tag, a fork
	// of the second (pages 40-43 image 0-3), a read and a write of the
	// fork, and its unmap.
	r.call(1, &proto.SealAS{Snap: 1, Base: effectsAddr(0), NPages: 2})
	r.call(1, &proto.SealAS{Snap: 2, Base: effectsAddr(0), NPages: 6, Needs: []proto.PageNeed{effectsNeed(4, 7, 3)}})
	r.call(1, &proto.ForkMap{Snap: 2, Base: effectsAddr(40), OrigBase: effectsAddr(0), NPages: 4})
	r.call(1, &proto.FetchLineReq{Line: 20})
	r.post(1, &proto.DiffBatch{Tag: tag(7, 6), Diffs: []proto.PageDiff{effectsDiff(41, 0, 0xf1)}})
	r.call(1, &proto.FetchLinesReq{Lines: []uint64{20}, Pages: []uint64{8}, Needs: []proto.PageNeed{effectsNeed(41, 7, 6)}})
	r.call(1, &proto.ForkUnmap{Base: effectsAddr(40), NPages: 4, Release: []uint64{2}})

	// A writer's obituary wakes the fetch parked on its lost interval; a
	// repeated generation is a no-op.
	r.park(4, &proto.FetchLineReq{Line: 6, Needs: []proto.PageNeed{effectsNeed(12, 9, 9), effectsNeed(13, 7, 4)}}, 1)
	r.post(1, &proto.WriterDead{Writer: 9, Gen: 1})
	r.post(1, &proto.WriterDead{Writer: 9, Gen: 1})

	// Control and malformed requests.
	r.call(1, &proto.Ping{})
	r.call(1, &proto.Promote{})
	r.send(1, proto.Kind(0x7fff), nil, false)
	r.send(1, proto.KFetchLineReq, []byte{0x80}, false)
	r.call(1, &proto.FetchLineReq{Line: 1})
	r.call(1, &proto.FetchLinesReq{})

	// Shutdown with a fetch parked on one shard and a combined fetch
	// parked on both.
	r.park(5, &proto.FetchLineReq{Line: 4, Needs: []proto.PageNeed{effectsNeed(8, 7, 98)}}, 1)
	r.park(6, &proto.FetchLinesReq{Pages: []uint64{9, 37}, Needs: []proto.PageNeed{effectsNeed(9, 7, 99), effectsNeed(37, 7, 99)}}, 2)
	r.call(1, &proto.Shutdown{})
}

func TestEffectsGolden(t *testing.T) {
	r := newEffectsRig(t)
	runEffectsScript(r)
	<-r.done
	r.waiters.Wait()
	for _, p := range r.ports {
		p.Close()
	}
	got := formatEffects(r.lines)

	if *update {
		if err := os.WriteFile(effectsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(effectsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("the server's sends differ from %s:\n%s", effectsGoldenPath, diffLines(string(want), got))
	}
}

// diffLines reports the first line at which two texts differ.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, gl, wl)
		}
	}
	return "no difference"
}
