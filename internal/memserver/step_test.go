package memserver

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// A memory server is a state machine: step takes a request and queues
// replies, and its only I/O is s.call. The helpers here drive one without
// a fabric or a goroutine. A request is made with scl.NewRequest; when
// its sender waits, the server's flush answers it through a reply
// function that logs the answer.

// stepEnv is one server, index 0 of effectsGeo's two, with a standby and
// writer 7's cache agent behind a stepWire. log is every reply and every
// call the server made, in order, as "dst kind".
type stepEnv struct {
	t    *testing.T
	srv  *Server
	log  []string
	sent int
}

func newStepEnv(t *testing.T, shards int, forwardErr error) *stepEnv {
	e := &stepEnv{t: t}
	wire := &stepWire{env: e, fail: forwardErr, retained: map[uint64][]proto.DiffRun{12: {{Off: 8, Data: []byte{0x71}}}}}
	e.srv = New(wire, 0, effectsGeo, vtime.DefaultCPU, func(w uint32) scl.NodeID { return 200 + scl.NodeID(w) })
	e.srv.SetShards(shards)
	e.srv.SetTier(0, vtime.ColdNVMe, new(stats.Tier))
	e.srv.SetReplica(effectsStandby)
	return e
}

// send steps one request from node, sent at 400 ns times its place in the
// run, and flushes what it queued. It reports whether the server stopped.
func (e *stepEnv) send(node uint32, kind proto.Kind, body []byte, oneway bool) bool {
	e.sent++
	var reply func(uint16, []byte, vtime.Time)
	if !oneway {
		reply = func(k uint16, _ []byte, _ vtime.Time) {
			e.log = append(e.log, fmt.Sprintf("%d %v", node, proto.Kind(k)))
		}
	}
	req := scl.NewRequest(scl.NodeID(node), kind, body, reply).
		At(testLink.Deliver(vtime.Time(400*e.sent)+testLink.SendOverhead, len(body)+simnet.HeaderBytes), testLink.ServiceTime)
	stop := e.srv.step(&req)
	e.srv.out.Flush()
	return stop
}

func (e *stepEnv) call(node uint32, m proto.Msg) { e.send(node, m.Kind(), proto.Encode(m), false) }
func (e *stepEnv) post(node uint32, m proto.Msg) { e.send(node, m.Kind(), proto.Encode(m), true) }

// stepWire is a stepped server's endpoint. Call answers a pull from
// writer 7's retained diffs and acks a forward to the standby, or fails
// it with fail; it is the only method a transition may use.
type stepWire struct {
	env      *stepEnv
	fail     error
	retained map[uint64][]proto.DiffRun
}

func (w *stepWire) ID() scl.NodeID { return effectsServer }

func (w *stepWire) Call(dst scl.NodeID, req, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	w.env.log = append(w.env.log, fmt.Sprintf("%d %v", dst, req.Kind()))
	pull, ok := req.(*proto.DiffPullReq)
	if !ok {
		return at, w.fail
	}
	if dst != 207 {
		return at, scl.ErrUnreachable
	}
	out := resp.(*proto.DiffPullResp)
	for _, p := range pull.Pages {
		if runs, ok := w.retained[p]; ok {
			out.Diffs = append(out.Diffs, proto.PageDiff{Page: p, Runs: runs})
		}
	}
	return at + 2000, nil
}

func (w *stepWire) Start(scl.NodeID, proto.Msg, vtime.Time, *scl.Pending) {
	panic("a stepped server starts no call")
}
func (w *stepWire) Post(scl.NodeID, proto.Msg, vtime.Time) (vtime.Time, error) {
	panic("a stepped server posts nothing")
}
func (w *stepWire) Recv() (scl.Request, bool) { panic("a stepped server receives nothing") }
func (w *stepWire) Close()                    { panic("a stepped server closes nothing") }

// With two shards pages 0-1 and 8-9 are on shard 0, 4-5 and 36-37 on
// shard 1; with four, pages 0-1 on shard 0, 4-5 on 1, 8-9 on 2, 36-37 on
// 3. Writer 7 retains a diff of page 12 (shard 0 either way).
var (
	stepFour  = []uint64{0, 4, 8, 36} // one page on each of four shards
	stepNeed4 = proto.PageNeed{Page: 4, Tags: []proto.IntervalTag{{Writer: 3, Interval: 1}}}
)

func stepDiffs(pages ...uint64) []proto.PageDiff {
	var out []proto.PageDiff
	for _, p := range pages {
		out = append(out, effectsDiff(p, 0, byte(p)))
	}
	return out
}

// Every request kind, stepped on a server with one shard and with four:
// the replies it queued and the calls it made, in order. Node 1 sends the
// request, node 2 holds a parked fetch when a row parks one.
func TestStepTable(t *testing.T) {
	parkOn4 := func(e *stepEnv) {
		e.call(2, &proto.FetchLineReq{Line: 2, Needs: []proto.PageNeed{stepNeed4}})
	}
	for _, row := range []struct {
		name      string
		setup     func(*stepEnv)
		kind      proto.Kind
		req       proto.Msg // nil: a body the kind cannot decode
		oneway    bool
		one, four []string
	}{
		{name: "fetch line", kind: proto.KFetchLineReq, req: &proto.FetchLineReq{Line: 0},
			one: []string{"1 fetch-line-resp"}, four: []string{"1 fetch-line-resp"}},
		{name: "fetch line that pulls",
			setup: func(e *stepEnv) {
				e.post(1, &proto.DiffBatch{Tag: proto.IntervalTag{Writer: 7, Interval: 1}, OwnedPages: []uint64{12}})
			},
			kind: proto.KFetchLineReq, req: &proto.FetchLineReq{Line: 6},
			one:  []string{"207 diff-pull-req", "101 evict-flush", "1 fetch-line-resp"},
			four: []string{"207 diff-pull-req", "101 evict-flush", "1 fetch-line-resp"}},
		{name: "fetch lines", kind: proto.KFetchLinesReq, req: &proto.FetchLinesReq{Lines: []uint64{0, 2, 4, 18}},
			one: []string{"1 fetch-lines-resp"}, four: []string{"1 fetch-lines-resp"}},
		{name: "empty fetch lines", kind: proto.KFetchLinesReq, req: &proto.FetchLinesReq{},
			one: []string{"1 error"}, four: []string{"1 error"}},
		{name: "acked batch", kind: proto.KDiffBatch, req: &proto.DiffBatch{Tag: proto.IntervalTag{Writer: 3, Interval: 1}, Diffs: stepDiffs(stepFour...)},
			one:  []string{"101 diff-batch", "1 ack"},
			four: []string{"101 diff-batch", "101 diff-batch", "101 diff-batch", "101 diff-batch", "1 ack"}},
		{name: "one-way batch waking a fetch", setup: parkOn4, oneway: true,
			kind: proto.KDiffBatch, req: &proto.DiffBatch{Tag: proto.IntervalTag{Writer: 3, Interval: 1}, Diffs: stepDiffs(0, 4)},
			one:  []string{"2 fetch-line-resp", "101 diff-batch"},
			four: []string{"101 diff-batch", "2 fetch-line-resp", "101 diff-batch"}},
		{name: "empty one-way batch", kind: proto.KDiffBatch, req: &proto.DiffBatch{Tag: proto.IntervalTag{Writer: 3, Interval: 1}}, oneway: true,
			one: []string{"101 diff-batch"}, four: []string{"101 diff-batch"}},
		{name: "acked evict flush", kind: proto.KEvictFlush, req: &proto.EvictFlush{Writer: 3, Diffs: stepDiffs(0, 36)},
			one:  []string{"101 evict-flush", "1 ack"},
			four: []string{"101 evict-flush", "101 evict-flush", "1 ack"}},
		{name: "ping", kind: proto.KPing, req: &proto.Ping{},
			one: []string{"1 ack"}, four: []string{"1 ack"}},
		{name: "seal",
			setup: func(e *stepEnv) {
				e.post(1, &proto.DiffBatch{Tag: proto.IntervalTag{Writer: 3, Interval: 1}, Diffs: stepDiffs(0, 4)})
			},
			kind: proto.KSealAS, req: &proto.SealAS{Snap: 1, NPages: 6},
			one:  []string{"101 seal-as", "1 ack"},
			four: []string{"101 seal-as", "101 seal-as", "1 ack"}},
		{name: "seal of nothing", kind: proto.KSealAS, req: &proto.SealAS{Snap: 1, Base: effectsAddr(2), NPages: 2},
			one: []string{"1 ack"}, four: []string{"1 ack"}},
		{name: "fork map", kind: proto.KForkMap, req: &proto.ForkMap{Snap: 1, Base: effectsAddr(40), NPages: 4},
			one: []string{"101 fork-map", "1 ack"}, four: []string{"101 fork-map", "1 ack"}},
		{name: "fork unmap", kind: proto.KForkUnmap, req: &proto.ForkUnmap{Base: effectsAddr(40), NPages: 4, Release: []uint64{1}},
			one: []string{"101 fork-unmap", "1 ack"}, four: []string{"101 fork-unmap", "1 ack"}},
		{name: "writer dead", setup: parkOn4, oneway: true, kind: proto.KWriterDead, req: &proto.WriterDead{Writer: 3},
			one: []string{"2 fetch-line-resp"}, four: []string{"2 fetch-line-resp"}},
		{name: "promote", kind: proto.KPromote, req: &proto.Promote{},
			one: []string{"1 ack"}, four: []string{"1 ack"}},
		{name: "shutdown", setup: parkOn4, kind: proto.KShutdown, req: &proto.Shutdown{},
			one: []string{"1 ack", "2 error"}, four: []string{"1 ack", "2 error"}},
		{name: "unknown kind", kind: proto.Kind(0x7fff),
			one: []string{"1 error"}, four: []string{"1 error"}},
		{name: "undecodable fetch", kind: proto.KFetchLineReq,
			one: []string{"1 error"}, four: []string{"1 error"}},
	} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", row.name, shards), func(t *testing.T) {
				e := newStepEnv(t, shards, nil)
				if row.setup != nil {
					row.setup(e)
				}
				e.log = nil
				body := []byte{0x80}
				if row.req != nil {
					body = proto.Encode(row.req)
				}
				stop := e.send(1, row.kind, body, row.oneway)
				want := row.one
				if shards == 4 {
					want = row.four
				}
				if !slices.Equal(e.log, want) {
					t.Errorf("sent %q, want %q", e.log, want)
				}
				if stop != (row.kind == proto.KShutdown) {
					t.Errorf("step reported stop = %v", stop)
				}
			})
		}
	}
}

// The forward rule, fabric-free: a request whose forward failed for any
// reason but the standby being gone is not answered, whichever shard made
// the forward and whether it forwarded a mutation, a seal, a fork or a
// pull's bytes.
func TestStepForwardAckRule(t *testing.T) {
	lost, gone := errors.New("forward lost"), fmt.Errorf("forward: %w", proto.ErrPeerDied)
	claim := &proto.DiffBatch{Tag: proto.IntervalTag{Writer: 7, Interval: 1}, OwnedPages: []uint64{12}}
	reqs := []proto.Msg{
		&proto.DiffBatch{Tag: proto.IntervalTag{Writer: 3, Interval: 1}, Diffs: stepDiffs(stepFour...)},
		&proto.EvictFlush{Writer: 3, Diffs: stepDiffs(stepFour...)},
		&proto.SealAS{Snap: 1, NPages: 6},
		&proto.ForkMap{Snap: 1, Base: effectsAddr(40), NPages: 4},
		&proto.ForkUnmap{Base: effectsAddr(40), NPages: 4},
		&proto.FetchLinesReq{Lines: []uint64{6, 2}},
	}
	for _, shards := range []int{1, 4} {
		for _, err := range []error{lost, gone} {
			e := newStepEnv(t, shards, err)
			e.post(1, claim)
			e.post(1, &proto.DiffBatch{Tag: proto.IntervalTag{Writer: 3, Interval: 1}, Diffs: stepDiffs(0, 4)})
			for _, m := range reqs {
				e.log = nil
				e.call(1, m)
				answered := len(e.log) > 0 && strings.HasPrefix(e.log[len(e.log)-1], "1 ")
				if answered != (err == gone) {
					t.Errorf("shards=%d, forward failing with %q: %v sent %q", shards, err, m.Kind(), e.log)
				}
			}
		}
	}
}
