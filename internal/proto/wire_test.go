package proto

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/wire.golden from the current encoder")

const goldenPath = "testdata/wire.golden"

// wireSample is one populated message whose encoding is pinned in
// testdata/wire.golden. name is the kind's name, plus "/variant" where a
// kind has several samples (each optional tail set and unset).
type wireSample struct {
	name string
	msg  Msg
}

// wireSamples covers every kind, and both forms of every trailing group
// that is omitted when zero. Values are chosen to need one-, two- and
// ten-byte varints.
func wireSamples() []wireSample {
	notice := Notice{
		Seq: 78, Tag: IntervalTag{Writer: 1, Interval: 2},
		Pages:   []uint64{10, 11, PackSpanExtent(16, 8)},
		Records: []StoreRecord{{Addr: 40960, Data: []byte{1, 2, 3, 4}}},
	}
	needs := []PageNeed{
		{Page: 28, Tags: []IntervalTag{{Writer: 1, Interval: 3}, {Writer: 300, Interval: 1 << 40}}},
		{Page: 29, Tags: nil},
	}
	diffs := []PageDiff{
		{Page: 3, Runs: []DiffRun{{Off: 0, Data: []byte{9}}, {Off: 4000, Data: []byte{1, 2}}}},
		{Page: 1 << 35, Runs: nil},
	}
	records := []StoreRecord{{Addr: 4096, Data: []byte{8, 7, 6, 5, 4, 3, 2, 1}}, {Addr: 1 << 34, Data: nil}}
	var announced, forwarded TrainWriter
	announced.Add(7, 107, 1)
	announced.Add(9, 109, 0)
	forwarded.Add(10, 110, 1)
	forwarded.Add(11, 111, 0)
	return []wireSample{
		{"fetch-line-req", &FetchLineReq{Line: 7, Needs: needs}},
		{"fetch-line-resp", &FetchLineResp{Data: []byte{1, 2, 3, 0, 255}}},
		{"diff-batch", &DiffBatch{
			Tag: IntervalTag{Writer: 5, Interval: 11}, Diffs: diffs, Records: records,
			EmptyPages: []uint64{77, 78}, OwnedPages: []uint64{90, 1 << 33},
		}},
		{"diff-batch/empty", &DiffBatch{Tag: IntervalTag{Writer: 1 << 31, Interval: 1<<64 - 1}}},
		{"evict-flush", &EvictFlush{Writer: 3, Diffs: diffs[:1]}},
		{"diff-pull-req", &DiffPullReq{Pages: []uint64{1, 200, 3}}},
		{"diff-pull-resp", &DiffPullResp{Diffs: diffs}},
		{"alloc-req", &AllocReq{Thread: 2, Size: 1 << 20, Align: 64, Strategy: AllocStriped, Seq: 9}},
		{"alloc-resp", &AllocResp{Addr: 1 << 33}},
		{"free-req", &FreeReq{Thread: 1, Addr: 12345}},
		{"free-req/unmapped", &FreeReq{Thread: 1, Addr: 12345, Seq: 7, Unmapped: true}},
		{"register-req", &RegisterReq{Thread: 6, Node: 2}},
		{"lock-req", &LockReq{Lock: 9, Thread: 4, LastSeen: 77}},
		{"lock-resp", &LockResp{Seq: 80, Notices: []Notice{notice, {Seq: 79}}}},
		{"lock-resp/gen", &LockResp{Seq: 80, Notices: []Notice{notice}, Gen: 3}},
		{"lock-resp/queued", &LockResp{Seq: 80, Queued: true}},
		{"unlock-req", &UnlockReq{Lock: 9, Thread: 4, Interval: 6, Pages: []uint64{1, 2, 3}, Records: records}},
		{"unlock-req/handed-off", &UnlockReq{Lock: 9, Thread: 4, Interval: 6, Pages: []uint64{1}, Records: records[:1], HandedOff: 12}},
		{"barrier-req", &BarrierReq{Barrier: 1, Count: 16, Thread: 0, LastSeen: 5, Interval: 2, Pages: []uint64{9}, Records: records}},
		{"barrier-req/epoch", &BarrierReq{Barrier: 1, Count: 256, Thread: 255, LastSeen: 5, Interval: 2, Epoch: 4}},
		{"barrier-resp", &BarrierResp{Seq: 10, Notices: []Notice{notice}}},
		{"barrier-resp/empty", &BarrierResp{Seq: 10}},
		{"cond-wait-req", &CondWaitReq{Cond: 2, Lock: 3, Thread: 1, LastSeen: 4, Interval: 5, Pages: []uint64{6}, Records: records[:1]}},
		{"cond-wait-resp", &CondWaitResp{Seq: 42, Notices: []Notice{notice}}},
		{"cond-signal-req", &CondSignalReq{Cond: 2, Thread: 7}},
		{"cond-signal-req/broadcast", &CondSignalReq{Cond: 2, Thread: 7, Broadcast: true}},
		{"ack", &Ack{}},
		{"ping", &Ping{}},
		{"shutdown", &Shutdown{}},
		{"error", &Error{Code: CodeNotLeader, Text: "boom"}},
		{"error/generic", &Error{Text: ""}},
		{"heartbeat", &Heartbeat{Member: 17, Class: MemberThread, Node: 117}},
		{"heartbeat/bye", &Heartbeat{Member: 2, Class: MemberServer, Node: 1001, Bye: true}},
		{"promote", &Promote{}},
		{"fetch-lines-req", &FetchLinesReq{Lines: []uint64{4, 5}, Pages: []uint64{1 << 21}, Needs: needs}},
		{"fetch-lines-req/empty", &FetchLinesReq{}},
		{"fetch-lines-req/frames", &FetchLinesReq{Pages: []uint64{1 << 21, 1<<21 + 1}, Frames: true}},
		{"fetch-lines-resp", &FetchLinesResp{Data: bytes.Repeat([]byte{0xAB}, 130)}},
		{"next-waiter", &NextWaiter{Lock: 5, Gen: 2, Seq: 90, Train: composed(&announced, []Notice{notice})}},
		{"next-waiter/no-train", &NextWaiter{Lock: 5, Gen: 2, Seq: 90}},
		{"lock-grant", &LockGrant{
			Lock: 5, Gen: 3, Seq: 91,
			Inline:   NoticesOf([]Notice{notice}),
			Train:    composed(&forwarded, []Notice{{Seq: 89, Tag: IntervalTag{Writer: 2, Interval: 8}}}),
			PageData: []PagePayload{{Page: 3, Off: 4000, Data: []byte{9, 8, 7}}, {Page: 4, Data: nil}},
		}},
		{"lock-grant/aborted", &LockGrant{Lock: 5, Gen: 1, Code: CodeShutdown}},
		{"writer-dead", &WriterDead{Writer: 9}},
		{"writer-dead/gen", &WriterDead{Writer: 9, Gen: 300}},
		{"repl-append", &ReplAppend{Term: 3, Entries: []ReplEntry{
			{Index: 41, Term: 3, Src: 104, Kind: uint16(KLockReq), Body: Encode(&LockReq{Lock: 9, Thread: 4, LastSeen: 77})},
			{Index: 42, Term: 3, Src: 0, Kind: uint16(KReclaimEvent), Body: Encode(&ReclaimEvent{Thread: 4, Node: 104, Gen: 1})},
		}}},
		{"repl-append/renewal", &ReplAppend{Term: 3}},
		{"repl-ack", &ReplAck{OK: true, Term: 3, NextIndex: 43}},
		{"repl-ack/reject", &ReplAck{Term: 4, NextIndex: 12}},
		{"promote-mgr", &PromoteMgr{Term: 5}},
		{"repl-snapshot", &ReplSnapshot{Term: 5, Index: 40, State: []byte{3, 0, 0, 1, 2, 3}}},
		{"reclaim-event", &ReclaimEvent{Thread: 4, Node: 104, Gen: 2}},
		{"snapshot-as-req", &SnapshotASReq{Thread: 1, Base: 1 << 36, NPages: 512, Seq: 3}},
		{"snapshot-as-resp", &SnapshotASResp{Snap: 6}},
		{"fork-as-req", &ForkASReq{Thread: 1, Snap: 6, Seq: 4}},
		{"fork-as-resp", &ForkASResp{Base: 1<<36 + 1<<21, OrigBase: 1 << 36, NPages: 512}},
		{"seal-as", &SealAS{Snap: 6, Base: 1 << 36, NPages: 512, Needs: needs}},
		{"seal-as/pages", &SealAS{Snap: 6, Base: 1 << 36, NPages: 512, Pages: []uint64{1 << 24, 1<<24 + 4}}},
		{"fork-map", &ForkMap{Snap: 6, Base: 1<<36 + 1<<21, OrigBase: 1 << 36, NPages: 512}},
		{"free-resp", &FreeResp{}},
		{"free-resp/fork", &FreeResp{Fork: true, Snap: 3, NPages: 16, Release: []uint64{3, 9}}},
		{"fork-unmap", &ForkUnmap{Base: 1 << 20, NPages: 16, Release: []uint64{4}}},
		{"fork-unmap/release-only", &ForkUnmap{Release: []uint64{5}}},
	}
}

// The wire format is a contract: BENCH_micro.json's fabricBytes and
// every virt_* metric of BENCHMARK.json are functions of encoded sizes.
// Every sample must encode to exactly the bytes recorded in
// testdata/wire.golden ("name hex", "-" for an empty body). Run with
// -update only to add a line for a new message or field.
func TestWireGolden(t *testing.T) {
	var got strings.Builder
	for _, s := range wireSamples() {
		if kind, _, _ := strings.Cut(s.name, "/"); kind != s.msg.Kind().String() {
			t.Fatalf("sample %q holds a %v", s.name, s.msg.Kind())
		}
		if body := Encode(s.msg); len(body) > 0 {
			fmt.Fprintf(&got, "%s %x\n", s.name, body)
		} else {
			fmt.Fprintf(&got, "%s -\n", s.name)
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
