package manager

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/proto"
)

// release reserves a ticket as the dispatcher does and fills it as the
// home does, returning the ticket.
func release(b *noticeBoard, writer uint32, interval uint64, pages ...uint64) uint64 {
	seq := b.reserve()
	b.fill(seq, proto.IntervalTag{Writer: writer, Interval: interval}, pages, nil)
	return seq
}

func seqs(ns []proto.Notice) []uint64 {
	out := make([]uint64, len(ns))
	for i := range ns {
		out[i] = ns[i].Seq
	}
	return out
}

func TestBoardTicketsNumberInDispatchOrder(t *testing.T) {
	b := newBoard(new(Stats))
	b.ensure(1, 0) // a registered thread that never acquires: nothing is pruned
	for want := uint64(1); want <= 4; want++ {
		if got := release(b, uint32(want%2)+1, want, want); got != want {
			t.Fatalf("ticket %d issued as %d", want, got)
		}
	}
	ns, frontier := b.acquire(9, 0, true)
	if got := seqs(ns); !reflect.DeepEqual(got, []uint64{1, 2, 3, 4}) {
		t.Fatalf("directory order %v, want 1..4", got)
	}
	if frontier != 4 {
		t.Fatalf("frontier %d, want 4", frontier)
	}
	if got := seqs(b.after(1, 3)); !reflect.DeepEqual(got, []uint64{2, 3}) {
		t.Fatalf("after(1, 3) = %v, want [2 3]", got)
	}
}

// A ticket reserved for a release the home then refuses is never filled:
// its seq stays a gap for good, later tickets do not reuse it, and the
// frontier still moves past it.
func TestBoardCancelledTicketLeavesPermanentGap(t *testing.T) {
	b := newBoard(new(Stats))
	b.ensure(1, 0)
	release(b, 1, 1, 8)
	gap := b.reserve() // fenced release: no fill
	ns, frontier := b.acquire(2, 0, true)
	if frontier != gap {
		t.Fatalf("frontier %d after an unfilled ticket, want %d", frontier, gap)
	}
	if got := seqs(ns); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("acquire delivered %v, want [1]", got)
	}
	if next := release(b, 1, 2, 8); next != gap+1 {
		t.Fatalf("ticket after the gap is %d, want %d", next, gap+1)
	}
	ns, frontier = b.acquire(3, 0, true)
	if got := seqs(ns); !reflect.DeepEqual(got, []uint64{1, 3}) || frontier != 3 {
		t.Fatalf("acquire delivered %v at frontier %d, want [1 3] at 3", got, frontier)
	}
}

func TestBoardAcquireAdvancesHorizonToLastIssued(t *testing.T) {
	b := newBoard(new(Stats))
	b.ensure(1, 0)
	b.ensure(2, 0)
	release(b, 1, 1, 8)
	release(b, 1, 2, 9)
	ns, frontier := b.acquire(2, 0, true)
	if len(ns) != 2 || frontier != b.issued {
		t.Fatalf("acquire: %d notices at frontier %d, want 2 at %d", len(ns), frontier, b.issued)
	}
	if b.lastSeen[2] != frontier {
		t.Fatalf("horizon %d after acquire, want %d", b.lastSeen[2], frontier)
	}
	// Nothing new: the next acquire from the returned horizon is empty and
	// the frontier holds.
	ns, again := b.acquire(2, frontier, true)
	if len(ns) != 0 || again != frontier {
		t.Fatalf("idle acquire: %d notices at %d, want 0 at %d", len(ns), again, frontier)
	}
	// saw never moves a horizon backwards.
	b.saw(2, 1)
	if b.lastSeen[2] != frontier {
		t.Fatalf("saw moved the horizon back to %d", b.lastSeen[2])
	}
}

func TestBoardFilledDedupesReissuedInterval(t *testing.T) {
	b := newBoard(new(Stats))
	if b.filled(1, 1) {
		t.Fatal("empty board reports interval 1 filled")
	}
	release(b, 1, 5)
	for interval, want := range map[uint64]bool{0: false, 4: true, 5: true, 6: false} {
		if got := b.filled(1, interval); got != want {
			t.Errorf("filled(1, %d) = %v, want %v", interval, got, want)
		}
	}
	if b.filled(2, 5) {
		t.Error("another writer's interval reported filled")
	}
	// The record outlives both the notice and the writer's membership.
	b.acquire(1, 0, true)
	b.dropThread(1)
	if len(b.notices) != 0 || !b.filled(1, 5) {
		t.Errorf("after prune and drop: %d notices, filled=%v; want 0, true", len(b.notices), b.filled(1, 5))
	}
}

func TestBoardPruneRespectsSlowestThread(t *testing.T) {
	st := new(Stats)
	b := newBoard(st)
	b.ensure(1, 0)
	b.ensure(2, 0)
	b.ensure(2, 7) // already registered: the horizon is not overwritten
	for i := uint64(1); i <= 3; i++ {
		release(b, 1, i, i)
	}
	b.acquire(1, 0, true)
	if len(b.notices) != 3 || st.NoticesPruned.Load() != 0 {
		t.Fatalf("pruned past thread 2's horizon: %d notices left, %d pruned", len(b.notices), st.NoticesPruned.Load())
	}
	b.saw(2, 2)
	if got := seqs(b.notices); !reflect.DeepEqual(got, []uint64{3}) {
		t.Fatalf("after thread 2 saw 2: directory %v, want [3]", got)
	}
	// A departed thread stops pinning the directory.
	b.dropThread(2)
	if len(b.notices) != 0 || st.NoticesPruned.Load() != 3 {
		t.Fatalf("after drop: %d notices left, %d pruned; want 0, 3", len(b.notices), st.NoticesPruned.Load())
	}
}

func TestBoardEncodeRoundTrip(t *testing.T) {
	b := newBoard(new(Stats))
	b.ensure(1, 0)
	b.ensure(2, 0)
	release(b, 1, 1, 10, 11)
	b.reserve() // a gap survives the round trip as the issued count
	seq := b.reserve()
	b.fill(seq, proto.IntervalTag{Writer: 2, Interval: 4}, nil,
		[]proto.StoreRecord{{Addr: 64, Data: []byte{1, 2, 3}}})
	b.acquire(1, 0, true)

	enc := proto.Marshal(func(c *proto.Codec) { walkBoard(c, b) })
	if enc[0] != 3 || enc[1] != 3 {
		t.Fatalf("leading words %d, %d; want 3, 3", enc[0], enc[1])
	}

	got := newBoard(new(Stats))
	if err := proto.Unmarshal(enc, func(c *proto.Codec) { walkBoard(c, got) }); err != nil {
		t.Fatalf("decode: %v", err)
	}
	var past uint8
	if err := proto.Unmarshal(enc, func(c *proto.Codec) { walkBoard(c, newBoard(new(Stats))); c.U8(&past) }); err == nil {
		t.Fatal("decode left bytes behind: one more field decoded after the board")
	}
	if got.issued != b.issued || !reflect.DeepEqual(got.lastSeen, b.lastSeen) ||
		!reflect.DeepEqual(got.lastInterval, b.lastInterval) {
		t.Fatalf("decoded %+v, want %+v", got, b)
	}
	if !reflect.DeepEqual(seqs(got.notices), []uint64{1, 3}) {
		t.Fatalf("decoded directory %v, want [1 3]", seqs(got.notices))
	}
	if again := proto.Marshal(func(c *proto.Codec) { walkBoard(c, got) }); !bytes.Equal(enc, again) {
		t.Fatal("re-encoding the decoded board changed the bytes")
	}
	if next := got.reserve(); next != 4 {
		t.Fatalf("first ticket after restore is %d, want 4", next)
	}
}

// ROADMAP 1(c). An answer nobody receives (a follower applying the log,
// a replay waiter's no-op reply) must leave the directory able to answer
// the same acquire again: after a failover the thread re-issues it with
// the horizon it really has.
func TestBoardUndeliveredAcquireKeepsNoticesForTheReissue(t *testing.T) {
	st := new(Stats)
	b := newBoard(st)
	b.ensure(1, 0)
	b.ensure(2, 0)
	release(b, 1, 1, 24)
	// Replayed: thread 2's lock grant, then a barrier release to both.
	b.acquire(2, 0, false)
	b.acquire(1, 0, false)
	b.acquire(2, 0, false)
	if st.NoticesPruned.Load() != 0 {
		t.Fatalf("undelivered answers pruned %d notices no thread has received", st.NoticesPruned.Load())
	}
	// The live re-issue, with the thread's true horizon, still gets page 24.
	ns, frontier := b.acquire(2, 0, true)
	if got := seqs(ns); !reflect.DeepEqual(got, []uint64{1}) || frontier != 1 {
		t.Fatalf("re-issued acquire delivered %v at frontier %d, want [1] at 1", got, frontier)
	}
	// An undelivered acquire still moves the horizon to what the request
	// itself claimed, so a follower's directory stays one acquire behind
	// instead of growing without bound.
	release(b, 2, 1, 25)
	b.acquire(1, 1, false)
	if got := seqs(b.notices); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("directory %v after every thread claimed horizon 1, want [2]", got)
	}
}

// An interval that names no page and carries no record is no notice: its
// ticket stays a gap that the next acquirer's frontier passes. The
// directory still records the interval as filled, so in a replicated
// group a re-issued copy of that release (its ack lost to a failover) is
// acked as a duplicate, not applied again.
func TestEmptyIntervalLeavesAGap(t *testing.T) {
	e := newStepEnv(t, 1, 0, nil)
	group := newStepGroup(e, 3, 0, nil)
	a, b := e.client(1), e.client(2)
	if _, err := a.lock(7); err != nil {
		t.Fatal(err)
	}
	if err := a.unlock(7, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := b.lock(7)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 || len(resp.Notices) != 0 {
		t.Fatalf("the next acquirer got %d notices at frontier %d, want none at 1", len(resp.Notices), resp.Seq)
	}
	for i, m := range group {
		if n := m.Stats().NoticesStored.Load(); n != 0 || len(m.board.notices) != 0 || !m.board.filled(1, 1) {
			t.Fatalf("replica %d: %d notices stored, %d in the directory, interval filled %v; want 0, 0, true",
				i, n, len(m.board.notices), m.board.filled(1, 1))
		}
	}

	unlocks := e.mgr.Stats().Unlocks.Load()
	if err := a.call(&proto.UnlockReq{Lock: 7, Thread: 1, Interval: 1}, &proto.Ack{}); err != nil {
		t.Fatalf("the re-issued empty release: %v, want it acked as a duplicate", err)
	}
	if got := e.mgr.Stats().Unlocks.Load(); got != unlocks {
		t.Fatalf("the re-issued empty release was applied again: %d unlocks, want %d", got, unlocks)
	}
	if ls := e.mgr.shards[0].locks[7]; !ls.held || ls.holder != 2 {
		t.Fatalf("lock 7 after the duplicate: held %v by %d, want held by 2", ls.held, ls.holder)
	}
}
