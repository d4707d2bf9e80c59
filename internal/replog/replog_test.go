package replog

import (
	"reflect"
	"testing"

	"repro/internal/proto"
)

func entry(t *testing.T, p *Proposer, body byte) proto.ReplEntry {
	t.Helper()
	return p.Append(7, proto.KLockReq, []byte{body})
}

func TestAppendAckApplyRoundTrip(t *testing.T) {
	p := NewProposer(1, []int{1}, 1)
	var a Acceptor

	e1 := entry(t, p, 0xA)
	e2 := entry(t, p, 0xB)
	if e1.Index != 1 || e2.Index != 2 {
		t.Fatalf("indices = %d, %d", e1.Index, e2.Index)
	}
	ents, snap := p.Batch(1)
	if snap || len(ents) != 2 {
		t.Fatalf("Batch = %d entries, snapshot=%v", len(ents), snap)
	}
	apply, ack := a.Offer(&proto.ReplAppend{Term: 1, Entries: ents})
	if len(apply) != 2 || !ack.OK || ack.NextIndex != 3 {
		t.Fatalf("apply=%d ack=%+v", len(apply), ack)
	}
	if deposed := p.Ack(1, &ack); deposed {
		t.Fatal("healthy ack deposed the leader")
	}
	if ents, _ := p.Batch(1); len(ents) != 0 {
		t.Fatalf("acked entries still pending: %d", len(ents))
	}
}

func TestDuplicateEntriesSkipped(t *testing.T) {
	p := NewProposer(1, []int{1}, 1)
	var a Acceptor
	e := entry(t, p, 1)
	all := []proto.ReplEntry{e}
	if apply, _ := a.Offer(&proto.ReplAppend{Term: 1, Entries: all}); len(apply) != 1 {
		t.Fatal("first offer not applied")
	}
	// The same entry resent (an ack was lost) must not re-apply.
	apply, ack := a.Offer(&proto.ReplAppend{Term: 1, Entries: all})
	if len(apply) != 0 || !ack.OK || ack.NextIndex != 2 {
		t.Fatalf("duplicate re-applied: apply=%d ack=%+v", len(apply), ack)
	}
}

func TestStaleTermDeposesSender(t *testing.T) {
	a := Acceptor{Term: 5, Last: 10}
	apply, ack := a.Offer(&proto.ReplAppend{Term: 3})
	if len(apply) != 0 || ack.OK || ack.Term != 5 {
		t.Fatalf("stale append accepted: ack=%+v", ack)
	}
	p := NewProposer(3, []int{1}, 11)
	if !p.Ack(1, &ack) {
		t.Fatal("higher-term rejection did not depose the proposer")
	}
}

func TestGapRejectionBacksUpAndResends(t *testing.T) {
	p := NewProposer(2, []int{1}, 1)
	var a Acceptor
	e1 := entry(t, p, 1)
	e2 := entry(t, p, 2)
	_ = e1
	// Follower only sees entry 2: gap, expects index 1.
	apply, ack := a.Offer(&proto.ReplAppend{Term: 2, Entries: []proto.ReplEntry{e2}})
	if len(apply) != 0 || ack.OK || ack.NextIndex != 1 {
		t.Fatalf("gap not rejected: ack=%+v", ack)
	}
	if p.Ack(1, &ack) {
		t.Fatal("gap rejection deposed the leader")
	}
	ents, snap := p.Batch(1)
	if snap || len(ents) != 2 {
		t.Fatalf("resend batch = %d entries", len(ents))
	}
	if apply, ack = a.Offer(&proto.ReplAppend{Term: 2, Entries: ents}); len(apply) != 2 || !ack.OK {
		t.Fatalf("resend not applied: apply=%d ack=%+v", len(apply), ack)
	}
}

func TestTruncateKeyedToAcksAndApplied(t *testing.T) {
	p := NewProposer(1, []int{1, 2}, 1)
	var a1, a2 Acceptor
	for i := 0; i < 4; i++ {
		entry(t, p, byte(i))
	}
	ents, _ := p.Batch(1)
	_, ack1 := a1.Offer(&proto.ReplAppend{Term: 1, Entries: ents})
	p.Ack(1, &ack1)
	// Peer 2 only acked through index 2.
	_, ack2 := a2.Offer(&proto.ReplAppend{Term: 1, Entries: ents[:2]})
	p.Ack(2, &ack2)

	// All four applied locally, but peer 2 gates truncation at 2.
	if n := p.Truncate(4); n != 2 {
		t.Fatalf("Truncate dropped %d, want 2", n)
	}
	if p.First() != 3 || p.Retained() != 2 {
		t.Fatalf("first=%d retained=%d", p.First(), p.Retained())
	}
	// The applied floor gates too: nothing above it may drop even when
	// every peer acked.
	_, ack2 = a2.Offer(&proto.ReplAppend{Term: 1, Entries: ents[2:]})
	p.Ack(2, &ack2)
	if n := p.Truncate(3); n != 1 {
		t.Fatalf("floor-gated Truncate dropped %d, want 1", n)
	}
	// A dead peer stops gating.
	p2 := NewProposer(1, []int{1, 2}, 1)
	entry(t, p2, 9)
	ents2, _ := p2.Batch(1)
	var b Acceptor
	_, ackB := b.Offer(&proto.ReplAppend{Term: 1, Entries: ents2})
	p2.Ack(1, &ackB)
	if n := p2.Truncate(1); n != 0 {
		t.Fatal("unacked peer did not gate truncation")
	}
	p2.DropPeer(2)
	if n := p2.Truncate(1); n != 1 {
		t.Fatalf("dead peer still gates truncation (dropped %d)", n)
	}
}

func TestSnapshotCatchUp(t *testing.T) {
	p := NewProposer(1, []int{1, 2}, 1)
	var a1 Acceptor
	for i := 0; i < 3; i++ {
		entry(t, p, byte(i))
	}
	ents, _ := p.Batch(1)
	_, ack := a1.Offer(&proto.ReplAppend{Term: 1, Entries: ents})
	p.Ack(1, &ack)
	p.DropPeer(2)
	p.Truncate(3)

	// Peer 2 rejoins conceptually: a new leader starts its log above the
	// truncated prefix, and the peer's gap rejection (it expects index
	// 1) backs its cursor below First, flagging it for a snapshot.
	pr := NewProposer(1, []int{2}, 4)
	pr.Append(1, proto.KLockReq, nil)
	var lag Acceptor
	ents4, _ := pr.Batch(2)
	_, nack := lag.Offer(&proto.ReplAppend{Term: 1, Entries: ents4})
	if nack.OK || nack.NextIndex != 1 {
		t.Fatalf("lagging follower ack = %+v", nack)
	}
	pr.Ack(2, &nack)
	if _, snap := pr.Batch(2); !snap {
		t.Fatal("lagging peer not flagged for snapshot")
	}
	var a2 Acceptor
	if err := a2.InstallSnapshot(1, 3); err != nil {
		t.Fatal(err)
	}
	if a2.Last != 3 {
		t.Fatalf("snapshot Last = %d", a2.Last)
	}
	pr.SnapshotInstalled(2, 3)
	// Appends resume above the snapshot: the pending index-4 entry now
	// lands cleanly on the caught-up follower.
	apply, ack2 := a2.Offer(&proto.ReplAppend{Term: 1, Entries: ents4})
	if len(apply) != 1 || !ack2.OK || ack2.NextIndex != 5 {
		t.Fatalf("post-snapshot append rejected: apply=%d ack=%+v", len(apply), ack2)
	}
	if err := a2.InstallSnapshot(0, 9); err == nil {
		t.Fatal("stale-term snapshot accepted")
	}
}

// LivePeers is ascending whatever order the ids were given in, costs
// nothing per call, and a DropPeer in the middle of a loop over it
// neither skips nor repeats a peer (pushToPeers drops the peers it
// cannot reach as it goes).
func TestLivePeersAscendingAndStableUnderDrop(t *testing.T) {
	p := NewProposer(1, []int{3, 1, 2, 4}, 1)
	if allocs := testing.AllocsPerRun(100, func() { _ = p.LivePeers() }); allocs != 0 {
		t.Fatalf("LivePeers allocates %v objects", allocs)
	}
	var seen []int
	for _, id := range p.LivePeers() {
		seen = append(seen, id)
		if id == 2 {
			p.DropPeer(1)
			p.DropPeer(2)
		}
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("looped over %v, want %v", seen, want)
	}
	if got, want := p.LivePeers(), []int{3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("live after the drops = %v, want %v", got, want)
	}
	p.DropPeer(2) // again: no effect
	p.DropPeer(9) // unknown: no effect
	if got := p.LivePeers(); len(got) != 2 {
		t.Fatalf("live = %v", got)
	}
}

// What an append adds is one run of its entries: Offer hands that run
// out as a sub-slice, skips the accepted slots ahead of it, and answers
// anything behind it that does not continue it with the index it wants.
func TestOfferAppliesOneRunWithoutCopying(t *testing.T) {
	p := NewProposer(1, []int{1}, 1)
	for i := 0; i < 5; i++ {
		entry(t, p, byte(i))
	}
	ents, _ := p.Batch(1)
	a := Acceptor{Term: 1, Last: 2} // slots 1 and 2 already accepted
	var apply []proto.ReplEntry
	var ack proto.ReplAck
	if allocs := testing.AllocsPerRun(1, func() {
		a.Last = 2
		apply, ack = a.Offer(&proto.ReplAppend{Term: 1, Entries: ents})
	}); allocs != 0 {
		t.Fatalf("Offer allocates %v objects", allocs)
	}
	if len(apply) != 3 || &apply[0] != &ents[2] || !ack.OK || ack.NextIndex != 6 {
		t.Fatalf("apply = %d entries (aliasing the append: %v), ack %+v", len(apply), len(apply) > 0 && &apply[0] == &ents[2], ack)
	}
	// A slot repeated behind the run does not continue it.
	b := Acceptor{Term: 1}
	apply, ack = b.Offer(&proto.ReplAppend{Term: 1, Entries: []proto.ReplEntry{ents[0], ents[1], ents[0], ents[2]}})
	if len(apply) != 2 || ack.OK || ack.NextIndex != 3 || b.Last != 2 {
		t.Fatalf("apply = %d entries, ack %+v, last %d", len(apply), ack, b.Last)
	}
}

// appendAck is one mutation's trip through the log: appended, offered to
// two followers, acknowledged, truncated. It is what the benchmark's
// replog driver times (benchmark/layers.go).
func appendAck(tb testing.TB, p *Proposer, followers []Acceptor, body []byte) {
	p.Append(100, proto.KUnlockReq, body)
	for i := range followers {
		ents, snap := p.Batch(i + 1)
		_, ack := followers[i].Offer(&proto.ReplAppend{Term: p.Term, Entries: ents})
		if snap || !ack.OK || p.Ack(i+1, &ack) {
			tb.Fatalf("follower %d refused index %d: %+v", i+1, p.Last(), ack)
		}
	}
	if p.Truncate(p.Last()) != 1 || p.Retained() != 0 {
		tb.Fatalf("log holds %d entries after a fully acknowledged append", p.Retained())
	}
}

// A log that is truncated empty starts over at the front of its array,
// and lets go of the bodies it dropped: the steady state of a leader
// whose followers keep up allocates nothing.
func TestEmptiedLogReusesItsArray(t *testing.T) {
	p := NewProposer(1, []int{1, 2}, 1)
	followers := make([]Acceptor, 2)
	body := make([]byte, 96)
	appendAck(t, p, followers, body)
	if got := testing.AllocsPerRun(100, func() { appendAck(t, p, followers, body) }); got != 0 {
		t.Fatalf("an append acknowledged by two followers allocates %v objects, want 0", got)
	}
	if e := p.entries[:1][0]; e.Body != nil || e.Index != 0 {
		t.Fatalf("a truncated slot still holds %+v", e)
	}
}

func BenchmarkAppendAck(b *testing.B) {
	p := NewProposer(1, []int{1, 2}, 1)
	followers := make([]Acceptor, 2)
	body := make([]byte, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		appendAck(b, p, followers, body)
	}
}
