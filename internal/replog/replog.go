// Package replog is the replicated-log core behind the kill-survivable
// manager: a leader-lease, single-leader-per-term log in the style of
// Raft's append path, specialized to the way the DSM runtime uses it.
//
// The classic roles map as follows. The *proposer* is the manager
// leader: it stamps every mutation with a log slot and its term and
// pushes slots to the replicas, tracking each replica's next expected
// index. The *acceptor* is a follower replica: it accepts contiguous
// entries from the highest term it has seen and rejects stale-term
// senders (which deposes them). The *learner* is the follower's state
// machine: Offer returns the newly accepted entries in order and the
// caller applies them through the same handlers the leader ran.
//
// Elections are external: the runtime's failover controller promotes a
// replica under a strictly higher term when clients observe the leader
// dead (the client-side retry exhaustion is the lease-expiry signal).
// The log therefore never votes; terms exist to fence a deposed leader,
// whose next append is rejected with the higher term.
//
// Truncation is keyed to application: an entry may be dropped once
// every live replica has acknowledged it AND the leader has applied it
// (the caller passes its applied index as the floor). A replica whose
// next expected index has been truncated away is caught up with a full
// state snapshot and resumes appends above it.
package replog

import (
	"fmt"
	"slices"

	"repro/internal/proto"
)

// Proposer is the leader side of the log.
type Proposer struct {
	// Term is the leader's term; entries are stamped with it and
	// followers at a higher term reject the leader.
	Term uint64

	entries []proto.ReplEntry // retained suffix of the log
	first   uint64            // index of entries[0]; last+1 when empty
	last    uint64            // highest appended index (0 = none)

	peers map[int]*peerState
	live  []int // ids of the peers not yet dropped, ascending
}

type peerState struct {
	next  uint64 // next index this peer expects
	alive bool
}

// NewProposer creates the leader state. peerIDs identify the follower
// replicas (any stable small ints); startIndex is the index the first
// appended entry gets (1 for a fresh log, applied+1 after a promotion).
func NewProposer(term uint64, peerIDs []int, startIndex uint64) *Proposer {
	if startIndex == 0 {
		startIndex = 1
	}
	p := &Proposer{
		Term:  term,
		first: startIndex,
		last:  startIndex - 1,
		peers: make(map[int]*peerState, len(peerIDs)),
	}
	for _, id := range peerIDs {
		p.peers[id] = &peerState{next: startIndex, alive: true}
	}
	for id := range p.peers {
		p.live = append(p.live, id)
	}
	slices.Sort(p.live)
	return p
}

// Append stamps a new entry into the next log slot and retains it until
// truncation. The returned entry is what the leader ships to followers.
func (p *Proposer) Append(src uint32, kind proto.Kind, body []byte) proto.ReplEntry {
	e := proto.ReplEntry{
		Index: p.last + 1,
		Term:  p.Term,
		Src:   src,
		Kind:  uint16(kind),
		Body:  body,
	}
	p.entries = append(p.entries, e)
	p.last++
	return e
}

// Last reports the highest appended index.
func (p *Proposer) Last() uint64 { return p.last }

// First reports the lowest retained index (Last()+1 when empty).
func (p *Proposer) First() uint64 { return p.first }

// Retained reports how many entries the log currently holds.
func (p *Proposer) Retained() int { return len(p.entries) }

// Batch returns the entries peer still needs, or needSnapshot=true when
// the peer's next expected index has been truncated out of the log.
func (p *Proposer) Batch(peer int) (entries []proto.ReplEntry, needSnapshot bool) {
	ps := p.peers[peer]
	if ps == nil {
		return nil, false
	}
	if ps.next < p.first {
		return nil, true
	}
	if ps.next > p.last {
		return nil, false
	}
	return p.entries[ps.next-p.first:], false
}

// Ack records a follower's answer to an append. deposed reports that
// the follower has adopted a higher term: this proposer must stop
// externalizing state immediately.
func (p *Proposer) Ack(peer int, ack *proto.ReplAck) (deposed bool) {
	if !ack.OK && ack.Term > p.Term {
		return true
	}
	ps := p.peers[peer]
	if ps == nil {
		return false
	}
	// Both accept and gap-rejection tell us the peer's next expected
	// index; resume from there.
	if ack.NextIndex > 0 {
		ps.next = ack.NextIndex
	}
	return false
}

// SnapshotInstalled records that peer restored a snapshot covering
// everything up to index; appends resume above it.
func (p *Proposer) SnapshotInstalled(peer int, index uint64) {
	if ps := p.peers[peer]; ps != nil {
		ps.next = index + 1
	}
}

// DropPeer marks a follower dead: it stops gating truncation and Batch
// callers should stop sending to it.
func (p *Proposer) DropPeer(peer int) {
	if ps := p.peers[peer]; ps != nil && ps.alive {
		ps.alive = false
		// A new list, not an edit of the one a caller may be ranging over.
		p.live = slices.DeleteFunc(slices.Clone(p.live), func(id int) bool { return id == peer })
	}
}

// LivePeers returns the ids of followers not yet dropped, ascending. The
// slice is the proposer's own and is never edited: a DropPeer during a
// loop over it replaces it and leaves the loop its snapshot.
func (p *Proposer) LivePeers() []int { return p.live }

// Truncate drops every entry that (a) every live follower has
// acknowledged and (b) the caller has applied — appliedFloor is the
// caller's applied index (the manager keys it to its notice-board
// ticket frontier). Returns the number of entries dropped.
func (p *Proposer) Truncate(appliedFloor uint64) int {
	keep := appliedFloor + 1 // lowest index that must stay
	for _, ps := range p.peers {
		if ps.alive && ps.next < keep {
			keep = ps.next
		}
	}
	if keep <= p.first {
		return 0
	}
	n := int(keep - p.first)
	if n > len(p.entries) {
		n = len(p.entries)
	}
	// Clearing lets go of the dropped bodies. An emptied log starts over
	// at the front of its array; slicing to the empty tail would leave the
	// next Append no room and make it reallocate.
	clear(p.entries[:n])
	if n == len(p.entries) {
		p.entries = p.entries[:0]
	} else {
		p.entries = p.entries[n:]
	}
	p.first += uint64(n)
	return n
}

// Acceptor is the follower side of the log.
type Acceptor struct {
	// Term is the highest term this follower has accepted entries from.
	Term uint64
	// Last is the highest contiguously accepted index.
	Last uint64
}

// Offer processes one append from a claimed leader. apply holds the
// newly accepted entries, in order, for the learner to run through the
// state machine; ack is the answer to ship back. A stale-term sender is
// rejected with the follower's term (deposing it); a gap is rejected
// with the next index the follower expects.
//
// An append carries one run of the leader's log, so what it adds is one
// run of m.Entries: apply is that sub-slice, not a copy. Entries ahead of
// it repeat accepted slots (a resend after a lost ack) and are skipped;
// anything behind it that does not continue the run is a gap.
func (a *Acceptor) Offer(m *proto.ReplAppend) (apply []proto.ReplEntry, ack proto.ReplAck) {
	if m.Term < a.Term {
		return nil, proto.ReplAck{OK: false, Term: a.Term, NextIndex: a.Last + 1}
	}
	a.Term = m.Term
	from := 0
	for from < len(m.Entries) && m.Entries[from].Index <= a.Last {
		from++
	}
	to := from
	for to < len(m.Entries) && m.Entries[to].Index == a.Last+1 {
		a.Last++
		to++
	}
	// The sender of a gap must back up (or snapshot us).
	return m.Entries[from:to:to], proto.ReplAck{OK: to == len(m.Entries), Term: a.Term, NextIndex: a.Last + 1}
}

// InstallSnapshot resets the acceptor to a snapshot covering everything
// up to index under the given term.
func (a *Acceptor) InstallSnapshot(term, index uint64) error {
	if term < a.Term {
		return fmt.Errorf("replog: snapshot from stale term %d (have %d)", term, a.Term)
	}
	a.Term = term
	a.Last = index
	return nil
}
