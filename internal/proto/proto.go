// Package proto defines the wire protocol spoken between Samhita
// components: compute threads, memory servers and the manager. Every
// message has a compact binary encoding so that (a) the virtual-time
// cost model can charge transfer time for the exact number of bytes a
// real implementation would move, and (b) the Samhita Communication
// Layer (package scl) can run the identical protocol over an in-process
// simulated fabric or a real network transport.
//
// The protocol implements regional consistency (RegC) in a home-based,
// lazy-release style:
//
//   - Every page has a home memory server. Compute threads fetch
//     multi-page cache lines from homes on demand (FetchLine).
//   - At a release point (unlock, barrier arrival, condition wait) a
//     thread ships a DiffBatch — the byte diffs of pages it dirtied in
//     ordinary regions plus the fine-grained store records it logged in
//     consistency regions — to the homes, tagged with the thread's
//     interval number, and then posts a write notice to the manager.
//   - At an acquire point the manager returns the write notices the
//     thread has not yet seen; the thread invalidates pages named by
//     ordinary-region notices and applies fine-grained records in place.
//   - A later fetch of an invalidated page quotes the interval tags it
//     needs; the home delays the reply until those DiffBatches have been
//     applied, which restores causality without any blocking at release
//     time.
//
// # Adding a message
//
// A message's field order is written down once, in its walk; nothing is
// generated and nothing mirrors it.
//
//  1. Declare the struct in types.go and a K… constant just above
//     kindEnd, so the existing kind numbers stay.
//  2. Give it Kind and Walk. Walk calls one Codec primitive per field, in
//     wire order: U8/Bool/U16/U32/U64, U64s, String, List(c, &m.Xs,
//     walkX) with the sub-struct's own walk, Payload for bytes (a copy
//     under Decode; under DecodeAlias the receiver uses them in place
//     while it owns the body). A field added to an existing message goes
//     last, in a c.tail group, so messages without it keep their encoding.
//     A list of notices is Notices(c, &m.Ns) when the receiver applies
//     it (three allocations, however long) and a NoticeList field
//     (walkNoticeList) when the receiver passes it on: a list is
//     wire-form exactly when some node forwards it without looking
//     inside, as a lock holder does with the backlogs it hands down
//     (wire.go). The bytes on the wire are the same either way. A Train
//     (walkTrain) is the wire form of a handoff train's entries and
//     their one shared backlog.
//  3. Add the row to the kinds table: name and fresh[T].
//  4. Add a populated sample to wireSamples (wire_test.go), one per form
//     of an optional tail, and record it with "go test ./internal/proto
//     -run TestWireGolden -update". testdata/wire.golden must only gain
//     lines: the virtual-time results are functions of encoded sizes.
//
// The round-trip, truncation, ownership and fuzz tests walk the table
// and the samples; they cover a new message without being edited.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Kind identifies a message type.
type Kind uint16

// Message kinds. Requests and responses are paired; one-way messages
// (DiffBatch, EvictFlush) are acknowledged at the transport level only.
const (
	KInvalid Kind = iota

	// Memory-server messages.
	KFetchLineReq
	KFetchLineResp
	KDiffBatch  // one-way: release-time diffs + records
	KEvictFlush // one-way: mid-interval flush of an evicted dirty page

	// Home-to-writer messages (lazy single-writer diffs).
	KDiffPullReq
	KDiffPullResp

	// Manager messages: allocation and placement.
	KAllocReq
	KAllocResp
	KFreeReq
	KRegisterReq

	// Manager messages: synchronization.
	KLockReq
	KLockResp
	KUnlockReq
	KBarrierReq
	KBarrierResp
	KCondWaitReq
	KCondWaitResp
	KCondSignalReq

	// Generic.
	KAck
	KPing
	KShutdown
	KError

	// Liveness messages.
	KHeartbeat // one-way: membership lease renewal (or graceful goodbye)
	KPromote   // promote a warm-standby memory server to primary

	// Combined multi-line fetch (fetch combining: one request for every
	// line an acquire invalidated on the same home).
	KFetchLinesReq
	KFetchLinesResp

	// Peer-to-peer lock handoff (sequenced fabric): the manager names the
	// next waiter to the holder, and the holder forwards the grant.
	KNextWaiter // one-way: manager -> holder, successor + notice batch
	KLockGrant  // one-way: holder (or manager fallback) -> waiter

	// Liveness: writer obituary, manager -> every memory server and
	// standby when a thread's lease is reaped.
	KWriterDead // one-way: the writer's unshipped diffs will never arrive

	// Replicated manager (consensus log). The leader drives every
	// mutation through an append/ack round with its follower replicas
	// before applying it; a follower that falls below the truncated log
	// prefix is caught up with a full-state snapshot.
	KReplAppend   // leader -> follower: log entries (or an empty lease renewal)
	KReplAck      // follower -> leader: accept/reject + expected next index
	KPromoteMgr   // promote a follower manager replica to leader
	KReplSnapshot // leader -> follower: full-state snapshot install
	KReclaimEvent // log-entry only: a lease reap, replicated before it is acted on

	// Snapshot/fork of a global address space. SnapshotAS seals the
	// current page versions of a striped range behind a refcounted
	// snapshot id; ForkAS allocates a congruent range served from the
	// sealed frames until first write (copy-on-write).
	KSnapshotASReq
	KSnapshotASResp
	KForkASReq
	KForkASResp
	KSealAS  // thread -> memory server: capture current frames for a snapshot
	KForkMap // thread -> memory server: map a forked range onto sealed frames

	// Snapshot/fork teardown. FreeResp (the FreeReq answer) reports when
	// the freed address was a fork range — the zone space is withheld
	// until the caller unmaps the range at the homes and commits with a
	// second, Unmapped FreeReq — and names the snapshots whose refcount
	// reached zero; ForkUnmap removes a fork range's mapping (and the
	// named snapshots' sealed frames) from a home server.
	KFreeResp
	KForkUnmap // thread -> memory server: drop a fork mapping / sealed frames

	kindEnd // one past the last kind; add new kinds above it
)

// kinds is the one table of message kinds: each kind's printed name and
// a constructor of its empty message. The tests walk [1, kindEnd) and
// fail on a kind without a row.
var kinds = [kindEnd]struct {
	name string
	new  func() Msg
}{
	KInvalid:        {name: "invalid"},
	KFetchLineReq:   {"fetch-line-req", fresh[FetchLineReq]},
	KFetchLineResp:  {"fetch-line-resp", fresh[FetchLineResp]},
	KDiffBatch:      {"diff-batch", fresh[DiffBatch]},
	KEvictFlush:     {"evict-flush", fresh[EvictFlush]},
	KDiffPullReq:    {"diff-pull-req", fresh[DiffPullReq]},
	KDiffPullResp:   {"diff-pull-resp", fresh[DiffPullResp]},
	KAllocReq:       {"alloc-req", fresh[AllocReq]},
	KAllocResp:      {"alloc-resp", fresh[AllocResp]},
	KFreeReq:        {"free-req", fresh[FreeReq]},
	KRegisterReq:    {"register-req", fresh[RegisterReq]},
	KLockReq:        {"lock-req", fresh[LockReq]},
	KLockResp:       {"lock-resp", fresh[LockResp]},
	KUnlockReq:      {"unlock-req", fresh[UnlockReq]},
	KBarrierReq:     {"barrier-req", fresh[BarrierReq]},
	KBarrierResp:    {"barrier-resp", fresh[BarrierResp]},
	KCondWaitReq:    {"cond-wait-req", fresh[CondWaitReq]},
	KCondWaitResp:   {"cond-wait-resp", fresh[CondWaitResp]},
	KCondSignalReq:  {"cond-signal-req", fresh[CondSignalReq]},
	KAck:            {"ack", fresh[Ack]},
	KPing:           {"ping", fresh[Ping]},
	KShutdown:       {"shutdown", fresh[Shutdown]},
	KError:          {"error", fresh[Error]},
	KHeartbeat:      {"heartbeat", fresh[Heartbeat]},
	KPromote:        {"promote", fresh[Promote]},
	KFetchLinesReq:  {"fetch-lines-req", fresh[FetchLinesReq]},
	KFetchLinesResp: {"fetch-lines-resp", fresh[FetchLinesResp]},
	KNextWaiter:     {"next-waiter", fresh[NextWaiter]},
	KLockGrant:      {"lock-grant", fresh[LockGrant]},
	KWriterDead:     {"writer-dead", fresh[WriterDead]},
	KReplAppend:     {"repl-append", fresh[ReplAppend]},
	KReplAck:        {"repl-ack", fresh[ReplAck]},
	KPromoteMgr:     {"promote-mgr", fresh[PromoteMgr]},
	KReplSnapshot:   {"repl-snapshot", fresh[ReplSnapshot]},
	KReclaimEvent:   {"reclaim-event", fresh[ReclaimEvent]},
	KSnapshotASReq:  {"snapshot-as-req", fresh[SnapshotASReq]},
	KSnapshotASResp: {"snapshot-as-resp", fresh[SnapshotASResp]},
	KForkASReq:      {"fork-as-req", fresh[ForkASReq]},
	KForkASResp:     {"fork-as-resp", fresh[ForkASResp]},
	KSealAS:         {"seal-as", fresh[SealAS]},
	KForkMap:        {"fork-map", fresh[ForkMap]},
	KFreeResp:       {"free-resp", fresh[FreeResp]},
	KForkUnmap:      {"fork-unmap", fresh[ForkUnmap]},
}

// fresh is the kinds-table constructor of message type T.
func fresh[T any, P interface {
	*T
	Msg
}]() Msg {
	return P(new(T))
}

func (k Kind) String() string {
	if k < kindEnd && kinds[k].name != "" {
		return kinds[k].name
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// New returns an empty message of kind k, ready to Decode into, or nil
// when k is not a message kind.
func New(k Kind) Msg {
	if k < kindEnd && kinds[k].new != nil {
		return kinds[k].new()
	}
	return nil
}

// ErrTruncated is returned when a message body ends before decoding
// finishes.
var ErrTruncated = errors.New("proto: truncated message")

// Writer appends binary fields to a buffer. Integers use unsigned
// varints; byte strings are length-prefixed.
type Writer struct {
	B []byte
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.B = append(w.B, v) }

// U32 appends a varint-encoded uint32.
func (w *Writer) U32(v uint32) { w.U64(uint64(v)) }

// U64 appends a varint-encoded uint64.
func (w *Writer) U64(v uint64) { w.B = binary.AppendUvarint(w.B, v) }

// I64 appends a zigzag varint-encoded int64.
func (w *Writer) I64(v int64) { w.B = binary.AppendVarint(w.B, v) }

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(p []byte) {
	w.U64(uint64(len(p)))
	w.B = append(w.B, p...)
}

// U64s appends a length-prefixed slice of uint64.
func (w *Writer) U64s(vs []uint64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// Reader consumes binary fields from a buffer. The first decoding error
// sticks in err; a codec checks it once at the end.
type Reader struct {
	B   []byte
	off int
	err error
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil || r.off >= len(r.B) {
		r.fail()
		return 0
	}
	v := r.B[r.off]
	r.off++
	return v
}

// U64 reads a varint-encoded uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.B[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// U32 reads a varint-encoded uint32.
func (r *Reader) U32() uint32 {
	v := r.U64()
	if v > 0xFFFFFFFF {
		r.fail()
		return 0
	}
	return uint32(v)
}

// U16 reads a varint-encoded uint16.
func (r *Reader) U16() uint16 {
	v := r.U64()
	if v > 0xFFFF {
		r.fail()
		return 0
	}
	return uint16(v)
}

// I64 reads a zigzag varint-encoded int64.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.B[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Bytes reads a length-prefixed byte string. The returned slice aliases
// the input buffer.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.B)-r.off) < n {
		r.fail()
		return nil
	}
	p := r.B[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

// U64s reads a length-prefixed slice of uint64, into dst's array when
// dst is not nil and has the capacity, else into a new one.
func (r *Reader) U64s(dst []uint64) []uint64 {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.B)-r.off) { // each element is at least one byte
		r.fail()
		return nil
	}
	if dst == nil || uint64(cap(dst)) < n {
		dst = make([]uint64, n)
	}
	out := dst[:n]
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// Remaining reports how many undecoded bytes are left.
func (r *Reader) Remaining() int { return len(r.B) - r.off }
