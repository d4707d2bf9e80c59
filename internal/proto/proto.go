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

	// Peer-to-peer lock handoff (sharded manager): the manager names the
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
)

var kindNames = map[Kind]string{
	KInvalid:        "invalid",
	KFetchLineReq:   "fetch-line-req",
	KFetchLineResp:  "fetch-line-resp",
	KDiffBatch:      "diff-batch",
	KEvictFlush:     "evict-flush",
	KDiffPullReq:    "diff-pull-req",
	KDiffPullResp:   "diff-pull-resp",
	KAllocReq:       "alloc-req",
	KAllocResp:      "alloc-resp",
	KFreeReq:        "free-req",
	KRegisterReq:    "register-req",
	KLockReq:        "lock-req",
	KLockResp:       "lock-resp",
	KUnlockReq:      "unlock-req",
	KBarrierReq:     "barrier-req",
	KBarrierResp:    "barrier-resp",
	KCondWaitReq:    "cond-wait-req",
	KCondWaitResp:   "cond-wait-resp",
	KCondSignalReq:  "cond-signal-req",
	KAck:            "ack",
	KPing:           "ping",
	KShutdown:       "shutdown",
	KError:          "error",
	KHeartbeat:      "heartbeat",
	KPromote:        "promote",
	KFetchLinesReq:  "fetch-lines-req",
	KFetchLinesResp: "fetch-lines-resp",
	KNextWaiter:     "next-waiter",
	KLockGrant:      "lock-grant",
	KWriterDead:     "writer-dead",
	KReplAppend:     "repl-append",
	KReplAck:        "repl-ack",
	KPromoteMgr:     "promote-mgr",
	KReplSnapshot:   "repl-snapshot",
	KReclaimEvent:   "reclaim-event",
	KSnapshotASReq:  "snapshot-as-req",
	KSnapshotASResp: "snapshot-as-resp",
	KForkASReq:      "fork-as-req",
	KForkASResp:     "fork-as-resp",
	KSealAS:         "seal-as",
	KForkMap:        "fork-map",
	KFreeResp:       "free-resp",
	KForkUnmap:      "fork-unmap",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
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
// sticks; callers check Err once at the end.
type Reader struct {
	B   []byte
	off int
	err error
	// noCopy lets retain return aliases into B instead of copies; set
	// only by DecodeAlias, whose callers own B for the aliases' lifetime.
	noCopy bool
}

// Err reports the first error encountered while decoding.
func (r *Reader) Err() error { return r.err }

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

// U64s reads a length-prefixed slice of uint64.
func (r *Reader) U64s() []uint64 {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.B)-r.off) { // each element is at least one byte
		r.fail()
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// retain is what payload-carrying Unmarshals apply to a Bytes() result
// they store: a copy by default (the wire buffer's lifetime is not
// theirs), the alias itself under DecodeAlias — clipped to its length,
// so an append to the payload reallocates instead of running on into
// the rest of the body.
func (r *Reader) retain(p []byte) []byte {
	if p == nil {
		return nil
	}
	if r.noCopy {
		return p[:len(p):len(p)]
	}
	return append([]byte(nil), p...)
}

// Remaining reports how many undecoded bytes are left.
func (r *Reader) Remaining() int { return len(r.B) - r.off }
