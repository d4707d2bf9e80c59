package proto

import (
	"encoding/binary"
	"sync"
)

// Buffer pool. A fetched line's bytes travel through it end to end: the
// home answers a fetch in a pooled body (PayloadBody), the caller decodes
// the answer into a pooled frame and hands the body back, and the cache
// keeps the frame as the line's storage until it drops the line.
// GetBuf/PutBuf recycle those buffers through size-classed sync.Pools.
//
// Ownership rule: a pooled buffer has exactly one owner at a time, and
// only that owner calls PutBuf, once nothing aliases the buffer any
// more. The owner hands it back at one of a few points (DESIGN.md §11):
//
//   - the home owns a fetch answer's body until it queues the reply, and
//     takes it back only when the reply is never sent;
//   - the caller owns a response body (scl's decodeResponse): it hands it
//     back when the decode reports that no field aliases it;
//   - the cache owns a fetched line's frame, and hands it back when it
//     evicts the line or discards the fetch.
//
// A buffer that did not come from GetBuf may be handed back too, if its
// owner owns it outright (a TCP frame): one of exactly a class size joins
// the pool, any other is left to the collector. What must never reach
// PutBuf is a buffer something else still reads or writes: a body that a
// decoded field aliases (DecodeAliased reports it), or a resident line.

// poolMinShift..poolMaxShift bound the size classes (4 KiB .. 1 MiB);
// requests outside the range fall back to the garbage collector.
const (
	poolMinShift = 12
	poolMaxShift = 20
)

// bufPools holds one pool per size class. An entry is a *[]byte, so a
// Put stores a pointer in the interface and allocates nothing; the
// holders are recycled through holders, so a GetBuf/PutBuf round trip
// allocates nothing either.
var (
	bufPools [poolMaxShift - poolMinShift + 1]sync.Pool
	holders  = sync.Pool{New: func() any { return new([]byte) }}
)

// classOf returns the pool index whose buffers hold at least n bytes,
// or -1 when n is outside the pooled range.
func classOf(n int) int {
	if n <= 0 || n > 1<<poolMaxShift {
		return -1
	}
	c := 0
	for n > 1<<(poolMinShift+c) {
		c++
	}
	return c
}

// GetBuf returns a zero-length buffer with capacity at least n. The
// contents of the backing array are unspecified; callers append or
// slice-and-overwrite.
func GetBuf(n int) []byte {
	c := classOf(n)
	if c < 0 {
		return make([]byte, 0, n)
	}
	if v := bufPools[c].Get(); v != nil {
		h := v.(*[]byte)
		b := (*h)[:0]
		*h = nil
		holders.Put(h)
		return b
	}
	return make([]byte, 0, 1<<(poolMinShift+c))
}

// PutBuf hands a buffer its caller owns back to the pool. The caller
// must not touch the buffer afterwards. A buffer whose capacity is not
// exactly a size class is dropped silently.
func PutBuf(b []byte) {
	c := classOf(cap(b))
	if c < 0 || cap(b) != 1<<(poolMinShift+c) {
		return // not one of ours; let the GC have it
	}
	h := holders.Get().(*[]byte)
	*h = b[:0]
	bufPools[c].Put(h)
}

// PayloadBody returns a pooled body for a message whose walk is one
// Payload of n bytes (FetchLineResp, FetchLinesResp), with the length
// prefix written, and the window of it the payload goes in. A body whose
// window has been filled is byte for byte what Encode makes of the
// message with that payload. The caller owns the body: it hands it to
// the transport, or back with PutBuf.
func PayloadBody(n int) (body, window []byte) {
	var prefix [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(prefix[:], uint64(n))
	body = append(GetBuf(k+n), prefix[:k]...)[:k+n]
	return body, body[k : k+n : k+n]
}
