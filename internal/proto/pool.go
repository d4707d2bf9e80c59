package proto

import "sync"

// Payload buffer pool. The memory-server hot path assembles a reply
// payload (up to a whole cache line plus pages), hands it to a message
// that Encode copies into the wire body, and then has no further use
// for it — a steady stream of large, short-lived allocations.
// GetBuf/PutBuf recycle those buffers through size-classed sync.Pools.
//
// Ownership rule: the producer that GetBufs a buffer owns it until it
// explicitly PutBufs it back, and must only do so once nothing aliases
// the buffer any more. Encode always copies payload bytes into the
// body it returns, so "after Reply returns" is a safe release point for
// a reply payload.
//
// A wire body is the opposite case. Encode's result belongs to the
// transport and then to its one receiver, and everything decoded with
// DecodeAlias — every response (scl's decodeResponse), every diff batch
// at a memory server, every lock grant at a thread — points into it: a
// fetched line becomes the client cache's line storage and is written
// through for as long as it is resident. So a body, or any payload
// decoded from one, must never be PutBuf'd: the pool would hand a live
// cache line to the next GetBuf.

// poolMinShift..poolMaxShift bound the size classes (4 KiB .. 1 MiB);
// requests outside the range fall back to the garbage collector.
const (
	poolMinShift = 12
	poolMaxShift = 20
)

var bufPools [poolMaxShift - poolMinShift + 1]sync.Pool

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
		return (*v.(*[]byte))[:0]
	}
	return make([]byte, 0, 1<<(poolMinShift+c))
}

// PutBuf returns a buffer obtained from GetBuf to its pool. The caller
// must not touch the buffer afterwards. Foreign buffers of unpooled
// sizes are dropped silently.
func PutBuf(b []byte) {
	if b == nil {
		return
	}
	c := classOf(cap(b))
	if c < 0 || cap(b) != 1<<(poolMinShift+c) {
		return // not one of ours; let the GC have it
	}
	b = b[:0]
	bufPools[c].Put(&b)
}
