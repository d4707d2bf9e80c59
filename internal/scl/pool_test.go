package scl

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/proto"
)

// raceEnabled is set by race_test.go: sync.Pool drops items at random
// under the race detector, so a test can only assert what is not pooled.
var raceEnabled bool

// drawn takes n buffers of size out of the pool (or fresh ones), fills
// every one with 0xA5 and reports whether any of them is body's array.
// The caller hands them back with PutBuf.
func drawn(n, size int, body []byte) (bufs [][]byte, found bool) {
	for i := 0; i < n; i++ {
		b := proto.GetBuf(size)
		b = b[:cap(b)]
		for k := range b {
			b[k] = 0xA5
		}
		found = found || unsafe.SliceData(b) == unsafe.SliceData(body)
		bufs = append(bufs, b)
	}
	return bufs, found
}

// A response body that a decoded wire-form list aliases stays the
// caller's: decodeResponse does not hand it back, so no later GetBuf can
// write over the notices the grant still points into.
func TestResponseBodyAliasedByAListIsNotRecycled(t *testing.T) {
	notices := []proto.Notice{{Seq: 1, Tag: proto.IntervalTag{Writer: 2, Interval: 3}, Pages: []uint64{7, 8}}}
	enc := proto.Encode(&proto.LockGrant{Lock: 1, Gen: 2, Inline: proto.NoticesOf(notices)})
	body := append(proto.GetBuf(len(enc)), enc...) // a pooled body, as a fetch answer's is
	var g proto.LockGrant
	if err := decodeResponse(proto.KLockGrant, body, &g); err != nil {
		t.Fatal(err)
	}
	bufs, found := drawn(64, len(body), body)
	if found {
		t.Fatal("a body the grant's notice list aliases went back to the pool")
	}
	if got := g.Inline.Notices(); len(got) != 1 || got[0].Seq != 1 || got[0].Pages[1] != 8 {
		t.Fatalf("the grant's notices changed under it: %+v", got)
	}
	for _, b := range bufs {
		proto.PutBuf(b)
	}
}

// A fetch answer decoded into a destination with room is a copy, so its
// body goes back to the pool, and the destination keeps the line.
func TestFetchAnswerDecodedIntoAFrameIsRecycled(t *testing.T) {
	const line = 16 << 10
	body, window := proto.PayloadBody(line)
	for i := range window {
		window[i] = byte(i)
	}
	want := bytes.Clone(window)
	frame := proto.GetBuf(line)
	resp := proto.FetchLineResp{Data: frame}
	if err := decodeResponse(proto.KFetchLineResp, body, &resp); err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(resp.Data) != unsafe.SliceData(frame) {
		t.Fatal("the answer was not decoded into the caller's frame")
	}
	bufs, found := drawn(8, len(body), body)
	if !found && !raceEnabled {
		t.Error("the body of an answer decoded into a frame did not go back to the pool")
	}
	if !bytes.Equal(resp.Data, want) {
		t.Fatal("the decoded line changed when its body was recycled")
	}
	for _, b := range bufs {
		proto.PutBuf(b)
	}
}
