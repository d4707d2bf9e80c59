package proto

import (
	"bytes"
	"testing"
	"unsafe"
)

// A GetBuf/PutBuf round trip allocates nothing once the pool holds a
// buffer of the class: the *[]byte a pool entry is kept in is recycled
// with the buffer, not made per PutBuf.
func TestPoolRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, n := range []int{1, 4 << 10, 16 << 10, 16<<10 + 1, 1 << 20} {
		PutBuf(GetBuf(n))
		if got := testing.AllocsPerRun(100, func() { PutBuf(GetBuf(n)) }); got != 0 {
			t.Errorf("GetBuf(%d) then PutBuf allocates %v objects, want 0", n, got)
		}
	}
}

// PayloadBody's body, once its window is filled, is byte for byte what
// Encode makes of a fetch answer carrying the window, for either kind,
// and it is a whole pooled buffer.
func TestPayloadBodyIsEncode(t *testing.T) {
	for _, n := range []int{1, 127, 128, 4 << 10, 16 << 10, 16<<10 + 3*(4<<10)} {
		body, window := PayloadBody(n)
		if len(window) != n || cap(window) != n {
			t.Fatalf("PayloadBody(%d): window len %d cap %d", n, len(window), cap(window))
		}
		for i := range window {
			window[i] = byte(i*7 + 1)
		}
		if c := classOf(cap(body)); c < 0 || cap(body) != 1<<(poolMinShift+c) {
			t.Fatalf("PayloadBody(%d): body of cap %d is not a pooled buffer", n, cap(body))
		}
		for _, m := range []Msg{&FetchLineResp{Data: window}, &FetchLinesResp{Data: window}} {
			if want := Encode(m); !bytes.Equal(body, want) {
				t.Fatalf("PayloadBody(%d) differs from Encode(%v): %d bytes, want %d", n, m.Kind(), len(body), len(want))
			}
		}
	}
}

// A Payload whose destination has the room is filled in place, under
// Decode and DecodeAlias alike, and nothing then aliases the body; a
// destination without it gets a copy, or under DecodeAlias the body's
// own bytes.
func TestPayloadFillsDestinationInPlace(t *testing.T) {
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 100)
	body := Encode(&FetchLineResp{Data: data})
	for _, alias := range []bool{false, true} {
		dst := make([]byte, 7, len(data)+10)
		m := FetchLineResp{Data: dst}
		aliased, err := decodeReport(&m, body, alias)
		if err != nil || aliased {
			t.Fatalf("alias=%v: decode into room: aliased %v, err %v", alias, aliased, err)
		}
		if unsafe.SliceData(m.Data) != unsafe.SliceData(dst) || !bytes.Equal(m.Data, data) {
			t.Fatalf("alias=%v: a destination with room was not filled in place", alias)
		}

		small := FetchLineResp{Data: make([]byte, 0, len(data)-1)}
		aliased, err = decodeReport(&small, body, alias)
		if err != nil || !bytes.Equal(small.Data, data) {
			t.Fatalf("alias=%v: decode into a short destination: %v", alias, err)
		}
		if into := pointsInto(small.Data, body); into != alias || aliased != alias {
			t.Fatalf("alias=%v: a short destination points into the body: %v, reported %v", alias, into, aliased)
		}
	}
}

func decodeReport(m Msg, body []byte, alias bool) (bool, error) {
	if alias {
		return DecodeAliased(m, body)
	}
	return false, Decode(m, body)
}

// DecodeAliased reports a field left aliasing the body: a Payload decoded
// without a destination, and a wire-form list. A message with neither
// leaves the body free.
func TestDecodeAliasedReports(t *testing.T) {
	notices := []Notice{{Seq: 1, Tag: IntervalTag{Writer: 2, Interval: 3}, Pages: []uint64{7}}}
	for _, tc := range []struct {
		name string
		in   Msg
		into Msg
		want bool
	}{
		{"payload, no destination", &FetchLineResp{Data: []byte{1, 2, 3}}, &FetchLineResp{}, true},
		{"payload, destination with room", &FetchLineResp{Data: []byte{1, 2, 3}}, &FetchLineResp{Data: make([]byte, 0, 3)}, false},
		{"grant with inline intervals", &LockGrant{Lock: 1, Gen: 2, Inline: NoticesOf(notices)}, &LockGrant{}, true},
		{"grant with a train", &LockGrant{Lock: 1, Gen: 2, Train: trainOf(2, notices)}, &LockGrant{}, true},
		{"grant, no lists", &LockGrant{Lock: 1, Gen: 2}, &LockGrant{}, false},
		{"ack", &Ack{}, &Ack{}, false},
		{"error", &Error{Code: CodeShutdown, Text: "bye"}, &Error{}, false},
	} {
		aliased, err := DecodeAliased(tc.into, Encode(tc.in))
		if err != nil || aliased != tc.want {
			t.Errorf("%s: aliased %v (err %v), want %v", tc.name, aliased, err, tc.want)
		}
	}
}

// Size is the length of the encoding, and costs no allocation.
func TestSizeIsEncodedLength(t *testing.T) {
	for _, s := range allocSamples() {
		if got, want := Size(s.msg), len(Encode(s.msg)); got != want {
			t.Errorf("%s: Size %d, Encode %d bytes", s.name, got, want)
		}
		if raceEnabled {
			continue
		}
		if got := testing.AllocsPerRun(100, func() { Size(s.msg) }); got != 0 {
			t.Errorf("%s: Size allocates %v objects, want 0", s.name, got)
		}
	}
}
