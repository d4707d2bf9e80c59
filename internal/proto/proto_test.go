package proto

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, in, out Msg) {
	t.Helper()
	if in.Kind() != out.Kind() {
		t.Fatalf("kind mismatch: %v vs %v", in.Kind(), out.Kind())
	}
	body := Encode(in)
	if err := Decode(out, body); err != nil {
		t.Fatalf("%v: decode: %v", in.Kind(), err)
	}
	if !reflect.DeepEqual(normalize(in), normalize(out)) {
		t.Fatalf("%v: round trip mismatch:\n in: %#v\nout: %#v", in.Kind(), in, out)
	}
}

// normalize maps nil and empty slices to a comparable form by
// re-encoding; DeepEqual distinguishes nil from empty which the wire
// format does not.
func normalize(m Msg) string {
	return string(Encode(m))
}

// Every kind in [1, kindEnd) has a row in the kind table and at least
// one wire sample, and every sample decodes into the table's empty
// message and re-encodes to the same bytes. A new K… constant without a
// table row or without a sample fails here.
func TestRoundTripAllMessages(t *testing.T) {
	sampled := make(map[Kind]bool)
	for _, s := range wireSamples() {
		sampled[s.msg.Kind()] = true
		roundTrip(t, s.msg, New(s.msg.Kind()))
	}
	for k := KInvalid + 1; k < kindEnd; k++ {
		m := New(k)
		switch {
		case kinds[k].name == "" || m == nil:
			t.Errorf("kind %d has no row in the kind table", k)
		case m.Kind() != k:
			t.Errorf("kind table row %v builds a %v", k, m.Kind())
		case !sampled[k]:
			t.Errorf("%v has no sample in wireSamples", k)
		}
	}
	if New(KInvalid) != nil || New(kindEnd) != nil {
		t.Error("New built a message for a kind that is not one")
	}
}

// The handoff fields on LockResp and UnlockReq are trailing and omitted
// when zero: the classic encodings must stay byte-identical so a
// single-home manager produces exactly the pre-handoff wire traffic.
func TestHandoffFieldsOmittedWhenZero(t *testing.T) {
	var w Writer
	w.U64(7)
	w.U64(0) // no notices
	if got := Encode(&LockResp{Seq: 7}); !bytes.Equal(got, w.B) {
		t.Errorf("classic LockResp encoding changed: %v vs %v", got, w.B)
	}
	var u Writer
	u.U32(9)
	u.U32(4)
	u.U64(6)
	u.U64s(nil)
	u.U64(0) // no records
	if got := Encode(&UnlockReq{Lock: 9, Thread: 4, Interval: 6}); !bytes.Equal(got, u.B) {
		t.Errorf("classic UnlockReq encoding changed: %v vs %v", got, u.B)
	}
}

func TestKindStrings(t *testing.T) {
	if KFetchLineReq.String() != "fetch-line-req" {
		t.Errorf("KFetchLineReq.String() = %q", KFetchLineReq.String())
	}
	if Kind(999).String() != "kind(999)" {
		t.Errorf("unknown kind = %q", Kind(999).String())
	}
}

// tailKinds are the messages that end in a group omitted when zero: the
// only ones a proper prefix of whose encoding can be a whole message.
var tailKinds = map[Kind]bool{
	KFreeReq: true, KLockResp: true, KUnlockReq: true,
	KBarrierReq: true, KWriterDead: true, KSealAS: true, KFetchLinesReq: true,
}

// Every proper prefix of every sample is rejected, except the one cut
// that removes exactly a trailing group: that prefix is the message's
// older encoding and must decode to what encodes to those bytes.
func TestDecodeTruncated(t *testing.T) {
	for _, s := range wireSamples() {
		full := Encode(s.msg)
		for cut := 0; cut < len(full); cut++ {
			out := New(s.msg.Kind())
			if err := Decode(out, full[:cut]); err != nil {
				continue
			}
			if !tailKinds[out.Kind()] || !bytes.Equal(Encode(out), full[:cut]) {
				t.Errorf("%s: decoding %d/%d bytes succeeded unexpectedly", s.name, cut, len(full))
			}
		}
	}
}

func TestDecodeHostileLengths(t *testing.T) {
	// A length prefix far larger than the buffer must fail cleanly, not
	// attempt a huge allocation.
	var w Writer
	w.U64(1 << 40) // claimed element count
	var out LockResp
	hostile := append([]byte{1}, w.B...) // Seq, then bogus notice count
	if err := Decode(&out, hostile); err == nil {
		t.Fatal("hostile length accepted")
	}
}

func TestPayloadByteAccounting(t *testing.T) {
	d := PageDiff{Page: 1, Runs: []DiffRun{{Off: 0, Data: make([]byte, 10)}, {Off: 50, Data: make([]byte, 5)}}}
	if got := d.PayloadBytes(); got != 15 {
		t.Errorf("PayloadBytes = %d, want 15", got)
	}
	recs := []StoreRecord{{Addr: 0, Data: make([]byte, 8)}, {Addr: 8, Data: make([]byte, 4)}}
	if got := RecordBytes(recs); got != 12 {
		t.Errorf("RecordBytes = %d, want 12", got)
	}
}

// Property: writer/reader primitives round-trip arbitrary values.
func TestPrimitiveRoundTripProperty(t *testing.T) {
	f := func(a uint64, b uint32, c int64, d []byte, e []uint64) bool {
		var w Writer
		w.U64(a)
		w.U32(b)
		w.I64(c)
		w.Bytes(d)
		w.U64s(e)
		r := Reader{B: w.B}
		if r.U64() != a || r.U32() != b || r.I64() != c {
			return false
		}
		if !bytes.Equal(r.Bytes(), d) {
			return false
		}
		got := r.U64s(nil)
		if len(got) != len(e) {
			return false
		}
		for i := range e {
			if got[i] != e[i] {
				return false
			}
		}
		return r.err == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DiffBatch round-trips under random shapes.
func TestDiffBatchRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := DiffBatch{Tag: IntervalTag{Writer: rng.Uint32(), Interval: rng.Uint64() >> 1}}
		for i := 0; i < rng.Intn(4); i++ {
			pd := PageDiff{Page: rng.Uint64() >> 1}
			for j := 0; j < rng.Intn(4); j++ {
				data := make([]byte, rng.Intn(32))
				rng.Read(data)
				pd.Runs = append(pd.Runs, DiffRun{Off: uint32(rng.Intn(4096)), Data: data})
			}
			in.Diffs = append(in.Diffs, pd)
		}
		for i := 0; i < rng.Intn(3); i++ {
			data := make([]byte, 1+rng.Intn(16))
			rng.Read(data)
			in.Records = append(in.Records, StoreRecord{Addr: rng.Uint64() >> 1, Data: data})
		}
		var out DiffBatch
		if err := Decode(&out, Encode(&in)); err != nil {
			return false
		}
		return normalize(&in) == normalize(&out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// Combined-fetch (fetch combining) property tests.

// randomFetchLinesReq builds an arbitrarily shaped combined-fetch
// request from a seed.
func randomFetchLinesReq(rng *rand.Rand) *FetchLinesReq {
	in := &FetchLinesReq{}
	for i := 0; i < rng.Intn(5); i++ {
		in.Lines = append(in.Lines, rng.Uint64()>>1)
	}
	for i := 0; i < rng.Intn(5); i++ {
		in.Pages = append(in.Pages, rng.Uint64()>>1)
	}
	for i := 0; i < rng.Intn(4); i++ {
		need := PageNeed{Page: rng.Uint64() >> 1}
		for j := 0; j < rng.Intn(3); j++ {
			need.Tags = append(need.Tags, IntervalTag{
				Writer:   rng.Uint32(),
				Interval: rng.Uint64() >> 1,
			})
		}
		in.Needs = append(in.Needs, need)
	}
	return in
}

// Property: FetchLinesReq round-trips under random shapes, including
// empty line/page/need sets in any combination.
func TestFetchLinesReqRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomFetchLinesReq(rng)
		var out FetchLinesReq
		if err := Decode(&out, Encode(in)); err != nil {
			return false
		}
		return normalize(in) == normalize(&out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: FetchLinesResp round-trips arbitrary payloads (quick
// generates the byte slice directly).
func TestFetchLinesRespRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		in := &FetchLinesResp{Data: data}
		var out FetchLinesResp
		if err := Decode(&out, Encode(in)); err != nil {
			return false
		}
		return bytes.Equal(out.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Zero values must encode and decode cleanly: a combined fetch with no
// lines, no pages and no needs is legal on the wire (the caller guards
// against sending it, but the codec must not).
func TestFetchLinesZeroValues(t *testing.T) {
	roundTrip(t, &FetchLinesReq{}, &FetchLinesReq{})
	roundTrip(t, &FetchLinesResp{}, &FetchLinesResp{})
}

// Property: every proper prefix of a valid combined-fetch encoding is
// rejected. Each field carries a length prefix, so a truncation either
// cuts a fixed-width integer short or leaves fewer bytes than the
// length promises; neither may decode silently (a short fetch body
// would install garbage pages).
func TestFetchLinesTruncationRejectedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		body := Encode(randomFetchLinesReq(rng))
		for n := 0; n < len(body); n++ {
			var out FetchLinesReq
			if err := Decode(&out, body[:n]); err == nil {
				t.Logf("seed %d: prefix %d/%d decoded silently", seed, n, len(body))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// Same for the response: its payload is length-prefixed too.
	body := Encode(&FetchLinesResp{Data: []byte{1, 2, 3, 4, 5}})
	for n := 0; n < len(body); n++ {
		var out FetchLinesResp
		if err := Decode(&out, body[:n]); err == nil {
			t.Fatalf("response prefix %d/%d decoded silently", n, len(body))
		}
	}
}

// Span-extent words: tagged (bit 63) values that ride a Notice's Pages
// list after the page word they qualify. Pack/decode must round-trip
// every in-range (off, n), the tag must never collide with a real page
// id, and NoticePages must count only the plain words.
func TestSpanExtentRoundTrip(t *testing.T) {
	cases := []struct{ off, n int }{
		{0, 1}, {0, 4096}, {4095, 1}, {16, 8}, {1<<31 - 1, 1 << 31},
	}
	for _, c := range cases {
		w := PackSpanExtent(c.off, c.n)
		if !IsSpanExtent(w) {
			t.Fatalf("PackSpanExtent(%d,%d) not tagged", c.off, c.n)
		}
		off, n := SpanExtent(w)
		if off != c.off || n != c.n {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", c.off, c.n, off, n)
		}
	}
	// Page ids never look like extents (bit 63 is out of reach of any
	// real address space the runtime configures).
	for _, p := range []uint64{0, 1, 1 << 40, 1<<63 - 1} {
		if IsSpanExtent(p) {
			t.Fatalf("page id %#x misread as extent", p)
		}
	}
	pages := []uint64{7, PackSpanExtent(0, 8), PackSpanExtent(100, 4), 9}
	if got := NoticePages(pages); got != 2 {
		t.Fatalf("NoticePages = %d, want 2", got)
	}
	// Extent words survive the wire inside a Notice untouched.
	in := &BarrierResp{Notices: []Notice{{
		Seq: 3, Tag: IntervalTag{Writer: 1, Interval: 2}, Pages: pages,
	}}}
	roundTrip(t, in, &BarrierResp{})
}

// Encode returns a buffer of its own each time, also when many
// goroutines share the scratch pool — and the bytes are what walking the
// message with a codec of its own gives.
func TestEncodeFreshAndConcurrent(t *testing.T) {
	msg := func(seed byte) *DiffBatch {
		return &DiffBatch{
			Tag:     IntervalTag{Writer: uint32(seed), Interval: 3},
			Diffs:   []PageDiff{{Page: 4, Runs: []DiffRun{{Off: 8, Data: bytes.Repeat([]byte{seed}, 300)}}}},
			Records: []StoreRecord{{Addr: 64, Data: []byte{seed, 2, 3}}},
		}
	}
	want := func(m Msg) []byte {
		var c Codec
		m.Walk(&c)
		return c.w.B
	}
	a, b := Encode(msg(1)), Encode(msg(2))
	if !bytes.Equal(a, want(msg(1))) || !bytes.Equal(b, want(msg(2))) {
		t.Fatal("Encode bytes differ from a walk with a fresh codec")
	}
	for i := range a[:cap(a)] {
		a[:cap(a)][i] = 0xFF
	}
	if !bytes.Equal(b, want(msg(2))) || !bytes.Equal(Encode(msg(2)), b) {
		t.Fatal("Encode results share memory with each other or with the scratch")
	}
	if Encode(&Ack{}) != nil {
		t.Fatal("an empty body must stay nil")
	}
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(seed byte) {
			ok := true
			for i := 0; i < 200; i++ {
				m := msg(seed)
				ok = ok && bytes.Equal(Encode(m), want(m))
			}
			done <- ok
		}(byte(g))
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Error("concurrent Encode produced wrong bytes")
		}
	}
}

// eachSlice calls fn for every slice reachable from v (a message or a
// pointer to one), with the chain of field names that leads to it.
func eachSlice(v reflect.Value, path string, fn func(path string, s reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		eachSlice(v.Elem(), path, fn)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachSlice(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice:
		fn(path, v)
		if v.Type().Elem().Kind() == reflect.Struct {
			for i := 0; i < v.Len(); i++ {
				eachSlice(v.Index(i), path, fn)
			}
		}
	}
}

// eachPayload calls fn for every non-empty []byte field of m.
func eachPayload(m Msg, fn func(path string, b []byte)) {
	eachSlice(reflect.ValueOf(m), "", func(path string, s reflect.Value) {
		if s.Type().Elem().Kind() == reflect.Uint8 && s.Len() > 0 {
			fn(path, s.Bytes())
		}
	})
}

func pointsInto(b, body []byte) bool {
	for i := range body {
		if &body[i] == &b[0] {
			return true
		}
	}
	return false
}

// The per-field ownership rule of DESIGN.md §11, over every sample:
// Decode hands out copies only; DecodeAlias hands out every byte field
// as an alias into the body, clipped to its length — a log entry's Body
// included. A body may be decoded again (a retried handler) and gives the
// same message.
func TestDecodeAliasOwnership(t *testing.T) {
	for _, s := range wireSamples() {
		body := Encode(s.msg)
		pristine := append([]byte(nil), body...)
		copied, first, second := New(s.msg.Kind()), New(s.msg.Kind()), New(s.msg.Kind())
		if err := Decode(copied, body); err != nil {
			t.Fatal(err)
		}
		eachPayload(copied, func(path string, b []byte) {
			if pointsInto(b, body) {
				t.Errorf("%s: Decode's %s aliases the body", s.name, path)
			}
		})
		if err := DecodeAlias(first, body); err != nil {
			t.Fatal(err)
		}
		if err := DecodeAlias(second, body); err != nil {
			t.Fatal(err)
		}
		eachPayload(first, func(path string, b []byte) {
			if !pointsInto(b, body) {
				t.Errorf("%s: DecodeAlias's %s is a copy", s.name, path)
			}
			if cap(b) != len(b) {
				t.Errorf("%s: %s is not clipped to its length", s.name, path)
			}
		})
		if !bytes.Equal(body, pristine) || normalize(first) != normalize(second) {
			t.Errorf("%s: a second decode of the same body differs", s.name)
		}
	}

	// A payload in the middle of a body: appending to it must reallocate,
	// not run on into the next field.
	batch := Encode(&DiffBatch{Records: []StoreRecord{{Addr: 1, Data: []byte{1, 2}}, {Addr: 2, Data: []byte{3, 4}}}})
	pristine := append([]byte(nil), batch...)
	var db DiffBatch
	if err := DecodeAlias(&db, batch); err != nil {
		t.Fatal(err)
	}
	db.Records[0].Data = append(db.Records[0].Data, 0xEE, 0xEE, 0xEE)
	if !bytes.Equal(batch, pristine) || !bytes.Equal(db.Records[1].Data, []byte{3, 4}) {
		t.Fatal("append to an aliased payload wrote into the body")
	}
}
