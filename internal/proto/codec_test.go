package proto

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// A 16-bit field is a varint on the wire; a value that does not fit must
// be rejected like an oversized U32 is, not truncated into a valid code
// (0x10002 would read as CodePeerDied).
func TestU16FieldsRejectOverflow(t *testing.T) {
	const hostile = 0x10000 + uint32(CodePeerDied)
	grant := func(code uint32) []byte {
		var w Writer
		w.U32(5) // Lock
		w.U64(1) // Gen
		w.U64(2) // Seq
		for i := 0; i < 3; i++ {
			w.U64(0) // Inline, Train, PageData
		}
		w.U32(code)
		return w.B
	}
	errorMsg := func(code uint32) []byte {
		var w Writer
		w.U32(code)
		w.Bytes([]byte("boom"))
		return w.B
	}
	appendMsg := func(kind uint32) []byte {
		var w Writer
		w.U64(3) // Term
		w.U64(1) // one entry
		w.U64(41)
		w.U64(3)
		w.U32(104)
		w.U32(kind)
		w.Bytes([]byte{1, 2, 3})
		return w.B
	}
	cases := []struct {
		field string
		kind  Kind
		body  func(uint32) []byte
		got   func(Msg) uint16
	}{
		{"LockGrant.Code", KLockGrant, grant, func(m Msg) uint16 { return m.(*LockGrant).Code }},
		{"Error.Code", KError, errorMsg, func(m Msg) uint16 { return m.(*Error).Code }},
		{"ReplEntry.Kind", KReplAppend, appendMsg, func(m Msg) uint16 { return m.(*ReplAppend).Entries[0].Kind }},
	}
	for _, c := range cases {
		m := New(c.kind)
		if err := Decode(m, c.body(0xFFFF)); err != nil || c.got(m) != 0xFFFF {
			t.Errorf("%s: 0xFFFF decoded to %#x, %v", c.field, c.got(m), err)
		}
		if err := Decode(New(c.kind), c.body(hostile)); err == nil {
			t.Errorf("%s: wire value %#x accepted", c.field, hostile)
		}
	}
}

// A count of zero decodes to an empty, non-nil slice for every list of
// every message, whichever walk owns it.
func TestEmptyListsDecodeAlike(t *testing.T) {
	for k := KInvalid + 1; k < kindEnd; k++ {
		m := New(k)
		// A body of zeros is every field zero and every list empty; ten of
		// them cover the longest fixed prefix plus the lists behind it.
		if err := Decode(m, make([]byte, 10)); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		eachSlice(reflect.ValueOf(m), "", func(path string, s reflect.Value) {
			if s.Type().Elem().Kind() != reflect.Uint8 && s.IsNil() {
				t.Errorf("%v: empty %s decoded to nil", k, path)
			}
		})
	}
}

// allocSamples are the five messages the benchmark's proto driver
// measures (benchmark/layers.go protoSamples), with the allocations one
// Decode into a new message costs: the message, its lists and its
// payload copies, and nothing for the codec. aliased is the same count
// under DecodeAlias, which owes no payload copies.
func allocSamples() []struct {
	name    string
	msg     Msg
	allocs  float64
	aliased float64
} {
	records := func(n int) []StoreRecord {
		rs := make([]StoreRecord, n)
		for i := range rs {
			rs[i] = StoreRecord{Addr: uint64(1<<34 + 24*i), Data: make([]byte, 24)}
		}
		return rs
	}
	diffs := make([]PageDiff, 8)
	for i := range diffs {
		diffs[i].Page = uint64(100 + i)
		for r := 0; r < 4; r++ {
			diffs[i].Runs = append(diffs[i].Runs, DiffRun{Off: uint32(1024 * r), Data: make([]byte, 256)})
		}
	}
	notices := make([]Notice, 8)
	for i := range notices {
		notices[i] = Notice{Seq: uint64(i + 1), Tag: IntervalTag{Writer: uint32(i + 1), Interval: 9}, Pages: []uint64{uint64(i)}, Records: records(2)}
	}
	entries := make([]ReplEntry, 8)
	for i := range entries {
		entries[i] = ReplEntry{Index: uint64(i + 1), Term: 1, Src: 100, Kind: uint16(KUnlockReq), Body: make([]byte, 96)}
	}
	return []struct {
		name    string
		msg     Msg
		allocs  float64
		aliased float64
	}{
		{"fetch_resp", &FetchLineResp{Data: make([]byte, 16<<10)}, 2, 1},
		{"diff_batch", &DiffBatch{Tag: IntervalTag{Writer: 3, Interval: 7}, Diffs: diffs}, 42, 10},
		// The message, the three slabs of its notice list (wire.go) and the
		// 16 record payloads a copying decode owes.
		{"lock_resp", &LockResp{Seq: 8, Notices: notices, Gen: 5}, 20, 4},
		{"unlock_req", &UnlockReq{Lock: 4, Thread: 3, Interval: 7, Records: records(16)}, 18, 2},
		// The message, its entry list and, copying, the 8 entry bodies: a
		// follower decodes with DecodeAlias into a message it keeps, which
		// costs nothing at all (TestListReusesCapacity).
		{"repl_append", &ReplAppend{Term: 1, Entries: entries}, 10, 2},
	}
}

// Encode allocates the body and nothing else; Decode allocates what the
// message holds and nothing for the walk. Both depend on the codec
// being one recycled object: a walk is an interface call, so a codec
// (or a Reader) made per call goes to the heap, one more object per
// message, which the end-to-end host_allocs bound (2 %) does not have
// room for on the message-heavy workloads.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, s := range allocSamples() {
		body := Encode(s.msg)
		if got := testing.AllocsPerRun(100, func() { Encode(s.msg) }); got != 1 {
			t.Errorf("%s: Encode allocates %v objects, want 1", s.name, got)
		}
		var err error
		got := testing.AllocsPerRun(100, func() { err = Decode(New(s.msg.Kind()), body) })
		if err != nil || got != s.allocs {
			t.Errorf("%s: Decode allocates %v objects (err %v), want %v", s.name, got, err, s.allocs)
		}
		got = testing.AllocsPerRun(100, func() { err = DecodeAlias(New(s.msg.Kind()), body) })
		if err != nil || got != s.aliased {
			t.Errorf("%s: DecodeAlias allocates %v objects (err %v), want %v", s.name, got, err, s.aliased)
		}
	}
}

// trainOf composes a k-entry train whose every backlog is ns.
func trainOf(k int, ns []Notice) Train {
	var w TrainWriter
	for i := 0; i < k; i++ {
		w.Add(uint32(i+1), uint32(100+i), len(ns))
	}
	return composed(&w, ns)
}

// A grant's receiver splits its own entry off the train and, at its
// release, forwards the rest whole as bytes: what that allocates (the grant's body, the Inline copy
// its closing interval is appended to) does not depend on how many
// announcements are left.
func TestTrainForwardIsConstantAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	backlog := allocSamples()[2].msg.(*LockResp).Notices
	closing := Notice{Tag: IntervalTag{Writer: 9, Interval: 4}, Pages: []uint64{3}, Records: backlog[0].Records}
	forward := func(k int) float64 {
		var g LockGrant
		if err := DecodeAlias(&g, Encode(&LockGrant{Lock: 1, Gen: 2, Seq: 3, Inline: NoticesOf(backlog[:2]), Train: trainOf(k+1, backlog)})); err != nil {
			t.Fatal(err)
		}
		var dst uint32
		allocs := testing.AllocsPerRun(100, func() {
			_, rest := g.Train.Head()
			_, dst = rest.Next()
			Encode(&LockGrant{Lock: g.Lock, Gen: g.Gen + 1, Seq: g.Seq, Inline: g.Inline.With(&closing), Train: rest})
		})
		if dst != 101 {
			t.Fatalf("head of a %d-entry train names node %d", k, dst)
		}
		return allocs
	}
	short, long := forward(2), forward(32)
	if short != long || long > 3 {
		t.Fatalf("forwarding a 2-entry train allocates %v objects, a 32-entry one %v; want the same, at most 3", short, long)
	}
}

// wireBytes is how a list of n elements whose encodings are b reads on
// the wire.
func wireBytes(n int, b []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(n)), b...)
}

// checkNoticeWire holds a notice list as the wire has it (count, then
// elements, then whatever follows) against the decode the slabs
// replaced, the generic List over WalkNotice: the skim stops where that
// walk stops, counts what it allocates, and got, what the codec made of
// the same bytes, encodes to what it encodes to.
func checkNoticeWire(t *testing.T, where string, wire []byte, got []Notice) {
	t.Helper()
	var ref []Notice
	var walked int
	if err := Unmarshal(wire, func(c *Codec) {
		List(c, &ref, WalkNotice)
		walked = c.r.off
	}); err != nil {
		t.Fatalf("%s: accepted by the skim, refused by the walk: %v", where, err)
	}
	c := decoder(wire, true)
	n, _ := c.count(0)
	c.nwords, c.nrecs = 0, 0
	c.skimEach(n, skimNotice)
	skimmed, words, recs := c.r.off, c.nwords, c.nrecs
	if err := c.done(); err != nil {
		t.Fatalf("%s: skim: %v", where, err)
	}
	for i := range ref {
		words -= len(ref[i].Pages)
		recs -= len(ref[i].Records)
	}
	if skimmed != walked || n != len(ref) || words != 0 || recs != 0 {
		t.Fatalf("%s: skim ends at %d of %d notices, the walk at %d of %d; %d page words and %d records unaccounted",
			where, skimmed, n, walked, len(ref), words, recs)
	}
	list := func(ns []Notice) []byte { return Marshal(func(c *Codec) { List(c, &ns, WalkNotice) }) }
	if len(got) != len(ref) || !bytes.Equal(list(got), list(ref)) {
		t.Fatalf("%s: decoded %#v, the walk %#v", where, got, ref)
	}
}

// checkWireLists runs checkNoticeWire over every notice list of an
// accepted body, consumed or in wire form, and checks that a wire-form
// list goes back on the wire as the bytes it came off as, and that a
// train forwarded hop by hop hands out sub-slices of those bytes. At
// every hop the train is forwarded whole, as a holder forwards it inside
// a LockGrant: it re-encodes to a body that decodes to the same entries
// and head and re-encodes to itself, and when the body is canonical (it
// re-encodes to itself, its train to what a TrainWriter composes from the
// same entries) it re-encodes to its own composition. Then its receiver
// splits off the head, its own backlog, a suffix of the shared list, and
// keeps the rest, trimmed, to forward at the next hop.
func checkWireLists(t *testing.T, m Msg, body []byte) {
	t.Helper()
	consumed := func(got []Notice) {
		r := Reader{B: body}
		r.U64() // Seq
		checkNoticeWire(t, m.Kind().String(), body[r.off:], got)
	}
	notices := func(where string, l NoticeList) {
		checkNoticeWire(t, where, wireBytes(l.n, l.b), l.Notices())
		if l.n > 0 && !bytes.Contains(body, wireBytes(l.n, l.b)) {
			t.Fatalf("%s: not the body's bytes", where)
		}
		want := append(append([]byte{0, 0, 0}, wireBytes(l.n, l.b)...), 0, 0, 0)
		if got := Encode(&LockGrant{Inline: l}); !bytes.Equal(got, want) {
			t.Fatalf("%s: re-encoded % x, want % x", where, got, want)
		}
	}
	forward := func(tr Train) []byte { return Encode(&LockGrant{Train: tr}) }
	composed := func(tr Train) []byte {
		var w TrainWriter
		longest := 0
		for left := tr; left.n > 0; {
			head, rest := left.Head()
			w.Add(head.Waiter, head.WaiterNode, head.Notices.n)
			longest = max(longest, head.Notices.n)
			left = rest
		}
		ns := tr.list.Notices()
		return forward(composed(&w, ns[len(ns)-longest:]))
	}
	train := func(tr Train) {
		if tr.list.n > 0 && !bytes.Contains(body, tr.list.b) {
			t.Fatal("train: the shared list is not the body's bytes")
		}
		canonical := bytes.Equal(Encode(m), body) && bytes.Equal(forward(tr), composed(tr))
		for left := tr.n; left > 0; left-- {
			enc := forward(tr)
			var back LockGrant
			if err := Decode(&back, enc); err != nil {
				t.Fatalf("train: %d entries forwarded whole re-encode to a body that does not decode: %v", tr.n, err)
			}
			if again := Encode(&back); !bytes.Equal(again, enc) {
				t.Fatalf("train: %d entries re-encode to % x, which decodes and re-encodes to % x", tr.n, enc, again)
			}
			head, rest := tr.Head()
			if waiter, node := tr.Next(); waiter != head.Waiter || node != head.WaiterNode {
				t.Fatalf("train: Next names %d@%d, Head %d@%d", waiter, node, head.Waiter, head.WaiterNode)
			}
			if got, _ := back.Train.Head(); back.Train.n != tr.n || got.Waiter != head.Waiter || got.WaiterNode != head.WaiterNode ||
				got.Notices.n != head.Notices.n || !bytes.Equal(got.Notices.b, head.Notices.b) {
				t.Fatalf("train: %d entries forwarded whole read back head %+v, want %+v", tr.n, got, head)
			}
			if canonical && !bytes.Equal(enc, composed(tr)) {
				t.Fatalf("train: %d entries of a canonical body re-encode to %d bytes, other than their %d-byte composition", tr.n, len(enc), len(composed(tr)))
			}
			checkNoticeWire(t, "train entry", wireBytes(head.Notices.n, head.Notices.b), head.Notices.Notices())
			if head.Notices.n != int(tr.head.backlog) || !bytes.HasSuffix(tr.list.b, head.Notices.b) {
				t.Fatalf("train: the head's %d-notice backlog is not the last %d of the shared list", head.Notices.n, tr.head.backlog)
			}
			if rest.n != left-1 || !bytes.HasSuffix(tr.list.b, rest.list.b) || !bytes.HasSuffix(tr.rest, rest.rest) {
				t.Fatalf("train: %d entries left after the head of %d, or not sub-slices of it", rest.n, left)
			}
			tr = rest
		}
		if tr.n != 0 || tr.rest != nil || tr.list.b != nil {
			t.Fatalf("train: exhausted train holds %d entries, %d bytes", tr.n, len(tr.rest)+len(tr.list.b))
		}
	}
	switch m := m.(type) {
	case *LockResp:
		consumed(m.Notices)
	case *BarrierResp:
		consumed(m.Notices)
	case *CondWaitResp:
		consumed(m.Notices)
	case *NextWaiter:
		train(m.Train)
	case *LockGrant:
		notices("grant inline", m.Inline)
		train(m.Train)
	}
}

// FuzzDecode feeds arbitrary bodies to every kind's walk, in both
// decode modes. Decoding never panics; no list is ever sized beyond the
// body that claims it (every element takes at least a byte), whether or
// not the decode goes on to fail; the two modes accept the same bodies;
// what does decode re-encodes to a body that decodes to an equal
// message; and every notice list in it, consumed or kept in wire form,
// is what the plain walk makes of the same bytes (checkWireLists).
func FuzzDecode(f *testing.F) {
	for _, s := range wireSamples() {
		f.Add(uint16(s.msg.Kind()), Encode(s.msg))
	}
	board := benchNotices(6)
	convoy := trainAt(board, 6, []uint64{4, 0, 5, 2})
	f.Add(uint16(KNextWaiter), Encode(&NextWaiter{Lock: 3, Gen: 4, Seq: 6, Train: convoy}))
	f.Add(uint16(KLockGrant), Encode(&LockGrant{Lock: 3, Gen: 5, Seq: 6, Inline: NoticesOf(board[:1]), Train: convoy}))
	f.Fuzz(func(t *testing.T, kind uint16, body []byte) {
		m, aliased := New(Kind(kind)), New(Kind(kind))
		if m == nil {
			return
		}
		err, errAliased := Decode(m, body), DecodeAlias(aliased, body)
		for _, d := range []Msg{m, aliased} {
			eachSlice(reflect.ValueOf(d), "", func(path string, s reflect.Value) {
				if s.Len() > len(body) {
					t.Fatalf("%v%s: %d elements from a %d-byte body", d.Kind(), path, s.Len(), len(body))
				}
			})
		}
		if (err == nil) != (errAliased == nil) {
			t.Fatalf("%v: Decode: %v, DecodeAlias: %v", m.Kind(), err, errAliased)
		}
		if err != nil {
			return
		}
		again := New(m.Kind())
		if err := Decode(again, Encode(m)); err != nil {
			t.Fatalf("%v: re-encoded body does not decode: %v", m.Kind(), err)
		}
		// Equal up to nil against empty, which a present-but-empty trailing
		// list turns into on the way round.
		if normalize(again) != normalize(m) || normalize(aliased) != normalize(m) {
			t.Fatalf("%v: round trip mismatch:\n in: %#v\nout: %#v", m.Kind(), m, again)
		}
		checkWireLists(t, m, body)
		checkWireLists(t, aliased, body)
	})
}

// A destination with room is filled in place: a follower's append costs
// no allocation. What it held is gone first, so a shorter list shows
// nothing of a longer one, and a hostile count is refused before the
// destination is touched.
func TestListReusesCapacity(t *testing.T) {
	entry := func(i uint64) ReplEntry {
		return ReplEntry{Index: i, Term: 2, Src: 9, Kind: uint16(KLockReq), Body: []byte{byte(i), 1, 2}}
	}
	long := Encode(&ReplAppend{Term: 2, Entries: []ReplEntry{entry(1), entry(2), entry(3)}})
	short := Encode(&ReplAppend{Term: 2, Entries: []ReplEntry{{Index: 4, Term: 2}}})
	var ra ReplAppend
	if err := DecodeAlias(&ra, long); err != nil {
		t.Fatal(err)
	}
	first := &ra.Entries[0]
	kept := ra.Entries[0].Body // a window into the first append, held across the second
	if err := DecodeAlias(&ra, short); err != nil {
		t.Fatal(err)
	}
	if &ra.Entries[0] != first || len(ra.Entries) != 1 {
		t.Fatalf("a 1-entry list was not decoded into the room of a 3-entry one: %+v", ra.Entries)
	}
	if e := ra.Entries[0]; e.Index != 4 || e.Src != 0 || e.Kind != 0 || len(e.Body) != 0 {
		t.Fatalf("the reused slot kept fields of its last entry: %+v", e)
	}
	if stale := ra.Entries[:3][1:]; stale[0].Body != nil || stale[1].Body != nil {
		t.Fatal("slots past the new length still hold the last decode's bodies")
	}
	if !pointsInto(kept, long) || kept[0] != 1 {
		t.Fatal("a retained body was touched by the next decode")
	}
	if !raceEnabled {
		if got := testing.AllocsPerRun(100, func() { _ = DecodeAlias(&ra, long) }); got != 0 {
			t.Fatalf("DecodeAlias into a kept ReplAppend allocates %v objects, want 0", got)
		}
	}

	var w Writer
	w.U64(2) // Term
	w.U64(3) // three entries, one byte left
	w.U8(0)
	if err := DecodeAlias(&ra, long); err != nil {
		t.Fatal(err)
	}
	if err := DecodeAlias(&ra, w.B); err == nil {
		t.Fatal("a 3-entry list in 1 byte decoded")
	}
	if len(ra.Entries) != 3 || ra.Entries[2].Index != 3 {
		t.Fatalf("a refused count reached the destination: %+v", ra.Entries)
	}
}

// A word list decodes into the array its field already has, when that
// holds it: the memory server keeps a combined fetch's line and page
// lists from request to request.
func TestU64sReuseCapacity(t *testing.T) {
	long := Encode(&FetchLinesReq{Lines: []uint64{1, 2, 3}, Pages: []uint64{40, 41}})
	short := Encode(&FetchLinesReq{Lines: []uint64{7}})
	var m FetchLinesReq
	if err := Decode(&m, long); err != nil {
		t.Fatal(err)
	}
	lines, pages := &m.Lines[0], &m.Pages[0]
	m = FetchLinesReq{Lines: m.Lines[:0], Pages: m.Pages[:0]}
	if err := Decode(&m, short); err != nil {
		t.Fatal(err)
	}
	if &m.Lines[0] != lines || len(m.Lines) != 1 || m.Lines[0] != 7 || len(m.Pages) != 0 || &m.Pages[:1][0] != pages {
		t.Fatalf("a shorter request was not decoded into the last one's arrays: %+v", m)
	}
	if !raceEnabled {
		if got := testing.AllocsPerRun(100, func() {
			m = FetchLinesReq{Lines: m.Lines[:0], Pages: m.Pages[:0]}
			_ = Decode(&m, long)
		}); got != 0 {
			t.Fatalf("decoding into kept lists allocates %v objects, want 0", got)
		}
	}
}

func walkTestMap(m *map[uint32]int64) func(*Codec) {
	return func(c *Codec) { Map(c, m, (*Codec).U32, (*Codec).I64) }
}

// Map's bytes are a function of the map's contents alone: pairs leave in
// ascending key order however the map was filled, and come back equal.
func TestMapWalksInAscendingKeyOrder(t *testing.T) {
	want := []byte{3, 1, 2, 7, 1, 0xAC, 0x02, 5} // count; 1:+1, 7:-1, 300:-3 (zigzag)
	for _, order := range [][]uint32{{1, 7, 300}, {300, 7, 1}, {7, 300, 1}} {
		m := make(map[uint32]int64)
		for _, k := range order {
			m[k] = map[uint32]int64{1: 1, 7: -1, 300: -3}[k]
		}
		got := Marshal(walkTestMap(&m))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("filled in order %v: % x, want % x", order, got, want)
		}
		var back map[uint32]int64
		if err := Unmarshal(got, walkTestMap(&back)); err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("decoded %v, %v; want %v", back, err, m)
		}
	}
}

func TestMapEmptyIsOneZeroByte(t *testing.T) {
	for _, m := range []map[uint32]int64{nil, {}} {
		if got := Marshal(walkTestMap(&m)); !reflect.DeepEqual(got, []byte{0}) {
			t.Fatalf("empty map encodes to % x, want 00", got)
		}
	}
	var back map[uint32]int64
	if err := Unmarshal([]byte{0}, walkTestMap(&back)); err != nil || back == nil || len(back) != 0 {
		t.Fatalf("decoded %v, %v; want an empty, non-nil map", back, err)
	}
}

// A count larger than the bytes behind it fails the decode before
// anything is allocated for it, and so does a key that does not fit.
func TestMapRejectsHostileCount(t *testing.T) {
	var w Writer
	w.U64(1 << 40)
	w.U32(1)
	w.I64(1)
	var m map[uint32]int64
	walk := walkTestMap(&m)
	allocs := testing.AllocsPerRun(100, func() {
		if err := Unmarshal(w.B, walk); err == nil {
			t.Fatal("a 2^40-pair map in 3 bytes decoded")
		}
	})
	if len(m) != 0 || (!raceEnabled && allocs > 0) {
		t.Fatalf("hostile count cost %.0f allocations and left %d pairs", allocs, len(m))
	}

	w = Writer{}
	w.U64(1)
	w.U64(1 << 32) // a key that is no uint32
	w.I64(1)
	if err := Unmarshal(w.B, walkTestMap(&m)); err == nil {
		t.Fatal("a 33-bit key decoded into a uint32 map")
	}
}
