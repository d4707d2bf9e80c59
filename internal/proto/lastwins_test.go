package proto

import (
	"bytes"
	"testing"
)

// fuzzNotices reads a notice list out of data: a header byte per notice
// (its writer, whether it names a page, how many records), then two
// bytes per record (address and length). Addresses fall in a 12-byte
// window and lengths in 1..4, so records repeat and overlap often. Every
// record's bytes are its own, so an apply that loses or reorders one
// shows.
func fuzzNotices(data []byte) []Notice {
	var ns []Notice
	for len(data) > 0 && len(ns) < 40 {
		h := data[0]
		data = data[1:]
		n := Notice{Seq: uint64(len(ns) + 1), Tag: IntervalTag{Writer: uint32(h>>5) + 1, Interval: uint64(len(ns) + 1)}}
		if h&0x10 != 0 {
			n.Pages = []uint64{uint64(h & 0xc)}
		}
		for k := int(h & 3); k > 0 && len(data) >= 2; k-- {
			rec := StoreRecord{Addr: uint64(data[0] % 12), Data: make([]byte, data[1]%4+1)}
			for i := range rec.Data {
				rec.Data[i] = byte(len(ns)*8 + k*2 + i)
			}
			n.Records = append(n.Records, rec)
			data = data[2:]
		}
		ns = append(ns, n)
	}
	return ns
}

// applied is the image a receiver ends with after applying ns in order
// to a zeroed 16-byte window.
func applied(ns []Notice) []byte {
	img := make([]byte, 16)
	for _, n := range ns {
		for _, r := range n.Records {
			copy(img[r.Addr:], r.Data)
		}
	}
	return img
}

// lastWins is the rule written out directly: ns with every record left
// out whose address and length a record of a later notice repeats.
func lastWinsOf(ns []Notice) (out []Notice, dead int) {
	for i, n := range ns {
		var kept []StoreRecord
		for _, r := range n.Records {
			repeated := false
			for _, later := range ns[i+1:] {
				for _, l := range later.Records {
					repeated = repeated || l.Addr == r.Addr && len(l.Data) == len(r.Data)
				}
			}
			if repeated {
				dead++
			} else {
				kept = append(kept, r)
			}
		}
		n.Records = kept
		out = append(out, n)
	}
	return out, dead
}

// sameNotices reports whether got and want hold the same notices, with
// the same records in the same order (nil and empty alike).
func sameNotices(got, want []Notice) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.Tag != w.Tag || len(g.Pages) != len(w.Pages) || len(g.Records) != len(w.Records) {
			return false
		}
		for j := range g.Records {
			if g.Records[j].Addr != w.Records[j].Addr || !bytes.Equal(g.Records[j].Data, w.Records[j].Data) {
				return false
			}
		}
	}
	return true
}

// FuzzLastRecordWins checks the last-record-wins rule where it applies.
// A train's shared list leaves out exactly the records the rule names
// (so records of another length at the same address stay) and keeps
// every notice; each suffix of it, which is what a backlog is, read back
// hop by hop off the wire, leaves a receiver with the bytes the same
// suffix unfiltered would. An Inline list grown by With, one hop at a
// time through a decoded grant, holds no dead record, leaves the bytes
// the whole list unfiltered would, and never writes into the body it was
// decoded from.
func FuzzLastRecordWins(f *testing.F) {
	f.Add([]byte{0x01, 0, 3, 0x01, 0, 3, 0x01, 0, 3})                   // one record stored three times
	f.Add([]byte{0x02, 4, 3, 4, 1, 0x21, 4, 1, 0x11, 0x21, 4, 3})       // same address, two lengths
	f.Add([]byte{0x03, 0, 3, 2, 1, 5, 2, 0x10, 0x41, 2, 1, 0x01, 0, 3}) // overlaps, an empty notice
	f.Fuzz(func(t *testing.T, data []byte) {
		ns := fuzzNotices(data)
		if len(ns) == 0 {
			return
		}
		want, wantDead := lastWinsOf(ns)

		// The train: one entry per suffix, longest first.
		var w TrainWriter
		for k := len(ns); k > 0; k-- {
			w.Add(uint32(k), uint32(100+k), k)
		}
		tr, dead := w.Train(ns)
		if dead != wantDead {
			t.Fatalf("Train left out %d records, the rule names %d", dead, wantDead)
		}
		body := Encode(&NextWaiter{Train: tr})
		var nw NextWaiter
		if err := DecodeAlias(&nw, body); err != nil {
			t.Fatal(err)
		}
		for tr, k := nw.Train, len(ns); tr.Len() > 0; k-- {
			head, rest := tr.Head()
			got := head.Notices.Notices()
			if k == len(ns) && !sameNotices(got, want) {
				t.Fatalf("the shared list is not the rule's:\n got %+v\nwant %+v", got, want)
			}
			if len(got) != k || !bytes.Equal(applied(got), applied(ns[len(ns)-k:])) {
				t.Fatalf("the %d-notice backlog applies to % x, unfiltered to % x", k, applied(got), applied(ns[len(ns)-k:]))
			}
			tr = rest
		}

		// Inline, grown hop by hop.
		var inline NoticeList
		for i := range ns {
			body := Encode(&LockGrant{Inline: inline})
			was := bytes.Clone(body)
			var g LockGrant
			if err := DecodeAlias(&g, body); err != nil {
				t.Fatal(err)
			}
			inline = g.Inline.With(&ns[i])
			if !bytes.Equal(body, was) {
				t.Fatalf("hop %d: With wrote into the body its list was decoded from", i)
			}
			got := inline.Notices()
			if clean, dead := lastWinsOf(got); dead != 0 || !sameNotices(got, clean) {
				t.Fatalf("hop %d: Inline holds %d dead records", i, dead)
			}
			if !bytes.Equal(applied(got), applied(ns[:i+1])) {
				t.Fatalf("hop %d: Inline applies to % x, unfiltered to % x", i, applied(got), applied(ns[:i+1]))
			}
		}
		if got := inline.Notices(); !sameNotices(got, want) {
			t.Fatalf("Inline is not the rule's list:\n got %+v\nwant %+v", got, want)
		}
	})
}

// The rule runs on scratch kept with the pooled codecs: composing a
// train, or extending Inline, over a list full of dead records allocates
// only the encoded bytes, as it does over a list with none.
func TestLastRecordWinsAllocatesOnlyTheList(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	var acc []byte // one record stored again by every notice
	for i := 0; i < 32; i++ {
		acc = append(acc, 0x11, 8, 7)
	}
	ns := fuzzNotices(acc)
	var dead int
	train := testing.AllocsPerRun(100, func() {
		var w TrainWriter
		w.Add(1, 101, len(ns))
		w.Add(2, 102, len(ns)/2)
		_, dead = w.Train(ns)
	})
	if dead != len(ns)-1 || train != 1 {
		t.Errorf("a train over %d stores of one record left out %d and allocated %v objects, want %d and 1", len(ns), dead, train, len(ns)-1)
	}
	inline := NoticesOf(ns[:len(ns)-1])
	if with := testing.AllocsPerRun(100, func() { inline.With(&ns[len(ns)-1]) }); with != 1 {
		t.Errorf("extending Inline over %d dead records allocated %v objects, want 1", len(ns)-2, with)
	}
}
