package proto

import (
	"bytes"
	"testing"
)

// spanOf is the manager's directory span: the notices of ns (ascending
// Seq) with since < Seq <= upTo.
func spanOf(ns []Notice, since, upTo uint64) []Notice {
	var out []Notice
	for _, n := range ns {
		if n.Seq > since && n.Seq <= upTo {
			out = append(out, n)
		}
	}
	return out
}

// composed is w.Train's train, for callers that do not count dead
// records.
func composed(w *TrainWriter, shared []Notice) Train {
	t, _ := w.Train(shared)
	return t
}

// trainAt composes a train as the manager does: one entry per horizon,
// in queue order, each backlog (since, anchor] counted against the span
// from the lowest horizon.
func trainAt(board []Notice, anchor uint64, horizons []uint64) Train {
	lowest := anchor
	for _, h := range horizons {
		lowest = min(lowest, h)
	}
	shared := spanOf(board, lowest, anchor)
	var w TrainWriter
	for i, h := range horizons {
		w.Add(uint32(i+1), uint32(100+i), len(spanOf(board, h, anchor)))
	}
	return composed(&w, shared)
}

// A train whose waiters sit at distinct horizons hands every holder
// along it, hop by hop over the wire, exactly the backlog the manager
// would have encoded for that waiter alone; and each hop forwards the
// shared list trimmed to the longest backlog still ahead.
func TestTrainHeadsAreEachWaitersSpan(t *testing.T) {
	board := benchNotices(12) // Seq 1..12
	const anchor = 11
	horizons := []uint64{7, 2, 9, 5, 11, 0, 8}
	tr := trainAt(board, anchor, horizons)
	for i, since := range horizons {
		body := Encode(&LockGrant{Lock: 1, Gen: uint64(i + 1), Seq: anchor, Train: tr})
		var g LockGrant
		if err := DecodeAlias(&g, body); err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		head, rest := g.Train.Head()
		want := NoticesOf(spanOf(board, since, anchor))
		if head.Waiter != uint32(i+1) || head.WaiterNode != uint32(100+i) || head.Notices.n != want.n || !bytes.Equal(head.Notices.b, want.b) {
			t.Fatalf("hop %d: head %d@%d carries %d notices, want waiter %d@%d with the %d of (%d, %d]",
				i, head.Waiter, head.WaiterNode, head.Notices.n, i+1, 100+i, want.n, since, anchor)
		}
		longest := NoticeList{}
		for _, h := range horizons[i+1:] {
			if l := NoticesOf(spanOf(board, h, anchor)); l.n > longest.n {
				longest = l
			}
		}
		if rest.Len() != len(horizons)-i-1 || rest.list.n != longest.n || !bytes.Equal(rest.list.b, longest.b) {
			t.Fatalf("hop %d: the rest keeps %d entries and a %d-notice list, want %d and %d",
				i, rest.Len(), rest.list.n, len(horizons)-i-1, longest.n)
		}
		tr = rest
	}
	if tr.Len() != 0 {
		t.Fatalf("%d entries left after the last hop", tr.Len())
	}
}

// A train of one entry is that entry with its backlog inline, byte for
// byte as trains were encoded before they shared a list, and an empty
// train is its count alone; grants with neither kind of train keep their
// bodies.
func TestShortTrainsKeepTheirEncoding(t *testing.T) {
	backlog := benchNotices(3)
	var one TrainWriter
	one.Add(300, 7, len(backlog))
	var w Writer
	w.U64(1) // entries
	w.U32(300)
	w.U32(7)
	w.U64(uint64(len(backlog)))
	w.B = append(w.B, NoticesOf(backlog).b...)
	if got := Encode(&NextWaiter{Train: composed(&one, backlog)})[3:]; !bytes.Equal(got, w.B) {
		t.Fatalf("one-entry train encodes to % x, want % x", got, w.B)
	}
	if got := Encode(&NextWaiter{Train: composed(new(TrainWriter), backlog)}); !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("empty train encodes to % x", got)
	}
}

// Decoding validates every backlog count against the shared list, the
// head's and every later entry's, and TrainWriter refuses a shared list
// that is not exactly the longest backlog: a shorter one would not
// decode, and a longer one would read back as a one-entry train's
// backlog.
func TestTrainRejectsABacklogLongerThanItsList(t *testing.T) {
	list := NoticesOf(benchNotices(2))
	body := func(head, later uint64) []byte {
		var w Writer
		w.U32(5) // Lock
		w.U64(1) // Gen
		w.U64(2) // Seq
		w.U64(2) // two entries
		w.U32(1)
		w.U32(101)
		w.U64(uint64(list.n))
		w.B = append(w.B, list.b...)
		w.U64(head)
		w.U32(2)
		w.U32(102)
		w.U64(later)
		return w.B
	}
	if err := Decode(&NextWaiter{}, body(2, 1)); err != nil {
		t.Fatalf("counts within the list: %v", err)
	}
	for _, c := range []struct{ head, later uint64 }{{3, 1}, {1, 3}, {1 << 40, 0}} {
		for _, alias := range []bool{false, true} {
			var nw NextWaiter
			if _, err := decode(&nw, body(c.head, c.later), alias); err == nil {
				t.Errorf("counts %d and %d against a %d-notice list decoded (alias %v)", c.head, c.later, list.n, alias)
			}
		}
	}
	for _, backlog := range []int{3, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TrainWriter built a train whose longest backlog is %d notices on a list of 2", backlog)
				}
			}()
			var w TrainWriter
			w.Add(1, 101, backlog)
			w.Train(benchNotices(2))
		}()
	}
}
