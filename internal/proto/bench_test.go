package proto

import "testing"

// Host-clock benchmarks of the notice paths of a lock passage and a
// barrier (ROADMAP item 5). Fixed shapes: a notice names 4 page words
// and carries 2 records of 24 bytes, as in allocSamples.

var benchSink int

func benchNotices(n int) []Notice {
	ns := make([]Notice, n)
	for i := range ns {
		ns[i] = Notice{
			Seq: uint64(i + 1), Tag: IntervalTag{Writer: uint32(i%255 + 1), Interval: uint64(i/255 + 1)},
			Pages: []uint64{uint64(4 * i), PackSpanExtent(64, 32), uint64(4*i + 1), PackSpanExtent(128, 32)},
			Records: []StoreRecord{
				{Addr: uint64(1<<34 + 48*i), Data: make([]byte, 24)},
				{Addr: uint64(1<<34 + 48*i + 24), Data: make([]byte, 24)},
			},
		}
	}
	return ns
}

// BenchmarkTrainForward is one hop of a handoff convoy: the grant that
// arrived is decoded, its receiver's entry split off the train, and the
// grant for the next holder encoded with the closing interval added to
// Inline and the rest of the train, 32 entries, forwarded whole.
func BenchmarkTrainForward(b *testing.B) {
	backlog := benchNotices(8)
	body := Encode(&LockGrant{Lock: 1, Gen: 2, Seq: 3, Inline: NoticesOf(backlog[:2]), Train: trainOf(33, backlog)})
	closing := backlog[7]
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var g LockGrant
		if err := DecodeAlias(&g, body); err != nil {
			b.Fatal(err)
		}
		_, rest := g.Train.Head()
		_, node := rest.Next()
		out := Encode(&LockGrant{Lock: g.Lock, Gen: g.Gen + 1, Seq: g.Seq, Inline: g.Inline.With(&closing), Train: rest})
		benchSink += len(out) + int(node)
	}
}

// BenchmarkNoticeListDecode is the acquire side: a 256-notice barrier
// reply decoded as the caller of a simulated Call decodes it, and the
// two lists of a grant at the head of a 32-entry train materialised as
// applyGrant materialises them.
func BenchmarkNoticeListDecode(b *testing.B) {
	b.Run("barrier256", func(b *testing.B) {
		body := Encode(&BarrierResp{Seq: 256, Notices: benchNotices(256)})
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var resp BarrierResp
			if err := DecodeAlias(&resp, body); err != nil {
				b.Fatal(err)
			}
			benchSink += len(resp.Notices)
		}
	})
	b.Run("grant-train32", func(b *testing.B) {
		backlog := benchNotices(8)
		body := Encode(&LockGrant{Lock: 1, Gen: 2, Seq: 3, Inline: NoticesOf(backlog[:2]), Train: trainOf(33, backlog)})
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var g LockGrant
			if err := DecodeAlias(&g, body); err != nil {
				b.Fatal(err)
			}
			own, rest := g.Train.Head()
			benchSink += len(own.Notices.Notices()) + len(g.Inline.Notices()) + rest.Len()
		}
	})
}
