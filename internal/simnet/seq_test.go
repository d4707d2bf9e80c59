package simnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/vtime"
)

// seqEcho is a sequenced fabric with an echo server at node 1 and a
// client port at node 2. The caller's goroutine holds a runnable token
// from here until stop, as the Gate conventions ask; served collects the
// kinds of the one-way messages the server took, in the order it took
// them.
func seqEcho() (f *Fabric, cli *Port, served *[]uint16, stop func()) {
	f = NewFabric(testModel)
	f.Sequence()
	gate := f.Gate()
	srv := f.NewPort(1)
	cli = f.NewPort(2)
	served = new([]uint16)
	var wg sync.WaitGroup
	wg.Add(1)
	gate.Resume() // this goroutine
	gate.Resume() // the server
	go func() {
		defer wg.Done()
		defer gate.Pause()
		for {
			req, ok := srv.Recv()
			if !ok {
				return
			}
			if req.OneWay() {
				*served = append(*served, req.Kind())
			} else {
				req.Reply(req.Kind(), req.Body(), req.Arrive()+req.Svc())
			}
		}
	}()
	return f, cli, served, func() {
		cli.Close()
		srv.Close()
		wg.Wait()
		gate.Pause()
	}
}

// A sequenced port hands its messages over in virtual-arrival order,
// whatever order they were sent in, round after round: the grant queue
// drains and refills through the same array.
func TestSequencedDeliveryIsInVirtualOrder(t *testing.T) {
	f, cli, served, stop := seqEcho()
	defer stop()
	want := []uint16{}
	for round := 0; round < 4; round++ {
		// Sent latest first; kind k is sent at virtual time 1000*k.
		for k := 8; k >= 1; k-- {
			kind := uint16(10*round + k)
			if _, err := cli.Post(1, kind, nil, vtime.Time(1000*int(kind))); err != nil {
				t.Fatal(err)
			}
		}
		for k := 1; k <= 8; k++ {
			want = append(want, uint16(10*round+k))
		}
		f.Quiesce(1)
		if len(*served) != len(want) {
			t.Fatalf("round %d: %d messages served, want %d", round, len(*served), len(want))
		}
		for i := range want {
			if (*served)[i] != want[i] {
				t.Fatalf("round %d: served %v, want %v", round, *served, want)
			}
		}
		// A call between rounds goes through the same queue.
		if kind, _, _, err := cli.Call(1, 99, []byte("x"), vtime.Time(1000*(10*round+9))); err != nil || kind != 99 {
			t.Fatalf("round %d: call: kind %d, err %v", round, kind, err)
		}
	}
}

// An answer that lands before its caller waits credits nobody (the one
// rule, Handoff): the caller starts a call, then blocks on a second one,
// and the first call's reply arrives while it is parked on the second. A
// reply that credited unconditionally would leave a token with a caller
// that is not waiting for it, the ledger would never read zero again, and
// the second call would never be delivered.
func TestAnswerBeforeWaitCreditsNobody(t *testing.T) {
	_, cli, _, stop := seqEcho()
	done := make(chan error, 1)
	go func() {
		var first Pending
		if err := cli.Start(1, 5, nil, 0, &first); err != nil {
			done <- err
			return
		}
		if kind, _, _, err := cli.Call(1, 6, nil, 1000); err != nil || kind != 6 {
			done <- fmt.Errorf("second call: kind %d, err %v", kind, err)
			return
		}
		if kind, _, _, err := first.Wait(nil); err != nil || kind != 5 {
			done <- fmt.Errorf("first call: kind %d, err %v", kind, err)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		stop()
	case <-time.After(5 * time.Second):
		t.Fatal("the second call was never delivered: the first call's early reply left a floating token")
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// A sequenced round trip allocates the request and nothing else: the
// reply channel is recycled, and the sequencer's bookkeeping, the receive
// and the reply cost nothing.
func TestSequencedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	_, cli, _, stop := seqEcho()
	defer stop()
	body := make([]byte, 64)
	var at vtime.Time
	var err error
	call := func() { _, _, at, err = cli.Call(1, 7, body, at) }
	for i := 0; i < 64; i++ { // grow the heap and the grant queue once
		call()
	}
	if got := testing.AllocsPerRun(200, call); err != nil || got > 1 {
		t.Fatalf("a sequenced call allocates %v objects (err %v), want at most 1", got, err)
	}
}

// BenchmarkSequencedCall is one RPC through the sequencer: insert, step,
// grant, receive, reply.
func BenchmarkSequencedCall(b *testing.B) {
	_, cli, _, stop := seqEcho()
	defer stop()
	body := make([]byte, 64)
	var at vtime.Time
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N && err == nil; i++ {
		_, _, at, err = cli.Call(1, 7, body, at)
	}
	if err != nil {
		b.Fatal(err)
	}
}
