package simnet

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vtime"
)

// testModel: 1 us latency, 1 GB/s (1 byte/ns), no overheads, 100 ns svc.
var testModel = vtime.LinkModel{
	Name:         "test",
	Latency:      1000,
	BytesPerSec:  1e9,
	SendOverhead: 50,
	ServiceTime:  100,
}

func TestPostDeliversWithModeledArrival(t *testing.T) {
	f := NewFabric(testModel)
	a := f.NewPort(1)
	b := f.NewPort(2)

	done, err := a.Post(2, 7, []byte("hello"), 500)
	if err != nil {
		t.Fatal(err)
	}
	if done != 550 { // send time + overhead
		t.Errorf("sender done at %v, want 550", done)
	}
	req, ok := b.Recv()
	if !ok {
		t.Fatal("Recv failed")
	}
	if req.Kind() != 7 || string(req.Body()) != "hello" || req.Src() != 1 {
		t.Errorf("bad request: kind=%d body=%q src=%d", req.Kind(), req.Body(), req.Src())
	}
	// arrival = 550 + latency 1000 + (5+32 bytes at 1 B/ns) = 1587
	if req.Arrive() != 1587 {
		t.Errorf("Arrive = %v, want 1587", req.Arrive())
	}
	if req.Svc() != 100 {
		t.Errorf("Svc = %v, want 100", req.Svc())
	}
	if !req.OneWay() {
		t.Error("Post should produce a one-way request")
	}
}

func TestCallRoundTrip(t *testing.T) {
	f := NewFabric(testModel)
	cli := f.NewPort(1)
	srv := f.NewPort(2)

	go func() {
		req, ok := srv.Recv()
		if !ok {
			t.Error("server Recv failed")
			return
		}
		if req.OneWay() {
			t.Error("Call should not be one-way")
			return
		}
		// Server handles at arrival + service.
		at := req.Arrive() + req.Svc()
		req.Reply(req.Kind()+1, []byte("pong"), at)
	}()

	kind, body, doneAt, err := cli.Call(2, 10, []byte("ping"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if kind != 11 || string(body) != "pong" {
		t.Errorf("resp kind=%d body=%q", kind, body)
	}
	// Request: send 0+50, arrive 50+1000+36=1086, svc -> 1186.
	// Reply: 1186+50 send, arrive 1236+1000+36 = 2272.
	if doneAt != 2272 {
		t.Errorf("doneAt = %v, want 2272", doneAt)
	}
}

func TestCallToMissingPortFails(t *testing.T) {
	f := NewFabric(testModel)
	a := f.NewPort(1)
	if _, _, _, err := a.Call(99, 1, nil, 0); err == nil {
		t.Fatal("Call to missing port succeeded")
	}
	if _, err := a.Post(99, 1, nil, 0); err == nil {
		t.Fatal("Post to missing port succeeded")
	}
}

func TestDuplicatePortPanics(t *testing.T) {
	f := NewFabric(testModel)
	f.NewPort(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate NewPort did not panic")
		}
	}()
	f.NewPort(1)
}

func TestReplyToOneWayPanics(t *testing.T) {
	f := NewFabric(testModel)
	a := f.NewPort(1)
	b := f.NewPort(2)
	if _, err := a.Post(2, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	req, _ := b.Recv()
	defer func() {
		if recover() == nil {
			t.Fatal("Reply to one-way did not panic")
		}
	}()
	req.Reply(2, nil, 0)
}

func TestCloseUnblocksRecv(t *testing.T) {
	f := NewFabric(testModel)
	p := f.NewPort(1)
	done := make(chan bool)
	go func() {
		_, ok := p.Recv()
		done <- ok
	}()
	p.Close()
	if ok := <-done; ok {
		t.Fatal("Recv on closed port returned ok")
	}
	// Sending to a closed (removed) port fails.
	q := f.NewPort(2)
	if _, err := q.Post(1, 1, nil, 0); err == nil {
		t.Fatal("Post to closed port succeeded")
	}
	// Close is idempotent.
	p.Close()
}

func TestFIFOPerSender(t *testing.T) {
	f := NewFabric(testModel)
	a := f.NewPort(1)
	b := f.NewPort(2)
	at := vtime.Time(0)
	for i := 0; i < 100; i++ {
		var err error
		at, err = a.Post(2, uint16(i), nil, at)
		if err != nil {
			t.Fatal(err)
		}
	}
	prev := vtime.Time(-1)
	for i := 0; i < 100; i++ {
		req, ok := b.Recv()
		if !ok {
			t.Fatal("Recv failed")
		}
		if req.Kind() != uint16(i) {
			t.Fatalf("message %d arrived out of order (kind %d)", i, req.Kind())
		}
		if req.Arrive() <= prev {
			t.Fatalf("arrivals not strictly increasing: %v after %v", req.Arrive(), prev)
		}
		prev = req.Arrive()
	}
}

func TestTrafficAccounting(t *testing.T) {
	f := NewFabric(testModel)
	a := f.NewPort(1)
	f.NewPort(2)
	if _, err := a.Post(2, 1, make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if got := f.Messages(); got != 1 {
		t.Errorf("Messages = %d", got)
	}
	if got := f.Bytes(); got != 100+HeaderBytes {
		t.Errorf("Bytes = %d, want %d", got, 100+HeaderBytes)
	}
}

func TestLinkFnSelectsPerPair(t *testing.T) {
	fast := vtime.LinkModel{Name: "fast", Latency: 10, BytesPerSec: 1e9, ServiceTime: 1}
	slow := vtime.LinkModel{Name: "slow", Latency: 10000, BytesPerSec: 1e9, ServiceTime: 1}
	f := NewFabric(slow)
	f.SetLinkFn(func(src, dst NodeID) vtime.LinkModel {
		if src == 1 && dst == 2 {
			return fast
		}
		return slow
	})
	a := f.NewPort(1)
	b := f.NewPort(2)
	if _, err := a.Post(2, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	req, _ := b.Recv()
	if req.Arrive() != 10+HeaderBytes { // latency + 32B at 1 B/ns
		t.Errorf("fast-link arrival = %v, want 42", req.Arrive())
	}
}

func TestConcurrentCallsAllAnswered(t *testing.T) {
	f := NewFabric(testModel)
	srv := f.NewPort(1000)
	const clients = 16
	go func() {
		for i := 0; i < clients; i++ {
			req, ok := srv.Recv()
			if !ok {
				return
			}
			req.Reply(req.Kind(), req.Body(), req.Arrive()+req.Svc())
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := f.NewPort(NodeID(c))
			kind, body, _, err := p.Call(1000, uint16(c), []byte{byte(c)}, vtime.Time(c))
			if err != nil || kind != uint16(c) || body[0] != byte(c) {
				t.Errorf("client %d: kind=%d err=%v", c, kind, err)
			}
		}(c)
	}
	wg.Wait()
}

// Property: arrival is never before send time + latency, regardless of
// size or clock.
func TestArrivalLowerBoundProperty(t *testing.T) {
	f := NewFabric(testModel)
	a := f.NewPort(1)
	b := f.NewPort(2)
	go func() {
		for {
			req, ok := b.Recv()
			if !ok {
				return
			}
			_ = req
		}
	}()
	prop := func(at uint32, size uint16) bool {
		m := &Message{Src: 1, Kind: 1, Body: make([]byte, int(size)%2048), dst: 2}
		_, err := f.deliver(1, b, m, vtime.Time(at))
		if err != nil {
			return false
		}
		return m.Arrive >= vtime.Time(at)+testModel.Latency
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b.Close()
}

// A call waits on its destination as well as on its reply: a request
// still queued at a port that closes, and one the port's owner received
// and parked for a deferred reply, both fail typed instead of hanging.
func TestCallFailsWhenDestinationCloses(t *testing.T) {
	f := NewFabric(testModel)
	srv := f.NewPort(2)
	errs := make(chan error, 2)
	call := func(id NodeID) {
		p := f.NewPort(id)
		go func() {
			_, _, _, err := p.Call(2, 1, nil, 0)
			errs <- err
		}()
	}
	call(1)
	if _, ok := srv.Recv(); !ok { // parked: taken, never answered
		t.Fatal("Recv failed")
	}
	call(3)
	for deadline := time.Now().Add(5 * time.Second); len(srv.inbox) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second call never reached the inbox")
		}
	}
	srv.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrPeerGone) {
				t.Errorf("call pending at a closed port: %v, want ErrPeerGone", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a call pending at a closed port is still waiting")
		}
	}
}

// A peer that answers and then closes has answered: the caller takes the
// reply whichever of the two it notices first.
func TestCallTakesReplySentBeforeClose(t *testing.T) {
	f := NewFabric(testModel)
	cli := f.NewPort(1)
	for i := 0; i < 200; i++ {
		srv := f.NewPort(2)
		go func() {
			req, _ := srv.Recv()
			req.Reply(9, nil, req.Arrive())
			srv.Close()
		}()
		if kind, _, _, err := cli.Call(2, 1, nil, 0); err != nil || kind != 9 {
			t.Fatalf("round %d: kind %d, err %v; want the reply", i, kind, err)
		}
		srv.Close() // idempotent; frees id 2 for the next round even if the goroutine has not got there
	}
}

// parkedCall starts a call from cli to srv and returns the request as
// srv's owner holds it, with the channel the result arrives on.
func parkedCall(t *testing.T, cli, srv *Port, kind uint16) (Request, <-chan result) {
	t.Helper()
	done := make(chan result, 1)
	go func() {
		k, _, _, err := cli.Call(srv.ID(), kind, nil, 0)
		done <- result{k, err}
	}()
	req, ok := srv.Recv()
	if !ok || req.Kind() != kind {
		t.Fatalf("Recv: kind %d, ok %v; want request %d", req.Kind(), ok, kind)
	}
	return req, done
}

type result struct {
	kind uint16
	err  error
}

// Only the first reply to a request counts. The caller's channel goes
// back to the free list once it has been read, so a second answer would
// land in whichever call took the channel next.
func TestSecondReplyIsDropped(t *testing.T) {
	f := NewFabric(testModel)
	cli, srv := f.NewPort(1), f.NewPort(2)
	reused := false
	for round := 0; round < 100 && !reused; round++ {
		first, done := parkedCall(t, cli, srv, 1)
		first.Reply(10, nil, first.Arrive())
		if r := <-done; r.err != nil || r.kind != 10 {
			t.Fatalf("first call: %+v", r)
		}
		sent := f.Messages()
		second, done := parkedCall(t, cli, srv, 2)
		reused = reused || second.msg.call == first.msg.call
		first.Reply(11, nil, first.Arrive()) // must reach nobody
		if f.Messages() != sent+1 {
			t.Fatal("a dropped reply was charged to the wire")
		}
		second.Reply(20, nil, second.Arrive())
		if r := <-done; r.err != nil || r.kind != 20 {
			t.Fatalf("second call got %+v, want its own reply 20", r)
		}
		if len(second.msg.call.ch) != 0 {
			t.Fatal("a reply is left over in the recycled channel")
		}
	}
	if !reused && !raceEnabled {
		t.Fatal("no call in 100 rounds reused the channel of the one before: the test proved nothing")
	}
}

// A call that gives up because the peer closed keeps its channel out of
// the free list: a reply racing the close may still land in it, and must
// not become the answer to a later call.
func TestFailedCallAbandonsItsChannel(t *testing.T) {
	f := NewFabric(testModel)
	cli, gone, srv := f.NewPort(1), f.NewPort(2), f.NewPort(3)
	lost, done := parkedCall(t, cli, gone, 1)
	gone.Close()
	if r := <-done; !errors.Is(r.err, ErrPeerGone) {
		t.Fatalf("call to a closing port: %+v, want ErrPeerGone", r)
	}
	// What a Reply that passed its closed-port check just before the
	// close does next.
	lost.msg.call.ch <- response{kind: 66}
	for i := 0; i < 50; i++ {
		req, done := parkedCall(t, cli, srv, 2)
		if req.msg.call == lost.msg.call {
			t.Fatal("the failed call's channel was recycled")
		}
		req.Reply(20, nil, req.Arrive())
		if r := <-done; r.err != nil || r.kind != 20 {
			t.Fatalf("call %d after the failure got %+v, want its own reply 20", i, r)
		}
	}
}
