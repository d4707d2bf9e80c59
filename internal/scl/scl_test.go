package scl

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

var testModel = vtime.LinkModel{
	Name:         "test",
	Latency:      1000,
	BytesPerSec:  1e9,
	SendOverhead: 50,
	ServiceTime:  100,
}

// echoAlloc answers AllocReq with AllocResp{Addr: Size} and errors on
// FreeReq; used to exercise both reply paths.
func echoAlloc(t *testing.T, e Endpoint) {
	for {
		req, ok := e.Recv()
		if !ok {
			return
		}
		switch req.Kind() {
		case proto.KAllocReq:
			var ar proto.AllocReq
			if err := req.Decode(&ar); err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			req.Reply(&proto.AllocResp{Addr: ar.Size}, req.Arrive()+req.Svc())
		case proto.KFreeReq:
			req.ReplyError(errors.New("no free for you"), req.Arrive()+req.Svc())
		case proto.KShutdown:
			if !req.OneWay() {
				req.Reply(&proto.Ack{}, req.Arrive())
			}
			return
		default:
			t.Errorf("unexpected kind %v", req.Kind())
			return
		}
	}
}

func runEndpointSuite(t *testing.T, cli, srv Endpoint, srvID NodeID) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		echoAlloc(t, srv)
	}()

	var resp proto.AllocResp
	doneAt, err := cli.Call(srvID, &proto.AllocReq{Thread: 1, Size: 777}, &resp, 5000)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Addr != 777 {
		t.Errorf("Addr = %d, want 777", resp.Addr)
	}
	if doneAt <= 5000+2*testModel.Latency {
		t.Errorf("doneAt = %v, expected at least two latencies past 5000", doneAt)
	}

	// Error responses surface as Go errors.
	var ack proto.Ack
	if _, err := cli.Call(srvID, &proto.FreeReq{Addr: 1}, &ack, doneAt); err == nil {
		t.Error("error response did not produce an error")
	}

	// Kind mismatch is caught.
	var wrong proto.LockResp
	if _, err := cli.Call(srvID, &proto.AllocReq{Size: 1}, &wrong, doneAt); err == nil {
		t.Error("kind mismatch not caught")
	}

	// Shut the server down via a one-way post.
	if _, err := cli.Post(srvID, &proto.Shutdown{}, doneAt); err != nil {
		t.Fatalf("Post: %v", err)
	}
	wg.Wait()
	cli.Close()
	srv.Close()
}

func TestSimEndpoint(t *testing.T) {
	f := simnet.NewFabric(testModel)
	cli := NewSimEndpoint(f, 1)
	srv := NewSimEndpoint(f, 2)
	runEndpointSuite(t, cli, srv, 2)
}

// A send to a port that was never registered, or that has closed, is a
// dead peer: retryable, and a failover trigger once retries run out.
func TestSimSendToGonePortIsPeerDeath(t *testing.T) {
	f := simnet.NewFabric(testModel)
	cli := NewSimEndpoint(f, 1)
	defer cli.Close()
	closed := NewSimEndpoint(f, 2)
	closed.Close()
	for _, dst := range []NodeID{2, 10} {
		var ack proto.Ack
		_, callErr := cli.Call(dst, &proto.Ping{}, &ack, 0)
		_, postErr := cli.Post(dst, &proto.Ping{}, 0)
		for op, err := range map[string]error{"Call": callErr, "Post": postErr} {
			if !errors.Is(err, proto.ErrPeerDied) || !IsTransient(err) {
				t.Errorf("%s to gone port %d: %v (ErrPeerDied=%v transient=%v)",
					op, dst, err, errors.Is(err, proto.ErrPeerDied), IsTransient(err))
			}
		}
	}
}

// A call already pending at a peer that dies (queued in its inbox, or
// received and parked) fails the same way, instead of waiting for a
// reply nobody will send.
func TestSimCallPendingAtDyingPeerIsPeerDeath(t *testing.T) {
	f := simnet.NewFabric(testModel)
	srv := NewSimEndpoint(f, 2)
	errs := make(chan error, 2)
	for _, id := range []NodeID{1, 3} {
		cli := NewSimEndpoint(f, id)
		defer cli.Close()
		go func() {
			var ack proto.Ack
			_, err := cli.Call(2, &proto.Ping{}, &ack, 0)
			errs <- err
		}()
	}
	if _, ok := srv.Recv(); !ok { // one call parked; the other queued, or about to find the port gone
		t.Fatal("Recv failed")
	}
	srv.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, proto.ErrPeerDied) || !IsTransient(err) {
				t.Errorf("call pending at a dying peer: %v (ErrPeerDied=%v transient=%v)",
					err, errors.Is(err, proto.ErrPeerDied), IsTransient(err))
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a call pending at a dead peer is still waiting")
		}
	}
}

func TestTCPEndpoint(t *testing.T) {
	book := NewAddressBook()
	srv, err := NewTCPEndpoint(2, "127.0.0.1:0", book, testModel)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewTCPEndpoint(1, "127.0.0.1:0", book, testModel)
	if err != nil {
		t.Fatal(err)
	}
	runEndpointSuite(t, cli, srv, 2)
}

func TestTCPUnknownNode(t *testing.T) {
	book := NewAddressBook()
	cli, err := NewTCPEndpoint(1, "127.0.0.1:0", book, testModel)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var ack proto.Ack
	if _, err := cli.Call(99, &proto.AllocReq{}, &ack, 0); err == nil {
		t.Fatal("call to unknown node succeeded")
	}
}

func TestRequestDecodeKindMismatch(t *testing.T) {
	f := simnet.NewFabric(testModel)
	cli := NewSimEndpoint(f, 1)
	srv := NewSimEndpoint(f, 2)
	defer cli.Close()
	defer srv.Close()
	if _, err := cli.Post(2, &proto.AllocReq{Size: 1}, 0); err != nil {
		t.Fatal(err)
	}
	req, ok := srv.Recv()
	if !ok {
		t.Fatal("Recv failed")
	}
	var fr proto.FreeReq
	if err := req.Decode(&fr); err == nil {
		t.Fatal("Decode with wrong type succeeded")
	}
	var ar proto.AllocReq
	if err := req.Decode(&ar); err != nil || ar.Size != 1 {
		t.Fatalf("Decode: %v, Size=%d", err, ar.Size)
	}
	if req.BodyLen() == 0 {
		t.Error("BodyLen = 0")
	}
}

// Virtual-time equivalence: the same exchange must produce identical
// virtual timing over simnet and over TCP — the SCL abstraction promise.
func TestTransportVirtualTimeEquivalence(t *testing.T) {
	run := func(cli, srv Endpoint, srvID NodeID) vtime.Time {
		go func() {
			req, ok := srv.Recv()
			if !ok {
				return
			}
			req.Reply(&proto.AllocResp{Addr: 1}, req.Arrive()+req.Svc())
		}()
		var resp proto.AllocResp
		doneAt, err := cli.Call(srvID, &proto.AllocReq{Thread: 3, Size: 99, Align: 8}, &resp, 12345)
		if err != nil {
			t.Fatal(err)
		}
		cli.Close()
		srv.Close()
		return doneAt
	}

	f := simnet.NewFabric(testModel)
	simDone := run(NewSimEndpoint(f, 1), NewSimEndpoint(f, 2), 2)

	book := NewAddressBook()
	srv, err := NewTCPEndpoint(2, "127.0.0.1:0", book, testModel)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewTCPEndpoint(1, "127.0.0.1:0", book, testModel)
	if err != nil {
		t.Fatal(err)
	}
	tcpDone := run(cli, srv, 2)

	// simnet charges HeaderBytes=32 per message; TCP frames carry 23
	// header bytes. Sizes differ by a fixed 9 bytes each way, so allow
	// exactly that much skew at 1 byte/ns.
	diff := simDone - tcpDone
	if diff < 0 {
		diff = -diff
	}
	if diff > 2*vtime.Time(simnet.HeaderBytes) {
		t.Fatalf("virtual times diverge: sim=%v tcp=%v", simDone, tcpDone)
	}
}

func TestTCPHostileFrameClosesConnection(t *testing.T) {
	book := NewAddressBook()
	srv, err := NewTCPEndpoint(7, "127.0.0.1:0", book, testModel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, _ := book.Lookup(7)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A frame claiming a gigantic length must be rejected; the endpoint
	// drops the connection rather than allocating.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<31)
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("connection survived a hostile frame")
	}
	// The endpoint itself is still healthy for legitimate peers.
	cli, err := NewTCPEndpoint(8, "127.0.0.1:0", book, testModel)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	go func() {
		if req, ok := srv.Recv(); ok {
			req.Reply(&proto.Ack{}, req.Arrive())
		}
	}()
	var ack proto.Ack
	if _, err := cli.Call(7, &proto.Ping{}, &ack, 0); err != nil {
		t.Fatalf("endpoint unhealthy after hostile frame: %v", err)
	}
}

// A reply's payload aliases the reply body, and that body is the
// caller's alone: two clients that fetch the same server page and
// scribble over what they got — while the server keeps serving it — never
// touch the server's page or each other's reply. Run under -race.
func runReplyOwnership(t *testing.T, cliA, cliB, srv Endpoint, srvID NodeID) {
	t.Helper()
	const rounds = 50
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i)
	}
	want := append([]byte(nil), page...)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			req, ok := srv.Recv()
			if !ok || req.Kind() == proto.KShutdown {
				return
			}
			req.Reply(&proto.FetchLineResp{Data: page}, req.Arrive()+req.Svc())
		}
	}()
	var clients sync.WaitGroup
	for _, cli := range []Endpoint{cliA, cliB} {
		clients.Add(1)
		go func(cli Endpoint) {
			defer clients.Done()
			for i := 0; i < rounds; i++ {
				var resp proto.FetchLineResp
				if _, err := cli.Call(srvID, &proto.FetchLineReq{Line: 1}, &resp, 0); err != nil {
					t.Errorf("Call: %v", err)
					return
				}
				if string(resp.Data) != string(want) {
					t.Errorf("round %d: reply differs from the server's page", i)
					return
				}
				for j := range resp.Data { // what a cache does to an adopted line
					resp.Data[j] = 0xEE
				}
			}
		}(cli)
	}
	clients.Wait()
	if _, err := cliA.Post(srvID, &proto.Shutdown{}, 0); err != nil {
		t.Fatalf("Post: %v", err)
	}
	wg.Wait()
	if string(page) != string(want) {
		t.Error("a client's writes reached the server's page")
	}
	cliA.Close()
	cliB.Close()
	srv.Close()
}

func TestSimReplyOwnership(t *testing.T) {
	f := simnet.NewFabric(testModel)
	runReplyOwnership(t, NewSimEndpoint(f, 1), NewSimEndpoint(f, 3), NewSimEndpoint(f, 2), 2)
}

func TestTCPReplyOwnership(t *testing.T) {
	book := NewAddressBook()
	var eps [3]Endpoint
	for i := range eps {
		ep, err := NewTCPEndpoint(NodeID(i+1), "127.0.0.1:0", book, testModel)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	runReplyOwnership(t, eps[0], eps[2], eps[1], 2)
}
