package scl

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/vtime"
)

// newTCPPair starts a client and a server endpoint sharing one address
// book and registers cleanup.
func newTCPPair(t *testing.T) (cli, srv *TCPEndpoint, book *AddressBook) {
	t.Helper()
	book = NewAddressBook()
	var err error
	srv, err = NewTCPEndpoint(2, "127.0.0.1:0", book, testModel)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	t.Cleanup(srv.Close)
	cli, err = NewTCPEndpoint(1, "127.0.0.1:0", book, testModel)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(cli.Close)
	return cli, srv, book
}

// TestTCPPeerDeathFailsPendingCall is the hang-forever repro: the server
// receives the request and dies without answering. Before the fix, the
// pending call blocked on its response channel forever; now the client's
// read loop notices the dead connection and fails the call.
func TestTCPPeerDeathFailsPendingCall(t *testing.T) {
	cli, srv, _ := newTCPPair(t)

	got := make(chan struct{})
	go func() {
		if _, ok := srv.Recv(); ok {
			close(got)
			// Die without replying: every connection closes.
			srv.Close()
		}
	}()

	errC := make(chan error, 1)
	go func() {
		var resp proto.AllocResp
		_, err := cli.Call(2, &proto.AllocReq{Size: 1}, &resp, 0)
		errC <- err
	}()

	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("server never received the request")
	}
	select {
	case err := <-errC:
		if err == nil {
			t.Fatal("Call succeeded though the peer died without replying")
		}
		// Transient: the cue a retry layer above would act on.
		if !IsTransient(err) {
			t.Errorf("peer-death error = %v, want a transient error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call still hanging 5s after peer death — hang-forever bug")
	}
	if got := cli.NetStats().StrandedCalls.Load(); got == 0 {
		t.Error("StrandedCalls not counted")
	}
	if got := cli.NetStats().DeadConns.Load(); got == 0 {
		t.Error("DeadConns not counted")
	}
}

// TestTCPDeadConnEvictedAndRedialed kills the server, observes a clean
// failure, restarts a server under the same node id at a fresh address,
// and checks the next call redials and succeeds.
func TestTCPDeadConnEvictedAndRedialed(t *testing.T) {
	cli, srv, book := newTCPPair(t)
	go echoAlloc(t, srv)

	var resp proto.AllocResp
	if _, err := cli.Call(2, &proto.AllocReq{Size: 5}, &resp, 0); err != nil {
		t.Fatalf("warm-up call: %v", err)
	}

	srv.Close()
	// The cached connection is now dead; without retries the next call
	// must fail fast (stranded or refused), not hang.
	errC := make(chan error, 1)
	go func() {
		var r proto.AllocResp
		_, err := cli.Call(2, &proto.AllocReq{Size: 6}, &r, 0)
		errC <- err
	}()
	select {
	case err := <-errC:
		if err == nil {
			t.Fatal("call to dead server succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call to dead server hung")
	}

	// Restart the "node 2" server at a new address; book.Set repoints it.
	srv2, err := NewTCPEndpoint(2, "127.0.0.1:0", book, testModel)
	if err != nil {
		t.Fatalf("restart server: %v", err)
	}
	t.Cleanup(srv2.Close)
	go echoAlloc(t, srv2)

	// The dead connection must have been evicted so this redials.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var r proto.AllocResp
		_, err := cli.Call(2, &proto.AllocReq{Size: 9}, &r, 0)
		if err == nil {
			if r.Addr != 9 {
				t.Fatalf("Addr = %d after redial", r.Addr)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("call never succeeded after restart: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if got := cli.NetStats().DeadConns.Load(); got == 0 {
		t.Error("DeadConns not counted after eviction")
	}
}

// TestTCPRetryMasksServerRestart wraps the client in the retry layer and
// checks a single Call survives the dead cached connection without the
// caller seeing an error.
func TestTCPRetryMasksServerRestart(t *testing.T) {
	cli, srv, _ := newTCPPair(t)
	ep := WithRetry(cli, RetryPolicy{MaxAttempts: 50, Backoff: time.Millisecond, BackoffCap: 10 * time.Millisecond}, cli.NetStats())
	go echoAlloc(t, srv)

	var resp proto.AllocResp
	if _, err := ep.Call(2, &proto.AllocReq{Size: 5}, &resp, 0); err != nil {
		t.Fatalf("warm-up call: %v", err)
	}
	srv.Close() // cached conn is now dead; next call's first attempts fail

	var r proto.AllocResp
	done := make(chan error, 1)
	go func() {
		_, err := ep.Call(2, &proto.AllocReq{Size: 7}, &r, 0)
		done <- err
	}()
	// Restart happens while the retry loop is backing off. Rebind node 2.
	time.Sleep(5 * time.Millisecond)
	srv2, err := NewTCPEndpoint(2, "127.0.0.1:0", cli.book, testModel)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(srv2.Close)
	go echoAlloc(t, srv2)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("retry did not mask the restart: %v", err)
		}
		if r.Addr != 7 {
			t.Errorf("Addr = %d", r.Addr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retried call hung")
	}
	if got := cli.NetStats().Retries.Load(); got == 0 {
		t.Error("no retries counted though first attempts must have failed")
	}
}

// TestTCPCallUnreachable exhausts retries against a node with no
// listener and checks the typed terminal error.
func TestTCPCallUnreachable(t *testing.T) {
	cli, _, book := newTCPPair(t)
	ep := WithRetry(cli, RetryPolicy{MaxAttempts: 3, Backoff: time.Microsecond}, cli.NetStats())
	// Node 9: address points at a closed port.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	book.Set(9, addr)

	var resp proto.AllocResp
	_, err = ep.Call(9, &proto.AllocReq{}, &resp, 0)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	var ue *UnreachableError
	if !errors.As(err, &ue) || ue.Node != 9 || ue.Attempts != 3 {
		t.Fatalf("UnreachableError = %+v", ue)
	}
	if got := cli.NetStats().Unreachable.Load(); got != 1 {
		t.Errorf("Unreachable = %d", got)
	}
}

// TestTCPCallTimeoutAndStaleResponse bounds each attempt against a
// server that answers too late: the call times out (counted), and the
// late responses land in the abandoned attempts, not in the caller's
// response or in a later call's.
func TestTCPCallTimeoutAndStaleResponse(t *testing.T) {
	cli, srv, _ := newTCPPair(t)
	ep := WithRetry(cli, RetryPolicy{MaxAttempts: 2, Timeout: 50 * time.Millisecond, Backoff: time.Microsecond}, cli.NetStats())

	release := make(chan struct{})
	go func() {
		for {
			req, ok := srv.Recv()
			if !ok {
				return
			}
			go func(req Request) {
				<-release // answer only when told to — far past the timeout
				var ar proto.AllocReq
				if err := req.Decode(&ar); err != nil {
					t.Error(err)
					return
				}
				req.Reply(&proto.AllocResp{Addr: ar.Size}, req.Arrive()+req.Svc())
			}(req)
		}
	}()

	var resp proto.AllocResp
	start := time.Now()
	_, err := ep.Call(2, &proto.AllocReq{Size: 1}, &resp, 0)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("timed-out call took %v", e)
	}
	if got := cli.NetStats().Timeouts.Load(); got != 2 {
		t.Errorf("Timeouts = %d, want 2", got)
	}

	// Let the parked replies flow, then make a call that is answered.
	close(release)
	var later proto.AllocResp
	if _, err := ep.Call(2, &proto.AllocReq{Size: 5}, &later, 0); err != nil {
		t.Fatal(err)
	}
	if later.Addr != 5 || resp.Addr != 0 {
		t.Fatalf("late replies leaked: later call got %d, timed-out call %d", later.Addr, resp.Addr)
	}
}

// TestTCPReplyWriteErrorCountsAndDropsConn connects with a raw socket,
// sends a request, and slams the connection shut (RST via SO_LINGER 0)
// before the reply; the server's reply write must fail, be counted, and
// kill the connection rather than pass silently.
func TestTCPReplyWriteErrorCountsAndDropsConn(t *testing.T) {
	book := NewAddressBook()
	srv, err := NewTCPEndpoint(2, "127.0.0.1:0", book, testModel)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	addr, _ := book.Lookup(2)

	reqC := make(chan Request, 1)
	go func() {
		if req, ok := srv.Recv(); ok {
			reqC <- req
		}
	}()

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tc := &tcpConn{c: c, pending: make(map[uint64]chan frame)}
	f := &frame{kind: uint16(proto.KAllocReq), reqID: 1, vt: 0,
		body: proto.Encode(&proto.AllocReq{Size: 3})}
	if err := writeFrame(tc, f); err != nil {
		t.Fatal(err)
	}

	var req Request
	select {
	case req = <-reqC:
	case <-time.After(5 * time.Second):
		t.Fatal("server never received the raw request")
	}

	// RST the connection so the server's pending reply write fails.
	if tcp, ok := c.(*net.TCPConn); ok {
		tcp.SetLinger(0)
	}
	c.Close()
	time.Sleep(50 * time.Millisecond)

	// Large body so the write cannot be absorbed by socket buffers.
	big := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for srv.NetStats().WriteErrors.Load() == 0 {
		req.reply(uint16(proto.KAllocResp), big, vtime.Time(0))
		if time.Now().After(deadline) {
			t.Fatal("reply write error never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The dead connection must have been dropped.
	if got := srv.NetStats().DeadConns.Load(); got == 0 {
		t.Error("reply write error did not drop the connection")
	}
}
