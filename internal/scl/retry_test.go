package scl

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// flakyEndpoint fails the first failN Call/Post attempts with the given
// error, then succeeds, answering an AllocReq with an AllocResp.
type flakyEndpoint struct {
	mu    sync.Mutex
	failN int
	calls int
	posts int
	err   error
	block bool // never answer (for timeout tests)
}

func (f *flakyEndpoint) ID() NodeID { return 1 }

func (f *flakyEndpoint) Call(dst NodeID, req proto.Msg, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	var p Pending
	f.Start(dst, req, at, &p)
	return p.Wait(resp)
}

func (f *flakyEndpoint) Start(dst NodeID, req proto.Msg, at vtime.Time, p *Pending) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	switch {
	case f.block:
		*p = Pending{} // never answered; the wrapper's timeout must fire
	case n <= f.failN:
		p.Settle(nil, at, f.err)
	case req.Kind() == proto.KAllocReq:
		p.Settle(&proto.AllocResp{Addr: 42}, at+100, nil)
	default:
		p.Settle(nil, at+100, nil)
	}
}

func (f *flakyEndpoint) Post(dst NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error) {
	f.mu.Lock()
	f.posts++
	n := f.posts
	f.mu.Unlock()
	if n <= f.failN {
		return at, f.err
	}
	return at + 10, nil
}

func (f *flakyEndpoint) Recv() (Request, bool) { return Request{}, false }
func (f *flakyEndpoint) Close()                {}

func TestBackoffExponentialWithCap(t *testing.T) {
	p := RetryPolicy{Backoff: time.Millisecond, BackoffCap: 5 * time.Millisecond}
	want := []time.Duration{
		1 * time.Millisecond, // retry 1
		2 * time.Millisecond, // retry 2
		4 * time.Millisecond, // retry 3
		5 * time.Millisecond, // retry 4: capped
		5 * time.Millisecond, // retry 5: capped
	}
	for i, w := range want {
		if got := p.backoffAt(i + 1); got != w {
			t.Errorf("backoffAt(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Defaults kick in for the zero policy.
	z := RetryPolicy{}
	if got := z.backoffAt(1); got != time.Millisecond {
		t.Errorf("zero-policy backoffAt(1) = %v", got)
	}
	if got := z.backoffAt(30); got != 100*time.Millisecond {
		t.Errorf("zero-policy backoffAt(30) = %v, want capped 100ms", got)
	}
}

func TestTransientClassification(t *testing.T) {
	if IsTransient(nil) {
		t.Error("nil is transient")
	}
	if !IsTransient(Transientf("boom")) {
		t.Error("wrapped transient not recognized")
	}
	if IsTransient(errors.New("scl: remote error: no")) {
		t.Error("plain error treated as transient")
	}
	un := &UnreachableError{Node: 3, Attempts: 5, Err: Transientf("x")}
	if IsTransient(un) {
		t.Error("exhausted retry must be terminal, not transient")
	}
	if !errors.Is(un, ErrUnreachable) {
		t.Error("UnreachableError does not match ErrUnreachable")
	}
	if !IsTransient(Transient(errors.New("wrapped"))) {
		t.Error("Transient() not recognized")
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
}

func TestRetryMasksTransientFailures(t *testing.T) {
	inner := &flakyEndpoint{failN: 3, err: Transientf("injected")}
	nst := new(stats.Net)
	ep := WithRetry(inner, RetryPolicy{MaxAttempts: 5, Backoff: time.Microsecond}, nst)
	var resp proto.AllocResp
	doneAt, err := ep.Call(2, &proto.AllocReq{Size: 1}, &resp, 1000)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Addr != 42 || doneAt != 1100 {
		t.Errorf("resp.Addr=%d doneAt=%v", resp.Addr, doneAt)
	}
	if got := nst.Retries.Load(); got != 3 {
		t.Errorf("Retries = %d, want 3", got)
	}
	if got := nst.Attempts.Load(); got != 4 {
		t.Errorf("Attempts = %d, want 4", got)
	}
}

func TestRetryExhaustionSurfacesErrUnreachable(t *testing.T) {
	inner := &flakyEndpoint{failN: 1 << 30, err: Transientf("still down")}
	nst := new(stats.Net)
	ep := WithRetry(inner, RetryPolicy{MaxAttempts: 3, Backoff: time.Microsecond}, nst)
	var resp proto.AllocResp
	_, err := ep.Call(7, &proto.AllocReq{}, &resp, 0)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	var ue *UnreachableError
	if !errors.As(err, &ue) || ue.Node != 7 || ue.Attempts != 3 {
		t.Fatalf("UnreachableError = %+v", ue)
	}
	if inner.calls != 3 {
		t.Errorf("inner attempts = %d, want 3", inner.calls)
	}
	if got := nst.Unreachable.Load(); got != 1 {
		t.Errorf("Unreachable = %d", got)
	}
}

func TestRetryDoesNotRetryTerminalErrors(t *testing.T) {
	terminal := errors.New("scl: remote error: denied")
	inner := &flakyEndpoint{failN: 1 << 30, err: terminal}
	ep := WithRetry(inner, RetryPolicy{MaxAttempts: 5, Backoff: time.Microsecond}, nil)
	var resp proto.AllocResp
	_, err := ep.Call(2, &proto.AllocReq{}, &resp, 0)
	if !errors.Is(err, terminal) {
		t.Fatalf("err = %v", err)
	}
	if inner.calls != 1 {
		t.Errorf("terminal error retried %d times", inner.calls)
	}
}

func TestRetryPerAttemptTimeout(t *testing.T) {
	inner := &flakyEndpoint{block: true}
	nst := new(stats.Net)
	ep := WithRetry(inner, RetryPolicy{
		MaxAttempts: 2,
		Timeout:     20 * time.Millisecond,
		Backoff:     time.Microsecond,
	}, nst)
	start := time.Now()
	var resp proto.AllocResp
	_, err := ep.Call(2, &proto.AllocReq{}, &resp, 0)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Errorf("timed-out call took %v", e)
	}
	if got := nst.Timeouts.Load(); got != 2 {
		t.Errorf("Timeouts = %d, want 2", got)
	}
}

func TestRetryDeadlineBoundsAttempts(t *testing.T) {
	inner := &flakyEndpoint{failN: 1 << 30, err: Transientf("down")}
	ep := WithRetry(inner, RetryPolicy{
		MaxAttempts: 1 << 20,
		Backoff:     5 * time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		Deadline:    25 * time.Millisecond,
	}, nil)
	var resp proto.AllocResp
	start := time.Now()
	_, err := ep.Call(2, &proto.AllocReq{}, &resp, 0)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if e := time.Since(start); e > time.Second {
		t.Errorf("deadline did not bound the call: %v", e)
	}
	// An attempt abandoned at the deadline may still be running; read the
	// counter under the endpoint's lock.
	inner.mu.Lock()
	calls := inner.calls
	inner.mu.Unlock()
	if calls >= 1<<19 {
		t.Errorf("deadline did not bound attempts: %d", calls)
	}
}

// Satellite: the overall Deadline must fire even when no per-attempt
// Timeout is configured and the peer accepts the call but never answers
// — the in-flight attempt is abandoned at the deadline and the call
// fails typed with ErrUnreachable instead of hanging forever.
func TestRetryDeadlineFiresWithoutPerAttemptTimeout(t *testing.T) {
	inner := &flakyEndpoint{block: true}
	nst := new(stats.Net)
	ep := WithRetry(inner, RetryPolicy{
		MaxAttempts: 1 << 20,
		Timeout:     0, // no per-attempt timeout: the attempt blocks
		Backoff:     time.Microsecond,
		Deadline:    50 * time.Millisecond,
	}, nst)
	start := time.Now()
	var resp proto.AllocResp
	_, err := ep.Call(2, &proto.AllocReq{}, &resp, 0)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("deadline did not cut off the blocked call: took %v", e)
	}
	// The abandoned attempt's goroutine may still be alive; read the
	// counter under the endpoint's lock.
	inner.mu.Lock()
	calls := inner.calls
	inner.mu.Unlock()
	if calls > 2 {
		t.Errorf("blocked call was attempted %d times", calls)
	}
}

func TestPostRetries(t *testing.T) {
	inner := &flakyEndpoint{failN: 2, err: Transientf("drop")}
	nst := new(stats.Net)
	ep := WithRetry(inner, RetryPolicy{MaxAttempts: 5, Backoff: time.Microsecond}, nst)
	doneAt, err := ep.Post(2, &proto.Shutdown{}, 50)
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	if doneAt != 60 {
		t.Errorf("doneAt = %v", doneAt)
	}
	if inner.posts != 3 {
		t.Errorf("posts = %d, want 3", inner.posts)
	}
}

// The retry layer is wall-clock driven; wrapping an endpoint of a
// sequenced (deterministic) fabric must fail loudly at construction,
// not deadlock the runnable-token ledger at the first timeout.
func TestWithRetryRefusesSequencedFabric(t *testing.T) {
	f := simnet.NewFabric(vtime.QDRInfiniBand)
	f.Sequence()
	ep := NewSimEndpoint(f, 1)
	defer ep.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("WithRetry accepted a sequenced-fabric endpoint")
		}
	}()
	WithRetry(ep, DefaultRetryPolicy, nil)
}

// An unsequenced fabric stays accepted — the guard must not over-fire.
func TestWithRetryAcceptsUnsequencedFabric(t *testing.T) {
	f := simnet.NewFabric(vtime.QDRInfiniBand)
	ep := NewSimEndpoint(f, 1)
	defer ep.Close()
	WithRetry(ep, DefaultRetryPolicy, nil)
}

// Replicated-manager error classification: a deposed leader answers
// CodeNotLeader, which must be retryable — the caller backs off and the
// runtime redirects the re-send to the promoted replica. An orderly
// CodeShutdown keeps its terminal meaning: client-initiated shutdown
// must not be retried into a dead endpoint.
func TestNotLeaderRetryableShutdownTerminal(t *testing.T) {
	if !IsTransient(&RemoteError{Code: proto.CodeNotLeader, Text: "deposed"}) {
		t.Error("remote CodeNotLeader is not transient")
	}
	if IsTransient(&RemoteError{Code: proto.CodeShutdown, Text: "bye"}) {
		t.Error("remote CodeShutdown treated as transient")
	}

	// A replica that answers "not the leader" a few times while the
	// election settles is masked by the retry layer.
	inner := &flakyEndpoint{failN: 3, err: &RemoteError{Code: proto.CodeNotLeader, Text: "deposed"}}
	ep := WithRetry(inner, RetryPolicy{MaxAttempts: 6, Backoff: time.Microsecond}, nil)
	var resp proto.AllocResp
	if _, err := ep.Call(2, &proto.AllocReq{Size: 1}, &resp, 0); err != nil {
		t.Fatalf("NotLeader responses not masked: %v", err)
	}
	if resp.Addr != 42 {
		t.Errorf("resp.Addr = %d", resp.Addr)
	}
	if inner.calls != 4 {
		t.Errorf("attempts = %d, want 4", inner.calls)
	}

	// Shutdown surfaces immediately, typed, after exactly one attempt.
	down := &flakyEndpoint{failN: 1 << 30, err: &RemoteError{Code: proto.CodeShutdown, Text: "bye"}}
	ep = WithRetry(down, RetryPolicy{MaxAttempts: 6, Backoff: time.Microsecond}, nil)
	_, err := ep.Call(2, &proto.AllocReq{}, &resp, 0)
	if !errors.Is(err, proto.ErrShutdown) {
		t.Fatalf("err = %v, want ErrShutdown", err)
	}
	if down.calls != 1 {
		t.Errorf("terminal shutdown retried %d times", down.calls)
	}
}

// electionEndpoint models a manager mid-election: the first deposed
// calls answer CodeNotLeader, then the (stale) address stops answering
// entirely — the hang a client would see if it kept talking to a dead
// leader the whole election.
type electionEndpoint struct {
	mu      sync.Mutex
	deposed int
	calls   int
}

func (f *electionEndpoint) ID() NodeID { return 1 }

func (f *electionEndpoint) Call(dst NodeID, req proto.Msg, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	var p Pending
	f.Start(dst, req, at, &p)
	return p.Wait(resp)
}

func (f *electionEndpoint) Start(dst NodeID, req proto.Msg, at vtime.Time, p *Pending) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if n <= f.deposed {
		p.Settle(nil, at, &RemoteError{Code: proto.CodeNotLeader, Text: "election in progress"})
		return
	}
	*p = Pending{} // never answered: the stale leader address goes dark
}

func (f *electionEndpoint) Post(dst NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error) {
	return at, &RemoteError{Code: proto.CodeNotLeader, Text: "election in progress"}
}
func (f *electionEndpoint) Recv() (Request, bool) { return Request{}, false }
func (f *electionEndpoint) Close()                {}

// The election-stall regression: with no per-attempt Timeout, the
// overall Deadline must still bound a Call whose later attempt is
// accepted but never answered mid-election. The call retries the
// NotLeader answers, then fails typed with ErrUnreachable at the
// deadline instead of hanging on the dark leader.
func TestDeadlineBoundsInFlightDuringElection(t *testing.T) {
	inner := &electionEndpoint{deposed: 2}
	nst := new(stats.Net)
	ep := WithRetry(inner, RetryPolicy{
		MaxAttempts: 1 << 20,
		Backoff:     time.Microsecond,
		BackoffCap:  time.Millisecond,
		Deadline:    50 * time.Millisecond,
	}, nst)
	start := time.Now()
	var resp proto.AllocResp
	_, err := ep.Call(2, &proto.AllocReq{}, &resp, 0)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("deadline did not bound the in-flight election call: took %v", e)
	}
	inner.mu.Lock()
	calls := inner.calls
	inner.mu.Unlock()
	if calls < 3 {
		t.Errorf("NotLeader answers were not retried: %d attempts", calls)
	}
	if nst.Retries.Load() == 0 {
		t.Error("no retries recorded for the deposed answers")
	}
}
