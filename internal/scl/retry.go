package scl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// This file is the SCL robustness layer: error classification (which
// failures are safe to retry), a configurable retry/timeout policy, and
// an Endpoint wrapper applying that policy to Call and Post. The paper's
// SCL is a transport abstraction the consistency protocol must survive
// on any substrate (IB verbs, SCIF/PCIe, TCP); transports differ exactly
// in how they fail, so the failure contract lives here rather than in
// each transport.
//
// The contract: a *transient* error means the attempt did not reach the
// peer's protocol logic (dead connection before the write, injected
// drop, partition refusal, dial failure) or the transport cannot say
// whether it did (read-side connection death, per-attempt timeout).
// Retrying transients is therefore at-least-once delivery; the DSM
// protocol messages this layer carries are either idempotent (fetches,
// diff application of absolute bytes) or retried only on pre-send
// failure by the fault injector. Everything else — remote protocol
// errors, decode mismatches, deliberate local close — is terminal and
// surfaces immediately.

// ErrUnreachable is the sentinel matched by errors.Is for calls and
// posts that exhausted their retry budget. The concrete error is an
// *UnreachableError carrying the destination, attempt count and last
// transport failure.
var ErrUnreachable = errors.New("scl: peer unreachable")

// UnreachableError reports that every attempt permitted by a RetryPolicy
// failed with a transient transport error.
type UnreachableError struct {
	Node     NodeID
	Attempts int
	Err      error // last transient failure
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("scl: node %d unreachable after %d attempts: %v", e.Node, e.Attempts, e.Err)
}

// Unwrap exposes the last transport failure.
func (e *UnreachableError) Unwrap() error { return e.Err }

// Is matches ErrUnreachable.
func (e *UnreachableError) Is(target error) bool { return target == ErrUnreachable }

// TransientError marks a transport failure as retryable. Transports (and
// the fault injector) wrap their connection-level failures with
// Transient at the point where they know the failure class.
type TransientError struct{ Err error }

func (e *TransientError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as retryable. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// Transientf is Transient(fmt.Errorf(...)).
func Transientf(format string, args ...any) error {
	return &TransientError{Err: fmt.Errorf(format, args...)}
}

// IsTransient reports whether err is safe to retry. Explicitly wrapped
// transients qualify, as do raw network/connection failures that escaped
// wrapping. An exhausted retry (ErrUnreachable) is terminal — nesting
// retry layers must not multiply attempts.
//
// A remote proto.ErrNotLeader is also transient: a manager replica that
// answers "not the leader" is alive but mid-election, so backing off
// and re-sending (the runtime redirects the re-send to the new leader)
// is the correct reaction. A remote proto.ErrShutdown stays terminal —
// a deposed leader must answer CodeNotLeader, not CodeShutdown, so that
// client-initiated shutdown keeps its terminal meaning.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, ErrUnreachable) {
		return false
	}
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	if errors.Is(err, proto.ErrNotLeader) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// RetryPolicy bounds how hard the layer tries before declaring a peer
// unreachable. The zero value means one attempt, no timeout — exactly
// the behaviour of an unwrapped endpoint except that failures are
// classified.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per Call/Post (<= 0
	// means 1; there are MaxAttempts-1 retries).
	MaxAttempts int
	// Timeout bounds one Call attempt in wall-clock time (0 = none).
	// CAUTION: per-attempt timeouts are only safe for calls that the
	// peer answers promptly or that are idempotent. DSM calls that
	// legitimately park — lock queues, barrier waits, fetches parked on
	// interval tags — must run with Timeout 0 or the retry would
	// re-enter the protocol. Connection-death detection (not timeouts)
	// is what unsticks those calls when a peer dies.
	Timeout time.Duration
	// Deadline bounds the whole Call/Post across attempts and backoff
	// (0 = none). Unlike Timeout it is always safe: a Call attempt
	// still in flight when the deadline expires is abandoned and the
	// whole call fails with ErrUnreachable — the call gives up for
	// good, it does not re-enter the protocol.
	Deadline time.Duration
	// Backoff is the sleep before the second attempt; it doubles per
	// retry (0 = 1ms when retries happen).
	Backoff time.Duration
	// BackoffCap caps the exponential backoff (0 = 100ms).
	BackoffCap time.Duration
}

// DefaultRetryPolicy is a reasonable policy for DSM traffic: generous
// attempts with fast, capped backoff, no per-attempt timeout (see the
// Timeout caveat), and an overall deadline so nothing blocks forever in
// the face of a persistent partition.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 8,
	Backoff:     200 * time.Microsecond,
	BackoffCap:  10 * time.Millisecond,
	Deadline:    30 * time.Second,
}

// backoffAt returns the sleep before attempt i (i >= 1: the i'th retry),
// exponential with cap.
func (p RetryPolicy) backoffAt(i int) time.Duration {
	b := p.Backoff
	if b <= 0 {
		b = time.Millisecond
	}
	cap := p.BackoffCap
	if cap <= 0 {
		cap = 100 * time.Millisecond
	}
	for ; i > 1 && b < cap; i-- {
		b *= 2
	}
	if b > cap {
		b = cap
	}
	return b
}

// runWithRetry drives attempt() under the policy. attempt receives the
// attempt's index and its timeout and returns the virtual completion
// time. nst may be nil.
func runWithRetry(pol RetryPolicy, nst *stats.Net, dst NodeID, attempt func(i int, timeout time.Duration) (vtime.Time, error)) (vtime.Time, error) {
	attempts := pol.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var deadline time.Time
	if pol.Deadline > 0 {
		deadline = time.Now().Add(pol.Deadline)
	}
	var last error
	tried := 0
	for i := 0; i < attempts; i++ {
		if i > 0 {
			d := pol.backoffAt(i)
			if !deadline.IsZero() {
				left := time.Until(deadline)
				if left <= 0 {
					break
				}
				if d > left {
					d = left
				}
			}
			time.Sleep(d)
			if nst != nil {
				nst.Retries.Add(1)
			}
		}
		// The overall Deadline bounds in-flight attempts too: with no
		// per-attempt Timeout, the remaining budget becomes this
		// attempt's timeout, so a peer that accepts the call but never
		// answers cannot block past the deadline.
		timeout := pol.Timeout
		if !deadline.IsZero() {
			left := time.Until(deadline)
			if left <= 0 {
				break
			}
			if timeout <= 0 || left < timeout {
				timeout = left
			}
		}
		tried++
		if nst != nil {
			nst.Attempts.Add(1)
		}
		doneAt, err := attempt(i, timeout)
		if err == nil {
			return doneAt, nil
		}
		last = err
		if !IsTransient(err) {
			return 0, err
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
	}
	if nst != nil {
		nst.Unreachable.Add(1)
	}
	return 0, &UnreachableError{Node: dst, Attempts: tried, Err: last}
}

// RetryEndpoint applies a RetryPolicy to an inner endpoint's Call and
// Post. Recv and Close pass through. It is the piece the runtime wraps
// around every component endpoint so the cache-agent, memory-server and
// manager traffic all survives transient transport failures.
type RetryEndpoint struct {
	inner Endpoint
	pol   RetryPolicy
	nst   *stats.Net
}

// WithRetry wraps inner with the policy. nst, if non-nil, receives
// attempt/retry/timeout/unreachable counters; pass nil to skip counting.
//
// It panics when inner rides a sequenced (deterministic) fabric: retry
// is wall-clock driven — attempt timeouts, backoff sleeps — while a
// sequenced fabric decides delivery from a ledger of parked goroutines,
// so a timer-fired re-send would both break determinism and corrupt the
// runnable-token accounting. Failing loudly here beats the silent
// deadlock it would otherwise become.
func WithRetry(inner Endpoint, pol RetryPolicy, nst *stats.Net) *RetryEndpoint {
	if sc, ok := inner.(interface{ Sequenced() bool }); ok && sc.Sequenced() {
		panic("scl: retry layer over a sequenced fabric (wall-clock timeouts break deterministic delivery)")
	}
	return &RetryEndpoint{inner: inner, pol: pol, nst: nst}
}

// ID implements Endpoint.
func (e *RetryEndpoint) ID() NodeID { return e.inner.ID() }

// Call implements Endpoint: Start then Wait.
func (e *RetryEndpoint) Call(dst NodeID, req proto.Msg, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	var p Pending
	e.Start(dst, req, at, &p)
	return e.wait(&p, resp, nil)
}

// Start implements Endpoint: it starts the first attempt on the inner
// endpoint, and Wait makes the rest. req must stay as it is until then.
func (e *RetryEndpoint) Start(dst NodeID, req proto.Msg, at vtime.Time, p *Pending) {
	try := p.try
	if try == nil {
		try = new(Pending)
	}
	*p = Pending{via: e, dst: dst, at: at, req: req, try: try}
	e.inner.Start(dst, req, at, try)
}

// wait reaps each attempt, re-sending after a transient failure, until
// one is answered or the policy is exhausted (*UnreachableError). An
// attempt that outlasts the policy's per-attempt Timeout is abandoned and
// counts as transient; its late answer lands in the abandoned call,
// never in resp. The policy bounds the wait, so stop is not consulted.
func (e *RetryEndpoint) wait(p *Pending, resp proto.Msg, _ <-chan time.Time) (vtime.Time, error) {
	doneAt, err := runWithRetry(e.pol, e.nst, p.dst, func(i int, timeout time.Duration) (vtime.Time, error) {
		if i > 0 {
			e.inner.Start(p.dst, p.req, p.at, p.try)
		}
		var stop <-chan time.Time
		if timeout > 0 {
			timer := time.NewTimer(timeout)
			defer timer.Stop()
			stop = timer.C
		}
		doneAt, err := p.try.wait(resp, stop)
		if err == errStopped {
			if e.nst != nil {
				e.nst.Timeouts.Add(1)
			}
			return 0, Transientf("scl: call to node %d timed out after %v", p.dst, timeout)
		}
		return doneAt, err
	})
	if err != nil {
		return p.at, err
	}
	return doneAt, nil
}

// Post implements Endpoint with the same retry treatment; the retried
// send blocks the caller, so per-sender message ordering is preserved.
func (e *RetryEndpoint) Post(dst NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error) {
	doneAt, err := runWithRetry(e.pol, e.nst, dst, func(int, time.Duration) (vtime.Time, error) {
		return e.inner.Post(dst, m, at)
	})
	if err != nil {
		return at, err
	}
	return doneAt, nil
}

// Recv implements Endpoint.
func (e *RetryEndpoint) Recv() (Request, bool) { return e.inner.Recv() }

// Close implements Endpoint.
func (e *RetryEndpoint) Close() { e.inner.Close() }
