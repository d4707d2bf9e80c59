// Package scl implements the Samhita Communication Layer: the typed,
// transport-independent messaging interface the rest of the system is
// written against.
//
// In the paper, SCL abstracts the interconnect so that Samhita can run
// over InfiniBand verbs today and SCIF/PCIe tomorrow; it presents a
// direct-memory-access communication model rather than a serial
// protocol. Here the same role is played by the Endpoint interface:
// the DSM components speak proto messages to an Endpoint and do not know
// whether bytes move through the virtual-time simulated fabric
// (SimEndpoint, used by all experiments) or a real network transport
// (TCPEndpoint, provided to demonstrate that the abstraction is honest).
package scl

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/proto"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

// NodeID identifies an endpoint. It is shared with the simulated fabric.
type NodeID = simnet.NodeID

// Endpoint is one component's attachment to the communication layer.
type Endpoint interface {
	// ID returns this endpoint's node id.
	ID() NodeID
	// Call sends req and blocks for the response, which it decodes into
	// resp (whose Kind must match the response on the wire). at is the
	// caller's virtual time when the call is issued; the returned time is
	// the caller's virtual time when the response is in hand.
	Call(dst NodeID, req proto.Msg, resp proto.Msg, at vtime.Time) (vtime.Time, error)
	// Start sends req like Call but returns at once: p.Wait reaps the
	// response, and reports a failure to send too. The caller owns p.
	Start(dst NodeID, req proto.Msg, at vtime.Time, p *Pending)
	// Post sends a one-way message, returning the sender's virtual time
	// after the send overhead. Delivery is asynchronous.
	Post(dst NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error)
	// Recv blocks for the next incoming request; ok is false once the
	// endpoint is closed.
	Recv() (req Request, ok bool)
	// Close detaches the endpoint.
	Close()
}

// Pending is one call in flight: an endpoint's Start sends the request
// into it and Wait reaps the answer, the post-then-reap shape of the
// verbs interfaces the paper's SCL wraps. The caller owns it; the
// transport keeps no reference to it once Start returns, so it may be
// reused after Wait, even after a Wait that gave up on its answer.
type Pending struct {
	via waiter // the endpoint that reaps the answer; nil: nobody answers
	dst NodeID
	at  vtime.Time
	sim simnet.Pending // a SimEndpoint's call
	tcp chan frame     // a TCPEndpoint's: its answer, or closed when its connection dies
	req proto.Msg      // a RetryEndpoint's: what each attempt sends,
	try *Pending       // and the attempt in flight
	ans proto.Msg      // Settle's answer
	err error          // or error
}

// waiter is an endpoint that reaps the answers to the calls it starts.
// stop, when it fires first, abandons the wait with errStopped.
type waiter interface {
	wait(p *Pending, resp proto.Msg, stop <-chan time.Time) (vtime.Time, error)
}

var errStopped = simnet.ErrStopped

// Settle completes p with no transport, as an endpoint that refuses a
// send, or a fake that answers in place, does in Start: Wait returns done
// and err, or decodes answer, if any, into its resp.
func (p *Pending) Settle(answer proto.Msg, done vtime.Time, err error) {
	*p = Pending{via: settled{}, at: done, ans: answer, err: err}
}

type settled struct{}

func (settled) wait(p *Pending, resp proto.Msg, _ <-chan time.Time) (vtime.Time, error) {
	if p.err != nil || p.ans == nil {
		return p.at, p.err
	}
	return p.at, decodeResponse(p.ans.Kind(), proto.Encode(p.ans), resp)
}

// Wait blocks for the answer to p's call and decodes it into resp (whose
// Kind must match the answer on the wire). It returns the caller's
// virtual time when the answer is in hand, or the call's error.
func (p *Pending) Wait(resp proto.Msg) (vtime.Time, error) { return p.wait(resp, nil) }

func (p *Pending) wait(resp proto.Msg, stop <-chan time.Time) (vtime.Time, error) {
	if p.via == nil {
		<-stop
		return p.at, errStopped
	}
	return p.via.wait(p, resp, stop)
}

// Request is one incoming message plus the means to answer it — possibly
// later and from another goroutine (deferred replies implement lock
// queues, barrier parking and fetch-after-diff waits). It travels by
// value, and a copy answers the same caller. Only the first answer to a
// call counts: the fabric drops a second one (simnet.Message's replied
// flag), and over TCP it reaches a call that is no longer pending. The
// zero Request is one nobody waits on.
type Request struct {
	src    NodeID
	kind   proto.Kind
	wait   bool // the sender waits for an answer
	body   []byte
	arrive vtime.Time
	svc    vtime.Time
	// An answer goes through reply or, when that is nil, through sim, the
	// fabric's own request: a method value of sim would be a closure
	// allocated on every simulated receive.
	reply func(kind uint16, body []byte, at vtime.Time)
	sim   simnet.Request
}

// NewRequest makes a request from src that reply answers, as the TCP
// endpoint and any Endpoint outside this package do; nil makes it one-way.
func NewRequest(src NodeID, kind proto.Kind, body []byte, reply func(kind uint16, body []byte, at vtime.Time)) Request {
	return Request{src: src, kind: kind, body: body, wait: reply != nil, reply: reply}
}

// At returns r arriving at arrive, with svc of per-request service: how
// a transport stamps what it received, and how a harness that steps a
// component without one makes a request with an arrival.
func (r Request) At(arrive, svc vtime.Time) Request {
	r.arrive, r.svc = arrive, svc
	return r
}

// Src reports the sending node.
func (r *Request) Src() NodeID { return r.src }

// Kind reports the message kind.
func (r *Request) Kind() proto.Kind { return r.kind }

// Arrive reports the virtual arrival time at the receiver.
func (r *Request) Arrive() vtime.Time { return r.arrive }

// Svc reports the link's per-request service time.
func (r *Request) Svc() vtime.Time { return r.svc }

// OneWay reports whether nobody waits for an answer: the sender of a
// one-way message, or nobody at all (the zero Request).
func (r *Request) OneWay() bool { return !r.wait }

// BodyLen reports the encoded body size in bytes.
func (r *Request) BodyLen() int { return len(r.body) }

// Body exposes the raw encoded body. The manager's replication layer
// appends it to the log verbatim so followers re-decode exactly what the
// leader received. Callers must not mutate it.
func (r *Request) Body() []byte { return r.body }

// Decode unmarshals the request body into m, which must match the
// request's kind.
func (r *Request) Decode(m proto.Msg) error {
	if m.Kind() != r.kind {
		return fmt.Errorf("scl: decoding %v request into %v", r.kind, m.Kind())
	}
	return proto.Decode(m, r.body)
}

// DecodeAlias unmarshals like Decode but lets m's byte payloads alias
// the request body instead of copying them (see proto.DecodeAlias).
// The body stays reachable as long as m does, and a request body is
// never pooled, so the only obligation on the caller is not to mutate
// the aliased bytes (the replication log may hold the same body).
func (r *Request) DecodeAlias(m proto.Msg) error {
	if m.Kind() != r.kind {
		return fmt.Errorf("scl: decoding %v request into %v", r.kind, m.Kind())
	}
	return proto.DecodeAlias(m, r.body)
}

// MustDecode decodes a one-way message into m, aliasing its body (see
// DecodeAlias). There is nobody to tell that it is malformed, and that
// is a protocol bug, so it panics.
func (r *Request) MustDecode(m proto.Msg) {
	if err := r.DecodeAlias(m); err != nil {
		panic(fmt.Sprintf("scl: bad %v: %v", r.kind, err))
	}
}

// Reply answers the request at virtual time at on the responder's clock.
func (r *Request) Reply(m proto.Msg, at vtime.Time) { r.ReplyBody(m.Kind(), proto.Encode(m), at) }

// ReplyBody is Reply for an answer that is already encoded: a responder
// that composes its answers first and sends them afterwards keeps bodies,
// not messages.
func (r *Request) ReplyBody(kind proto.Kind, body []byte, at vtime.Time) {
	switch {
	case r.reply != nil:
		r.reply(uint16(kind), body, at)
	case r.sim != (simnet.Request{}):
		r.sim.Reply(uint16(kind), body, at)
	default:
		panic(fmt.Sprintf("scl: reply to a %v request nobody waits on", r.kind))
	}
}

// ReplyError answers the request with a generic protocol-level error.
func (r *Request) ReplyError(err error, at vtime.Time) {
	r.Reply(Refusal(proto.CodeGeneric, err), at)
}

// SimEndpoint adapts a simnet.Port to the Endpoint interface.
type SimEndpoint struct {
	port   *simnet.Port
	fabric *simnet.Fabric
}

// NewSimEndpoint attaches a new endpoint with the given id to the
// fabric.
func NewSimEndpoint(f *simnet.Fabric, id NodeID) *SimEndpoint {
	return &SimEndpoint{port: f.NewPort(id), fabric: f}
}

// Sequenced reports whether the underlying fabric delivers messages in
// deterministic virtual-arrival order (see simnet.Fabric.Sequence).
// Wall-clock-driven layers (retry timeouts) must refuse such fabrics.
func (e *SimEndpoint) Sequenced() bool { return e.fabric.Sequenced() }

// ID implements Endpoint.
func (e *SimEndpoint) ID() NodeID { return e.port.ID() }

// Call implements Endpoint: Start then Wait.
func (e *SimEndpoint) Call(dst NodeID, req proto.Msg, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	var p Pending
	if e.Start(dst, req, at, &p); p.err != nil {
		return at, p.err
	}
	return e.wait(&p, resp, nil)
}

// Start implements Endpoint.
func (e *SimEndpoint) Start(dst NodeID, req proto.Msg, at vtime.Time, p *Pending) {
	*p = Pending{via: e, dst: dst, at: at}
	if err := e.port.Start(dst, uint16(req.Kind()), proto.Encode(req), at, &p.sim); err != nil {
		p.Settle(nil, at, simSendErr(err))
	}
}

func (e *SimEndpoint) wait(p *Pending, resp proto.Msg, stop <-chan time.Time) (vtime.Time, error) {
	kind, body, doneAt, err := p.sim.Wait(stop)
	if err != nil {
		return p.at, simSendErr(err)
	}
	return doneAt, decodeResponse(proto.Kind(kind), body, resp)
}

// Post implements Endpoint.
func (e *SimEndpoint) Post(dst NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error) {
	doneAt, err := e.port.Post(dst, uint16(m.Kind()), proto.Encode(m), at)
	return doneAt, simSendErr(err)
}

// simSendErr types a send to a port that is gone (the peer exited or was
// killed and its port is already unregistered) like the fault injector
// types a send to a node it killed: transient, unwrapping to
// proto.ErrPeerDied, so the retry and failover layers treat both the
// same. Any other fabric error passes through.
func simSendErr(err error) error {
	if errors.Is(err, simnet.ErrPeerGone) {
		return Transient(fmt.Errorf("%w: %w", err, proto.ErrPeerDied))
	}
	return err
}

// Recv implements Endpoint.
func (e *SimEndpoint) Recv() (Request, bool) {
	sr, ok := e.port.Recv()
	if !ok {
		return Request{}, false
	}
	return Request{
		src:    sr.Src(),
		kind:   proto.Kind(sr.Kind()),
		wait:   !sr.OneWay(),
		body:   sr.Body(),
		arrive: sr.Arrive(),
		svc:    sr.Svc(),
		sim:    sr,
	}, true
}

// Close implements Endpoint.
func (e *SimEndpoint) Close() { e.port.Close() }

// RemoteError is a protocol-level error response from a peer. Its code
// unwraps to the matching proto sentinel, so callers can distinguish an
// orderly shutdown (proto.ErrShutdown) from a crash the manager's lease
// table detected (proto.ErrPeerDied) with errors.Is.
type RemoteError struct {
	Code uint16
	Text string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("scl: remote error: %s", e.Text) }

// Unwrap exposes the sentinel for the error's code (nil for generic).
func (e *RemoteError) Unwrap() error { return proto.CodeErr(e.Code) }

// decodeResponse interprets a raw response, translating wire-level
// errors. Both transports hand a call its reply in a buffer of its own,
// so the caller of Call owns body. A byte payload resp brings the room
// for (a fetch's pooled line frame) is filled in place; any other
// aliases body (proto.DecodeAliased). A body that nothing decoded from
// it aliases is handed back to the pool here, its owner's last use of
// it: a fetch answer's pooled body, or a TCP frame, which only joins the
// pool if it happens to be of a class size.
func decodeResponse(kind proto.Kind, body []byte, resp proto.Msg) error {
	if kind == proto.KError {
		var pe proto.Error
		err := proto.Decode(&pe, body)
		proto.PutBuf(body)
		if err != nil {
			return fmt.Errorf("scl: undecodable error response: %w", err)
		}
		return &RemoteError{Code: pe.Code, Text: pe.Text}
	}
	if kind != resp.Kind() {
		return fmt.Errorf("scl: got %v response, want %v", kind, resp.Kind())
	}
	aliased, err := proto.DecodeAliased(resp, body)
	if !aliased {
		proto.PutBuf(body)
	}
	return err
}
