// Package simnet provides the simulated interconnect fabric that stands
// in for the paper's physical transports (QDR InfiniBand between cluster
// nodes; the PCI Express bus between host and coprocessor in the
// heterogeneous-node mapping).
//
// The fabric moves real bytes between goroutines through channels, so
// the DSM protocol above it runs for real — pages are fetched, diffs
// are merged, locks are granted. Time, however, is virtual: every
// message carries the sender's virtual send time, and its arrival time
// is computed from a vtime.LinkModel (latency + size/bandwidth). A
// server that processes its inbox serially advances its own virtual
// clock past each arrival plus a per-request service time, which models
// queueing — the memory-server hot spots that motivate Samhita's striped
// allocation emerge from this rule rather than being scripted.
//
// simnet is deliberately unaware of the Samhita protocol: message kinds
// are opaque uint16s and bodies are opaque byte slices. Package scl
// layers the typed protocol on top.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vtime"
)

// NodeID identifies a fabric endpoint (a compute thread, a memory
// server, or the manager).
type NodeID uint32

// HeaderBytes is the fixed per-message framing overhead charged to the
// wire in addition to the body (addresses, kind, virtual timestamp,
// verbs/transport header in the real system).
const HeaderBytes = 32

// inboxDepth bounds each port's receive queue. Senders block when a
// receiver is this far behind, providing natural backpressure for
// one-way diff traffic.
const inboxDepth = 4096

// Message is one unit of traffic. Exported fields are what a receiver
// may inspect.
type Message struct {
	Src    NodeID
	Kind   uint16
	Body   []byte
	Arrive vtime.Time // virtual arrival time at the receiver
	Svc    vtime.Time // per-request service time of the incoming link

	call    *call       // non-nil for RPC requests: where the answer goes
	replied atomic.Bool // set by the first Reply; any later one is dropped
	dst     NodeID

	// The sequencer's heap entry (seq.go): the destination's sequencer
	// port and the insertion number, set by insert.
	port *seqPort
	no   uint64
}

// response is what a call gets back. It travels by value: a reply is
// never queued at a port or ordered by the sequencer, so it needs none
// of a Message's routing fields and no object of its own.
type response struct {
	kind   uint16
	body   []byte
	arrive vtime.Time
}

// call is the way back for one request: the one-slot channel its answer
// arrives on, and the Handoff that credits the caller's token with it.
// calls recycles them. One comes back only from a Wait that received its
// response: a request is answered at most once (Message.replied), so
// nothing will send on it again. A Wait that gave up abandons its call
// to the collector instead, because the answer may still land in it.
type call struct {
	h  Handoff
	ch chan response
}

var calls = sync.Pool{New: func() any { return &call{ch: make(chan response, 1)} }}

// ErrStopped is what Pending.Wait returns when its stop channel fires
// first.
var ErrStopped = errors.New("simnet: wait stopped")

// Fabric connects a set of ports with a (possibly heterogeneous) link
// model.
type Fabric struct {
	mu     sync.Mutex
	ports  map[NodeID]*Port
	model  vtime.LinkModel
	linkFn func(src, dst NodeID) vtime.LinkModel
	seq    *Sequencer

	msgs  atomic.Int64
	bytes atomic.Int64
}

// NewFabric creates a fabric where every link uses the given model.
func NewFabric(model vtime.LinkModel) *Fabric {
	return &Fabric{ports: make(map[NodeID]*Port), model: model}
}

// Sequence switches the fabric to deterministic delivery: every port
// processes its messages in global virtual-arrival order instead of
// real-time arrival order (see seq.go). Must be called before any port
// is created. All goroutines touching the fabric must then follow the
// Gate conventions.
func (f *Fabric) Sequence() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.ports) > 0 {
		panic("simnet: Sequence after ports were created")
	}
	f.seq = newSequencer()
}

// Sequenced reports whether deterministic delivery is on.
func (f *Fabric) Sequenced() bool { return f.seq != nil }

// Gate returns the fabric's runnable-token ledger (a no-op gate when the
// fabric is not sequenced).
func (f *Fabric) Gate() Gate {
	if f.seq != nil {
		return f.seq
	}
	return nopGate{}
}

// Quiesce blocks until every message sent to dst has been fully
// processed and its receiver is parked again. Only meaningful on a
// sequenced fabric (it returns immediately otherwise); see
// Sequencer.quiesce for why the FIFO ping idiom needs replacing there.
func (f *Fabric) Quiesce(dst NodeID) {
	if f.seq != nil {
		f.seq.quiesce(dst)
	}
}

// SetLinkFn installs a per-pair link selector (e.g. intra-node vs
// inter-node). It must be called before traffic starts.
func (f *Fabric) SetLinkFn(fn func(src, dst NodeID) vtime.LinkModel) { f.linkFn = fn }

// Link reports the model used for messages from src to dst.
func (f *Fabric) Link(src, dst NodeID) vtime.LinkModel {
	if f.linkFn != nil {
		return f.linkFn(src, dst)
	}
	return f.model
}

// Messages reports the total number of messages sent so far.
func (f *Fabric) Messages() int64 { return f.msgs.Load() }

// Bytes reports the total wire bytes (bodies + headers) sent so far.
func (f *Fabric) Bytes() int64 { return f.bytes.Load() }

// NewPort registers a new endpoint. It panics if the id is taken: node
// numbering is assigned by the runtime and a collision is a bug.
func (f *Fabric) NewPort(id NodeID) *Port {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.ports[id]; ok {
		panic(fmt.Sprintf("simnet: port %d already exists", id))
	}
	p := &Port{
		id:     id,
		fabric: f,
		inbox:  make(chan *Message, inboxDepth),
		closed: make(chan struct{}),
	}
	f.ports[id] = p
	if f.seq != nil {
		f.seq.addPort(id)
	}
	return p
}

// ErrPeerGone is wrapped by every send that fails because the
// destination port does not exist or has closed: the peer exited or was
// killed. It never describes the sender's own port.
var ErrPeerGone = errors.New("simnet: peer gone")

func (f *Fabric) port(id NodeID) (*Port, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.ports[id]
	if !ok {
		return nil, fmt.Errorf("simnet: no port %d: %w", id, ErrPeerGone)
	}
	return p, nil
}

// deliver computes timing, accounts traffic and enqueues the message at
// p, the destination's port.
func (f *Fabric) deliver(src NodeID, p *Port, m *Message, sendTime vtime.Time) (senderDone vtime.Time, err error) {
	dst := p.id
	link := f.Link(src, dst)
	size := len(m.Body) + HeaderBytes
	senderDone = sendTime + link.SendOverhead
	m.Arrive = link.Deliver(senderDone, size)
	m.Svc = link.ServiceTime
	f.msgs.Add(1)
	f.bytes.Add(int64(size))
	if f.seq != nil {
		f.seq.insert(m)
		return senderDone, nil
	}
	select {
	case p.inbox <- m:
		return senderDone, nil
	case <-p.closed:
		return senderDone, fmt.Errorf("simnet: port %d closed: %w", dst, ErrPeerGone)
	}
}

// Port is one endpoint's attachment to the fabric.
type Port struct {
	id     NodeID
	fabric *Fabric
	inbox  chan *Message
	closed chan struct{}
	once   sync.Once
}

// ID returns the port's node id.
func (p *Port) ID() NodeID { return p.id }

// Post sends a one-way message. It returns the sender's virtual time
// after paying the send overhead (the sender does not wait for
// delivery: this is the asynchronous, RDMA-write-flavoured path used
// for DiffBatch and EvictFlush traffic).
func (p *Port) Post(dst NodeID, kind uint16, body []byte, at vtime.Time) (vtime.Time, error) {
	to, err := p.fabric.port(dst)
	if err != nil {
		return at, err
	}
	m := &Message{Src: p.id, Kind: kind, Body: body, dst: dst}
	return p.fabric.deliver(p.id, to, m, at)
}

// Pending is one call in flight: Start sends the request into it and
// Wait reaps the answer. Its owner keeps it; the fabric keeps no
// reference to it, so it may be reused once Wait has returned.
type Pending struct {
	from, to *Port
	at       vtime.Time
	c        *call
}

// Start sends an RPC request and returns at once; Wait reaps the
// response. It fails only when dst is gone.
func (p *Port) Start(dst NodeID, kind uint16, body []byte, at vtime.Time, pd *Pending) error {
	to, err := p.fabric.port(dst)
	if err != nil {
		return err
	}
	c := calls.Get().(*call)
	c.h.Reset(p.fabric.Gate())
	m := &Message{Src: p.id, Kind: kind, Body: body, call: c, dst: dst}
	if _, err := p.fabric.deliver(p.id, to, m, at); err != nil {
		return err
	}
	*pd = Pending{from: p, to: to, at: at, c: c}
	return nil
}

// Wait blocks until the response to pd's request arrives, and returns
// its kind and body and the caller's virtual time when it is in hand; a
// sequenced caller parks here (Handoff). A call whose destination closes
// before answering — the request still queued in its inbox, or parked by
// it for a deferred reply — fails with ErrPeerGone instead of waiting for
// a reply nobody will send. stop, when it fires first, abandons the call
// with ErrStopped.
func (pd *Pending) Wait(stop <-chan time.Time) (kind uint16, body []byte, doneAt vtime.Time, err error) {
	c := pd.c
	c.h.Park()
	select {
	case resp := <-c.ch:
		calls.Put(c)
		return resp.kind, resp.body, vtime.Max(pd.at, resp.arrive), nil
	case <-pd.from.closed:
		err = fmt.Errorf("simnet: port %d closed during call", pd.from.id)
	case <-pd.to.closed:
		// The peer may have answered on its way out.
		select {
		case resp := <-c.ch:
			calls.Put(c)
			return resp.kind, resp.body, vtime.Max(pd.at, resp.arrive), nil
		default:
		}
		err = fmt.Errorf("simnet: port %d closed before answering: %w", pd.to.id, ErrPeerGone)
	case <-stop:
		err = ErrStopped
	}
	c.h.Done() // take the token back, unless the reply did
	return 0, nil, pd.at, err
}

// Call performs a synchronous RPC, Start then Wait: it sends the request
// and blocks until the response arrives.
func (p *Port) Call(dst NodeID, kind uint16, body []byte, at vtime.Time) (respKind uint16, respBody []byte, doneAt vtime.Time, err error) {
	var pd Pending
	if err := p.Start(dst, kind, body, at, &pd); err != nil {
		return 0, nil, at, err
	}
	return pd.Wait(nil)
}

// Recv blocks until a message arrives or the port is closed. The second
// result is false when the port has been closed.
func (p *Port) Recv() (Request, bool) {
	if p.fabric.seq != nil {
		m, ok := p.fabric.seq.recv(p.id)
		return Request{msg: m, port: p}, ok
	}
	select {
	case m := <-p.inbox:
		return Request{msg: m, port: p}, true
	case <-p.closed:
		// Drain anything already queued so in-flight RPCs fail fast
		// rather than hang; then report closure.
		select {
		case m := <-p.inbox:
			return Request{msg: m, port: p}, true
		default:
			return Request{}, false
		}
	}
}

// Close detaches the port. Subsequent sends to it fail; a blocked Recv
// returns false.
func (p *Port) Close() {
	p.once.Do(func() {
		close(p.closed)
		p.fabric.mu.Lock()
		delete(p.fabric.ports, p.id)
		p.fabric.mu.Unlock()
		if p.fabric.seq != nil {
			p.fabric.seq.close(p.id)
		}
	})
}

// Request is a received message plus the means to answer it, possibly
// later and from a different goroutine (deferred replies are how the
// manager parks lock waiters and how a memory server parks fetches that
// must wait for in-flight diffs). It is two words and travels by value.
type Request struct {
	msg  *Message
	port *Port
}

// Src reports the sender.
func (r *Request) Src() NodeID { return r.msg.Src }

// Kind reports the message kind.
func (r *Request) Kind() uint16 { return r.msg.Kind }

// Body reports the message body.
func (r *Request) Body() []byte { return r.msg.Body }

// Arrive reports the virtual arrival time at this port.
func (r *Request) Arrive() vtime.Time { return r.msg.Arrive }

// Svc reports the service time the receiver should charge for picking
// up this request.
func (r *Request) Svc() vtime.Time { return r.msg.Svc }

// OneWay reports whether the sender expects no response.
func (r *Request) OneWay() bool { return r.msg.call == nil }

// Reply answers an RPC request at the given virtual time on the
// responder's clock; once the responder's port has closed it does
// nothing. Only the first reply to a request counts: the caller's channel
// is recycled once it has been read (calls), so a second answer
// would reach somebody else's call. Replying to a one-way message
// panics — that is always a protocol bug.
func (r *Request) Reply(kind uint16, body []byte, at vtime.Time) {
	if r.msg.call == nil {
		panic(fmt.Sprintf("simnet: reply to one-way %d message", r.msg.Kind))
	}
	if r.msg.replied.Swap(true) {
		return
	}
	// A closed port is a node that is gone, and a node that is gone
	// answers nobody: whatever its owner still does with requests it had
	// taken, their callers learn of the closure instead (see Wait).
	select {
	case <-r.port.closed:
		return
	default:
	}
	link := r.port.fabric.Link(r.port.id, r.msg.Src)
	size := len(body) + HeaderBytes
	resp := response{kind: kind, body: body, arrive: link.Deliver(at+link.SendOverhead, size)}
	r.port.fabric.msgs.Add(1)
	r.port.fabric.bytes.Add(int64(size))
	r.msg.call.h.Done()
	r.msg.call.ch <- resp
}
