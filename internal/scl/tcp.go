package scl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// The TCP transport moves the identical protocol bytes through real
// sockets. Virtual time still governs the modelled cost — each frame
// carries the sender's virtual timestamp, and arrival times are computed
// from the same vtime.LinkModel as the simulated fabric — so a protocol
// exchange produces the same virtual-time result over TCP as over
// simnet. This mirrors the paper's SCL design point: the consistency
// protocol must not care whether the transport is IB verbs, SCIF over
// PCIe, or (here) loopback TCP.
//
// Unlike the simulated fabric, real sockets fail. The failure contract
// here is:
//
//   - Every connection tracks its in-flight calls. When the connection
//     dies (read error, write error, endpoint close), those calls
//     complete immediately with a transient error instead of blocking
//     forever on a response that can never arrive.
//   - A dead connection is evicted from the dial cache, so the next
//     Call/Post to that node redials (the peer may have restarted, or
//     the address book may now point at a replacement).
//   - Reply writes that fail are counted and kill the connection, so
//     the caller's pending-call tracking — and with it any retry layer
//     above — fires instead of silently losing the response.
//   - Failures surface as transient errors: detection without masking.
//     Timeouts, backoff and ErrUnreachable belong to the retry layer
//     (WithRetry) that wraps this endpoint like any other.
//
// Frame layout: length(u32) | flags(u8) | kind(u16) | reqID(u64) |
// vt(i64) | body. Length counts everything after the length field.

const (
	frameHeaderLen = 1 + 2 + 8 + 8
	flagResponse   = 1 << 0
	flagOneWay     = 1 << 1
)

// AddressBook maps node ids to TCP listen addresses.
type AddressBook struct {
	mu    sync.RWMutex
	addrs map[NodeID]string
}

// NewAddressBook returns an empty address book.
func NewAddressBook() *AddressBook {
	return &AddressBook{addrs: make(map[NodeID]string)}
}

// Set registers the listen address for a node.
func (b *AddressBook) Set(id NodeID, addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addrs[id] = addr
}

// Lookup resolves a node id.
func (b *AddressBook) Lookup(id NodeID) (string, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	a, ok := b.addrs[id]
	return a, ok
}

// TCPEndpoint implements Endpoint over real TCP connections.
type TCPEndpoint struct {
	id    NodeID
	book  *AddressBook
	model vtime.LinkModel
	ln    net.Listener
	nst   *stats.Net

	mu      sync.Mutex
	dials   map[NodeID]*tcpConn
	conns   map[*tcpConn]struct{} // every live connection, dialed or accepted
	nextReq atomic.Uint64

	inbox  chan Request
	closed chan struct{}
	once   sync.Once
}

// tcpConn is one live connection plus the calls waiting on it.
type tcpConn struct {
	c  net.Conn
	wm sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint64]chan frame // reqID -> waiting Call
	dead    bool
}

// addPending registers a waiting call; it fails if the connection is
// already dead (the caller should redial and retry).
func (tc *tcpConn) addPending(reqID uint64, ch chan frame) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.dead {
		return Transientf("scl: connection already closed")
	}
	tc.pending[reqID] = ch
	return nil
}

// takePending removes and returns the waiter for reqID, if any.
func (tc *tcpConn) takePending(reqID uint64) (chan frame, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	ch, ok := tc.pending[reqID]
	if ok {
		delete(tc.pending, reqID)
	}
	return ch, ok
}

type frame struct {
	flags uint8
	kind  uint16
	reqID uint64
	vt    vtime.Time
	body  []byte
}

// NewTCPEndpoint starts an endpoint listening on addr (use "127.0.0.1:0"
// to pick a free port), registers it in the address book, and begins
// accepting peers. The LinkModel plays the role the fabric plays for
// SimEndpoint: it prices every frame in virtual time.
func NewTCPEndpoint(id NodeID, addr string, book *AddressBook, model vtime.LinkModel) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("scl: listen: %w", err)
	}
	e := &TCPEndpoint{
		id:     id,
		book:   book,
		model:  model,
		ln:     ln,
		nst:    new(stats.Net),
		dials:  make(map[NodeID]*tcpConn),
		conns:  make(map[*tcpConn]struct{}),
		inbox:  make(chan Request, 1024),
		closed: make(chan struct{}),
	}
	book.Set(id, ln.Addr().String())
	go e.acceptLoop()
	return e, nil
}

// ID implements Endpoint.
func (e *TCPEndpoint) ID() NodeID { return e.id }

// SetNetStats redirects the endpoint's robustness counters to a shared
// collector (each endpoint otherwise owns a private one).
func (e *TCPEndpoint) SetNetStats(n *stats.Net) {
	if n != nil {
		e.nst = n
	}
}

// NetStats exposes the endpoint's robustness counters.
func (e *TCPEndpoint) NetStats() *stats.Net { return e.nst }

func (e *TCPEndpoint) acceptLoop() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		tc := &tcpConn{c: c, pending: make(map[uint64]chan frame)}
		e.track(tc)
		go e.readLoop(tc)
	}
}

// track registers a live connection for Close.
func (e *TCPEndpoint) track(tc *tcpConn) {
	e.mu.Lock()
	e.conns[tc] = struct{}{}
	e.mu.Unlock()
}

// dropConn kills a connection: it is closed, evicted from the dial
// cache (so the next Call/Post redials), and every call still pending
// on it completes with a transient error. Idempotent.
func (e *TCPEndpoint) dropConn(tc *tcpConn) {
	tc.mu.Lock()
	if tc.dead {
		tc.mu.Unlock()
		return
	}
	tc.dead = true
	stranded := tc.pending
	tc.pending = make(map[uint64]chan frame)
	tc.mu.Unlock()

	// Counted before the eviction: a redial it makes possible must find
	// the dead connection already counted.
	e.nst.DeadConns.Add(1)
	e.nst.StrandedCalls.Add(int64(len(stranded)))
	tc.c.Close()
	e.mu.Lock()
	delete(e.conns, tc)
	for id, cached := range e.dials {
		if cached == tc {
			delete(e.dials, id)
		}
	}
	e.mu.Unlock()

	// Closing the channel (rather than sending a frame) tells the
	// waiting Call the connection died with its request outstanding.
	for _, ch := range stranded {
		close(ch)
	}
}

// readLoop demultiplexes frames from one connection: responses complete
// pending calls, requests go to the inbox. When the read side fails the
// connection is dropped, which strands — with an error, not a hang —
// every call still waiting on it.
func (e *TCPEndpoint) readLoop(tc *tcpConn) {
	defer e.dropConn(tc)
	for {
		f, err := readFrame(tc.c)
		if err != nil {
			return
		}
		if f.flags&flagResponse != 0 {
			if ch, ok := tc.takePending(f.reqID); ok {
				ch <- *f
			} else {
				// Duplicate response: the call has already completed.
				e.nst.StaleResponses.Add(1)
			}
			continue
		}
		req := e.makeRequest(tc, f)
		select {
		case e.inbox <- req:
		case <-e.closed:
			return
		}
	}
}

func (e *TCPEndpoint) makeRequest(tc *tcpConn, f *frame) Request {
	var reply func(kind uint16, body []byte, at vtime.Time)
	if f.flags&flagOneWay == 0 {
		reqID := f.reqID
		reply = func(kind uint16, body []byte, at vtime.Time) {
			if err := writeFrame(tc, &frame{flags: flagResponse, kind: kind, reqID: reqID, vt: at, body: body}); err != nil {
				// The response is lost. Count it and kill the connection
				// so the caller's pending-call tracking (and any retry
				// layer above it) fires instead of waiting forever.
				e.nst.WriteErrors.Add(1)
				e.dropConn(tc)
			}
		}
	}
	// The TCP transport does not carry the sender id.
	return NewRequest(0, proto.Kind(f.kind), f.body, reply).
		At(e.model.Deliver(f.vt+e.model.SendOverhead, len(f.body)+frameHeaderLen+4), e.model.ServiceTime)
}

func (e *TCPEndpoint) conn(dst NodeID) (*tcpConn, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if tc, ok := e.dials[dst]; ok {
		return tc, nil
	}
	addr, ok := e.book.Lookup(dst)
	if !ok {
		return nil, fmt.Errorf("scl: no address for node %d", dst)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		// The peer may be down or restarting; retry may reach it.
		return nil, Transientf("scl: dial node %d: %v", dst, err)
	}
	tc := &tcpConn{c: c, pending: make(map[uint64]chan frame)}
	e.dials[dst] = tc
	e.conns[tc] = struct{}{}
	go e.readLoop(tc) // responses come back on the same connection
	return tc, nil
}

// Call implements Endpoint, Start then Wait: it dials (or reuses) the
// connection, sends the request and waits for the response or connection
// death, which fails the call with a transient error (the next call
// redials).
func (e *TCPEndpoint) Call(dst NodeID, req proto.Msg, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	var p Pending
	if e.Start(dst, req, at, &p); p.err != nil {
		return at, p.err
	}
	return e.wait(&p, resp, nil)
}

// Start implements Endpoint.
func (e *TCPEndpoint) Start(dst NodeID, req proto.Msg, at vtime.Time, p *Pending) {
	tc, err := e.conn(dst)
	if err != nil {
		p.Settle(nil, at, err)
		return
	}
	reqID := e.nextReq.Add(1)
	*p = Pending{via: e, dst: dst, at: at, tcp: make(chan frame, 1)}
	if err := tc.addPending(reqID, p.tcp); err != nil {
		p.Settle(nil, at, err)
		return
	}
	if err := writeFrame(tc, &frame{kind: uint16(req.Kind()), reqID: reqID, vt: at, body: proto.Encode(req)}); err != nil {
		e.nst.WriteErrors.Add(1)
		e.dropConn(tc)
		p.Settle(nil, at, Transientf("scl: send to node %d: %v", dst, err))
	}
}

// wait reaps a call Start made. One it abandons stays registered with
// its connection, so a late answer lands in its channel, not in a later
// call's.
func (e *TCPEndpoint) wait(p *Pending, resp proto.Msg, stop <-chan time.Time) (vtime.Time, error) {
	select {
	case rf, ok := <-p.tcp:
		if !ok {
			return p.at, Transientf("scl: connection to node %d died with call pending", p.dst)
		}
		size := len(rf.body) + frameHeaderLen + 4
		doneAt := vtime.Max(p.at, e.model.Deliver(rf.vt+e.model.SendOverhead, size))
		return doneAt, decodeResponse(proto.Kind(rf.kind), rf.body, resp)
	case <-e.closed:
		return p.at, errors.New("scl: endpoint closed during call")
	case <-stop:
		return p.at, errStopped
	}
}

// Post implements Endpoint. A failed send drops the connection (so the
// next post redials) and reports a transient error.
func (e *TCPEndpoint) Post(dst NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error) {
	tc, err := e.conn(dst)
	if err != nil {
		return at, err
	}
	f := &frame{flags: flagOneWay, kind: uint16(m.Kind()), vt: at, body: proto.Encode(m)}
	if err := writeFrame(tc, f); err != nil {
		e.nst.WriteErrors.Add(1)
		e.dropConn(tc)
		return at, Transientf("scl: post to node %d: %v", dst, err)
	}
	return at + e.model.SendOverhead, nil
}

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv() (Request, bool) {
	select {
	case r := <-e.inbox:
		return r, true
	case <-e.closed:
		select {
		case r := <-e.inbox:
			return r, true
		default:
			return Request{}, false
		}
	}
}

// Close implements Endpoint: the listener stops, and every live
// connection — dialed or accepted — is dropped, failing its pending
// calls instead of leaving them blocked.
func (e *TCPEndpoint) Close() {
	e.once.Do(func() {
		close(e.closed)
		e.ln.Close()
		e.mu.Lock()
		conns := make([]*tcpConn, 0, len(e.conns))
		for tc := range e.conns {
			conns = append(conns, tc)
		}
		e.mu.Unlock()
		for _, tc := range conns {
			e.dropConn(tc)
		}
	})
}

func writeFrame(tc *tcpConn, f *frame) error {
	hdr := make([]byte, 4+frameHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(frameHeaderLen+len(f.body)))
	hdr[4] = f.flags
	binary.LittleEndian.PutUint16(hdr[5:], f.kind)
	binary.LittleEndian.PutUint64(hdr[7:], f.reqID)
	binary.LittleEndian.PutUint64(hdr[15:], uint64(f.vt))
	tc.wm.Lock()
	defer tc.wm.Unlock()
	if _, err := tc.c.Write(hdr); err != nil {
		return err
	}
	_, err := tc.c.Write(f.body)
	return err
}

func readFrame(r io.Reader) (*frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < frameHeaderLen || n > 1<<30 {
		return nil, fmt.Errorf("scl: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return &frame{
		flags: buf[0],
		kind:  binary.LittleEndian.Uint16(buf[1:]),
		reqID: binary.LittleEndian.Uint64(buf[3:]),
		vt:    vtime.Time(binary.LittleEndian.Uint64(buf[11:])),
		body:  buf[frameHeaderLen:],
	}, nil
}

// TCPFactory builds TCPEndpoints that share one address book, so a
// whole Samhita instance (manager, memory servers, compute threads,
// cache agents) can run over real sockets. Endpoints listen on
// loopback with kernel-assigned ports; the LinkModel still prices every
// frame in virtual time, so results are comparable with the simulated
// fabric.
type TCPFactory struct {
	book  *AddressBook
	model vtime.LinkModel
	nst   *stats.Net

	mu        sync.Mutex
	endpoints []*TCPEndpoint
}

// NewTCPFactory creates a factory whose endpoints all use the given
// link model.
func NewTCPFactory(model vtime.LinkModel) *TCPFactory {
	return &TCPFactory{book: NewAddressBook(), model: model, nst: new(stats.Net)}
}

// NetStats exposes the robustness counters shared by the factory's
// endpoints.
func (f *TCPFactory) NetStats() *stats.Net { return f.nst }

// NewEndpoint implements the transport-factory contract used by the
// Samhita runtime.
func (f *TCPFactory) NewEndpoint(id NodeID) (Endpoint, error) {
	ep, err := NewTCPEndpoint(id, "127.0.0.1:0", f.book, f.model)
	if err != nil {
		return nil, err
	}
	ep.SetNetStats(f.nst)
	f.mu.Lock()
	f.endpoints = append(f.endpoints, ep)
	f.mu.Unlock()
	return ep, nil
}

// Close shuts down every endpoint the factory created.
func (f *TCPFactory) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ep := range f.endpoints {
		ep.Close()
	}
	f.endpoints = nil
	return nil
}
