package simnet

import (
	"container/heap"
	"sync"
)

// This file makes the simulated fabric deterministic.
//
// The problem: ports process their inboxes in real-time arrival order,
// but virtual arrival times are computed independently of real time. Two
// requests whose service windows overlap get different calendar bookings
// (and different clock folds at the manager) depending on which goroutine
// the Go scheduler ran first — so identical runs produce different
// virtual times. Bit-identical results require every serial server to
// process its messages in *virtual* arrival order, independent of real
// scheduling.
//
// The fix is a conservative sequencer (stall-and-step discrete-event
// ordering). Every goroutine that can send fabric traffic is counted by
// a runnable-token ledger: +1 when it is spawned or woken, -1 when it
// parks or exits. When the count hits zero the system is quiescent — no
// goroutine can create new traffic until some pending message is
// delivered — so the set of undelivered messages is complete, and the
// one with the globally minimal virtual arrival time is safe to deliver:
// by causality (positive link latency), everything sent in the future
// arrives later than it. The step grants pending messages in sorted
// order until one wakes a parked receiver, then execution resumes.
//
// Wakeups transfer tokens with the data ("credits"): a waker calls
// Resume on the waiter's behalf *before* signalling, so the ledger never
// reads zero while a wake is in flight. The conventions are:
//
//   - spawn: the spawner calls Resume before `go`; the goroutine calls
//     Pause when it exits.
//   - receive: a receiver parks in recv, and the step that grants it a
//     message credits it.
//   - answer (a reply, a prefetched line, a lock grant): the one rule,
//     Handoff. The answer credits only a waiter already parked, and a
//     waiter that comes after it never parks. A credit to a goroutine
//     still running would float, and once its owner blocks elsewhere the
//     ledger never reads zero again.
//
// Sequencing is opt-in (Fabric.Sequence) and is only engaged for clean
// simulated runs: the fault injector, the retry layer's wall-clock
// timeouts and the liveness layer's heartbeats are all driven by real
// time, so runs using them keep the plain channel fabric.

// Gate is the runnable-token ledger interface components use to report
// parking and waking to the sequencer. The zero Gate of an unsequenced
// fabric is a no-op.
type Gate interface {
	// Resume adds a runnable token: a goroutine was spawned, or a wake
	// credit was issued on a parked goroutine's behalf.
	Resume()
	// Pause removes a runnable token: a goroutine parked or exited, or
	// a previously issued credit was consumed.
	Pause()
}

// Handoff is the wake rule for one answer: Done, right before the answer
// is delivered, credits a token only to a waiter that Park, right before
// it blocks for the answer, has parked.
type Handoff struct {
	mu            sync.Mutex
	gate          Gate
	done, waiting bool
}

// Reset readies h for another answer, reported to gate.
func (h *Handoff) Reset(gate Gate) { h.gate, h.done, h.waiting = gate, false, false }

// Done marks the answer delivered, crediting a parked waiter. A waiter
// that gives up on its answer calls it too, to take its token back.
func (h *Handoff) Done() {
	h.mu.Lock()
	parked := h.waiting
	h.done, h.waiting = true, false
	h.mu.Unlock()
	if parked {
		h.gate.Resume()
	}
}

// Park gives the waiter's token up unless the answer is delivered.
func (h *Handoff) Park() {
	h.mu.Lock()
	h.waiting = !h.done
	parked := h.waiting
	h.mu.Unlock()
	if parked {
		h.gate.Pause()
	}
}

// nopGate is the Gate of an unsequenced fabric.
type nopGate struct{}

func (nopGate) Resume() {}
func (nopGate) Pause()  {}

// NopGate returns a no-op ledger for components that run without a
// sequenced fabric (custom transports, fault/retry/liveness runs).
func NopGate() Gate { return nopGate{} }

// seqLess is the deterministic delivery order: virtual arrival, then
// sender, then receiver, then kind. The insertion number (Message.no)
// only breaks ties between messages identical on all four — which
// concurrent senders cannot legitimately produce.
func seqLess(a, b *Message) bool {
	if a.Arrive != b.Arrive {
		return a.Arrive < b.Arrive
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.dst != b.dst {
		return a.dst < b.dst
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.no < b.no
}

// seqHeap is a min-heap of undelivered messages. It is intrusive: the
// sequencer's two words per entry (port, no) live on the Message, so
// queueing a message allocates nothing.
type seqHeap []*Message

func (h seqHeap) Len() int            { return len(h) }
func (h seqHeap) Less(i, j int) bool  { return seqLess(h[i], h[j]) }
func (h seqHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *seqHeap) Push(x interface{}) { *h = append(*h, x.(*Message)) }
func (h *seqHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// seqPort is the sequencer's view of one port.
type seqPort struct {
	id      NodeID
	grantq  []*Message // delivered, awaiting Recv pickup (in grant order) from ghead on
	ghead   int        // grantq[:ghead] is picked up; both reset when the queue drains
	pending int        // undelivered messages for this port still in the heap
	waiting int        // goroutines parked in Recv
	closed  bool
	cond    *sync.Cond
}

// granted reports how many delivered messages await pickup.
func (p *seqPort) granted() int { return len(p.grantq) - p.ghead }

// take picks up the oldest delivered message. Advancing a head index,
// where re-slicing from the front would walk the array's capacity away
// and reallocate on every few appends, lets one array serve the port for
// good.
func (p *seqPort) take() *Message {
	m := p.grantq[p.ghead]
	p.grantq[p.ghead] = nil
	if p.ghead++; p.ghead == len(p.grantq) {
		p.grantq, p.ghead = p.grantq[:0], 0
	}
	return m
}

// Sequencer orders message delivery by virtual arrival time.
type Sequencer struct {
	mu    sync.Mutex
	run   int // runnable tokens
	ports map[NodeID]*seqPort
	heap  seqHeap
	no    uint64
	idle  *sync.Cond // broadcast whenever delivery state changes (Quiesce)
}

func newSequencer() *Sequencer {
	s := &Sequencer{ports: make(map[NodeID]*seqPort)}
	s.idle = sync.NewCond(&s.mu)
	return s
}

// Resume implements Gate.
func (s *Sequencer) Resume() {
	s.mu.Lock()
	s.run++
	s.mu.Unlock()
}

// Pause implements Gate.
func (s *Sequencer) Pause() {
	s.mu.Lock()
	s.run--
	if s.run == 0 {
		s.step()
	}
	s.mu.Unlock()
}

// addPort registers a port with the sequencer.
func (s *Sequencer) addPort(id NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &seqPort{id: id}
	p.cond = sync.NewCond(&s.mu)
	s.ports[id] = p
}

// insert enqueues an undelivered message. Called from deliver with the
// sender counted as runnable; if the ledger nevertheless reads zero
// (an uncounted background sender, e.g. during shutdown), the insert
// itself triggers a step so the message is not stranded.
func (s *Sequencer) insert(m *Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.ports[m.dst]
	if !ok || p.closed {
		return // racing a close; the sender's deliver already validated dst
	}
	s.no++
	m.port, m.no = p, s.no
	heap.Push(&s.heap, m)
	p.pending++
	if s.run == 0 {
		s.step()
	}
}

// step delivers pending messages in global virtual-arrival order until
// one wakes a parked receiver. Caller holds s.mu with s.run == 0.
func (s *Sequencer) step() {
	for s.heap.Len() > 0 {
		m := heap.Pop(&s.heap).(*Message)
		p := m.port
		p.pending--
		if p.closed {
			continue // dropped, like a send to a closed port
		}
		p.grantq = append(p.grantq, m)
		if p.waiting > 0 {
			// Transfer a token to the receiver we are about to wake.
			s.run++
			p.cond.Signal()
			break
		}
	}
	s.idle.Broadcast()
}

// recv blocks until a message is granted to the port (in global virtual
// order) or the port closes. After a close, remaining granted and
// pending messages drain in order before ok=false is reported.
func (s *Sequencer) recv(id NodeID) (*Message, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.ports[id]
	if !ok {
		return nil, false
	}
	for {
		if p.granted() > 0 {
			m := p.take()
			s.idle.Broadcast()
			return m, true
		}
		if p.closed {
			if m := s.takePendingFor(p); m != nil {
				return m, true
			}
			return nil, false
		}
		p.waiting++
		s.run--
		if s.run == 0 {
			// We were the last runnable goroutine; this step may grant to
			// OUR port and signal before we ever reach Wait, so the sleep
			// below must recheck the condition (never wait unconditionally).
			s.step()
		}
		s.idle.Broadcast()
		for p.granted() == 0 && !p.closed {
			p.cond.Wait()
		}
		p.waiting--
		// Woken (or never slept): the waker — step, close, or our own
		// step above — issued our token already.
	}
}

// takePendingFor extracts the port's earliest undelivered message after
// a close, preserving delivery order for the drain path.
func (s *Sequencer) takePendingFor(p *seqPort) *Message {
	if p.pending == 0 {
		return nil
	}
	best := -1
	for i := range s.heap {
		if s.heap[i].port != p {
			continue
		}
		if best < 0 || seqLess(s.heap[i], s.heap[best]) {
			best = i
		}
	}
	if best < 0 {
		p.pending = 0
		return nil
	}
	m := s.heap[best]
	heap.Remove(&s.heap, best)
	p.pending--
	return m
}

// close marks the port closed and wakes its parked receivers (issuing
// their tokens, since no grant will).
func (s *Sequencer) close(id NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.ports[id]
	if !ok {
		return
	}
	p.closed = true
	s.run += p.waiting
	p.cond.Broadcast()
	s.idle.Broadcast()
}

// quiesce blocks until the port has no undelivered or unconsumed
// messages and its receiver is parked — i.e. everything sent to it has
// been fully processed. It replaces the FIFO-inbox drain idiom ("a ping
// answered proves earlier one-ways were handled"), which sequencing
// breaks: a ping's small virtual arrival time would let it overtake
// queued batches.
func (s *Sequencer) quiesce(id NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.ports[id]
	if !ok {
		return
	}
	if p.pending == 0 && p.granted() == 0 && (p.waiting > 0 || p.closed) {
		return
	}
	// Park while watching: the waiter must release its token or the
	// steps that drain the port can never fire.
	s.run--
	if s.run == 0 {
		s.step()
	}
	for !(p.pending == 0 && p.granted() == 0 && (p.waiting > 0 || p.closed)) {
		s.idle.Wait()
	}
	s.run++
}
