// Package faultnet injects transport faults beneath the SCL retry
// layer, so the robustness of the consistency protocol can be tested
// without real hardware failures: seeded-random drops, wall-clock
// delays, duplicate responses, and scripted node partitions.
//
// The injector wraps any scl.Endpoint. Faults are modelled on the
// *sender* side, before the message reaches the transport:
//
//   - A drop fails the attempt before anything is sent. The peer never
//     sees the request, so a retry re-executes it exactly once — drops
//     compose safely with non-idempotent protocol calls (lock acquires,
//     barrier arrivals, destructive diff pulls). Response loss is
//     deliberately NOT modelled for that reason: it would require
//     server-side request deduplication to stay consistent.
//   - A delay sleeps the calling goroutine before the send. Because the
//     caller blocks, per-sender message ordering — which the protocol's
//     EvictFlush-before-DiffBatch invariant relies on — is preserved.
//   - A duplicate response is synthesized after a successful call and
//     immediately discarded (counted, traced): it exercises the fact
//     that the layer above tolerates duplicate completions, the way the
//     TCP transport discards responses whose request id has no waiter.
//   - A partition makes a destination unreachable for a scripted window
//     measured in send attempts (deterministic, unlike wall-clock
//     windows): attempts are refused with a transient error until the
//     window has been consumed, then traffic flows again — the retry
//     layer's backoff rides out the outage.
//   - A kill crashes a node permanently: its endpoint is closed (the
//     victim's receive loop exits as if the process died). Sends TO a
//     killed node fail transiently wrapping proto.ErrPeerDied — the
//     retry layer exhausts its budget and surfaces a typed
//     UnreachableError, just like a real crashed peer. Sends FROM a
//     killed node fail terminally and untyped, so the victim's own
//     goroutines stop promptly instead of retrying from beyond the
//     grave — and never mistake their own death for a peer's (which
//     would trigger spurious failovers). Kills are scripted in send
//     attempts (deterministic) or triggered directly with Kill.
//
// All randomness comes from one seeded RNG per injector, so a fault
// schedule is reproducible from its seed (modulo goroutine
// interleaving, which only permutes which message draws which verdict).
package faultnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Partition cuts one destination node off for a window measured in
// send attempts to that node.
type Partition struct {
	// Node is the destination being cut off.
	Node scl.NodeID
	// After is how many attempts to Node pass before the partition
	// starts.
	After int
	// Len is how many attempts are refused before the partition heals.
	Len int
}

// Kill crashes a node permanently after a scripted number of send
// attempts have been observed.
type Kill struct {
	// Node is the victim.
	Node scl.NodeID
	// After is how many attempts pass before the kill fires: the
	// attempt with index After (0-based) finds the node dead.
	After int
	// FromNode selects which attempts are counted: attempts sent BY
	// Node when true, attempts sent TO Node when false. Counting the
	// victim's own sends lets a test crash a thread at a known point in
	// its protocol life (e.g. right after its Nth lock acquire).
	FromNode bool
	// Kind restricts which attempts advance the count (0 counts every
	// message). A kind-filtered kill crashes the victim at a
	// protocol-specific moment — e.g. the manager leader on the Nth
	// KBarrierReq it is about to receive, mid-round.
	Kind proto.Kind
}

// Config parameterizes an Injector. Probabilities are per message
// attempt in [0, 1].
type Config struct {
	// Seed drives the fault schedule; the same seed reproduces the
	// same schedule for the same traffic.
	Seed int64
	// DropProb drops a Call/Post attempt before the send.
	DropProb float64
	// DelayProb delays an attempt; the delay is uniform in
	// (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds injected delays (0 = 100µs when DelayProb > 0).
	MaxDelay time.Duration
	// DupProb synthesizes a discarded duplicate response after a
	// successful call.
	DupProb float64
	// Partitions are scripted unreachability windows.
	Partitions []Partition
	// Kills are scripted permanent node crashes.
	Kills []Kill
}

// Active reports whether the schedule injects anything. Callers boot an
// injector only then: a runtime that has one leaves the sequenced
// fabric.
func (c Config) Active() bool {
	return c.DropProb > 0 || c.DelayProb > 0 || c.DupProb > 0 || len(c.Partitions) > 0 || len(c.Kills) > 0
}

// Injector decides the fate of every message crossing its wrapped
// endpoints. One injector is shared by all endpoints of a runtime so
// partitions and the seeded schedule are global, like a real fabric
// fault.
type Injector struct {
	cfg Config
	nst *stats.Net
	tr  *trace.Collector

	mu       sync.Mutex
	rng      *rand.Rand
	sent     map[scl.NodeID]int // attempts per destination (drives partitions and kills)
	sentFrom map[scl.NodeID]int // attempts per source (drives FromNode kills)
	refused  []int              // refusals consumed per partition
	fired    []bool             // scripted kills already triggered
	kcount   []int              // matching attempts per kind-filtered kill
	killed   map[scl.NodeID]bool
	eps      map[scl.NodeID]scl.Endpoint // inner endpoints, for closing on kill
}

// New creates an injector from the config.
func New(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 100 * time.Microsecond
	}
	return &Injector{
		cfg:      cfg,
		nst:      new(stats.Net),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		sent:     make(map[scl.NodeID]int),
		sentFrom: make(map[scl.NodeID]int),
		refused:  make([]int, len(cfg.Partitions)),
		fired:    make([]bool, len(cfg.Kills)),
		kcount:   make([]int, len(cfg.Kills)),
		killed:   make(map[scl.NodeID]bool),
		eps:      make(map[scl.NodeID]scl.Endpoint),
	}
}

// SetNetStats redirects the injector's fault counters to a shared
// collector.
func (in *Injector) SetNetStats(n *stats.Net) {
	if n != nil {
		in.nst = n
	}
}

// NetStats exposes the injector's fault counters.
func (in *Injector) NetStats() *stats.Net { return in.nst }

// SetTrace attaches a collector that receives one CatNet event per
// injected fault.
func (in *Injector) SetTrace(tr *trace.Collector) { in.tr = tr }

// Wrap returns ep with fault injection applied to its outgoing traffic.
// Recv and Close pass through untouched. The wrapped endpoint is
// registered so a later Kill of its node can close it.
func (in *Injector) Wrap(ep scl.Endpoint) scl.Endpoint {
	in.mu.Lock()
	in.eps[ep.ID()] = ep
	in.mu.Unlock()
	return &endpoint{in: in, inner: ep}
}

// Kill crashes node permanently: its registered endpoint is closed so
// the victim's receive loop exits, and from now on every attempt to or
// from the node fails wrapping proto.ErrPeerDied. Killing a node twice
// is a no-op.
func (in *Injector) Kill(node scl.NodeID) {
	in.mu.Lock()
	if in.killed[node] {
		in.mu.Unlock()
		return
	}
	in.killed[node] = true
	ep := in.eps[node]
	in.mu.Unlock()
	in.nst.InjectedKills.Add(1)
	in.event(node, "kill", node, 0)
	if ep != nil {
		ep.Close()
	}
}

// Killed reports whether node has been crash-killed.
func (in *Injector) Killed(node scl.NodeID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.killed[node]
}

// verdict is the injector's decision for one send attempt.
type verdict struct {
	refuse  bool // partitioned: fail without sending
	drop    bool // dropped: fail without sending
	deadDst bool // destination crash-killed: fail transiently
	deadSrc bool // sender crash-killed: fail terminally
	delay   time.Duration
}

// before draws the fate of one attempt from src to dst, firing any
// scripted kill whose attempt budget the counting has consumed.
func (in *Injector) before(src, dst scl.NodeID, kind proto.Kind) verdict {
	in.mu.Lock()
	n := in.sent[dst]
	in.sent[dst] = n + 1
	in.sentFrom[src]++
	var toKill []scl.NodeID
	for i, k := range in.cfg.Kills {
		if in.fired[i] {
			continue
		}
		var count int
		switch {
		case k.Kind != 0:
			// Kind-filtered kills keep their own counter: only matching
			// messages crossing the victim's boundary advance it.
			if kind == k.Kind &&
				((k.FromNode && src == k.Node) || (!k.FromNode && dst == k.Node)) {
				in.kcount[i]++
			}
			count = in.kcount[i]
		case k.FromNode:
			count = in.sentFrom[k.Node]
		default:
			count = in.sent[k.Node]
		}
		if count > k.After {
			in.fired[i] = true
			toKill = append(toKill, k.Node)
		}
	}
	var v verdict
	switch {
	case in.killed[dst] || contains(toKill, dst):
		v.deadDst = true
	case in.killed[src] || contains(toKill, src):
		v.deadSrc = true
	}
	in.mu.Unlock()
	for _, node := range toKill {
		in.Kill(node)
	}
	if v.deadDst || v.deadSrc {
		return v
	}

	in.mu.Lock()
	defer in.mu.Unlock()
	for i, p := range in.cfg.Partitions {
		if p.Node == dst && n >= p.After && in.refused[i] < p.Len {
			in.refused[i]++
			v.refuse = true
			return v
		}
	}
	if in.cfg.DropProb > 0 && in.rng.Float64() < in.cfg.DropProb {
		v.drop = true
		return v
	}
	if in.cfg.DelayProb > 0 && in.rng.Float64() < in.cfg.DelayProb {
		v.delay = time.Duration(1 + in.rng.Int63n(int64(in.cfg.MaxDelay)))
	}
	return v
}

func contains(nodes []scl.NodeID, n scl.NodeID) bool {
	for _, x := range nodes {
		if x == n {
			return true
		}
	}
	return false
}

// dup draws whether a completed call's response is duplicated.
func (in *Injector) dup() bool {
	if in.cfg.DupProb <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < in.cfg.DupProb
}

// event emits one fault event to the trace collector, if attached.
func (in *Injector) event(src scl.NodeID, name string, dst scl.NodeID, at vtime.Time) {
	if in.tr == nil {
		return
	}
	in.tr.Span("faultnet", trace.CatNet, name, at, at,
		map[string]any{"src": uint32(src), "dst": uint32(dst)})
}

// endpoint applies the injector's verdicts to one wrapped endpoint.
type endpoint struct {
	in    *Injector
	inner scl.Endpoint
}

// ID implements scl.Endpoint.
func (e *endpoint) ID() scl.NodeID { return e.inner.ID() }

// apply enforces the pre-send verdict; it reports whether the attempt
// may proceed, or the injected error if not.
func (e *endpoint) apply(dst scl.NodeID, kind proto.Kind, at vtime.Time) error {
	v := e.in.before(e.ID(), dst, kind)
	switch {
	case v.deadDst:
		// Transient: the retry layer exhausts its budget and surfaces a
		// typed UnreachableError that still unwraps to ErrPeerDied.
		e.in.nst.KillRefusals.Add(1)
		e.in.event(e.ID(), "dead-dst", dst, at)
		return scl.Transient(fmt.Errorf("faultnet: node %d killed: %w", uint32(dst), proto.ErrPeerDied))
	case v.deadSrc:
		// Terminal: a dead node must not keep retrying its own sends.
		// Deliberately NOT wrapped in ErrPeerDied — that sentinel means
		// "the node I talked to died"; a dying caller must not mistake
		// its own death for the peer's and trigger a spurious failover.
		e.in.nst.KillRefusals.Add(1)
		e.in.event(e.ID(), "dead-src", dst, at)
		return fmt.Errorf("faultnet: local node %d is dead", uint32(e.ID()))
	case v.refuse:
		e.in.nst.PartitionRefusals.Add(1)
		e.in.event(e.ID(), "partition", dst, at)
		return scl.Transientf("faultnet: node %d partitioned", dst)
	case v.drop:
		e.in.nst.InjectedDrops.Add(1)
		e.in.event(e.ID(), "drop", dst, at)
		return scl.Transientf("faultnet: message to node %d dropped", dst)
	case v.delay > 0:
		e.in.nst.InjectedDelays.Add(1)
		e.in.event(e.ID(), "delay", dst, at)
		time.Sleep(v.delay)
	}
	return nil
}

// Call implements scl.Endpoint: Start then Wait.
func (e *endpoint) Call(dst scl.NodeID, req proto.Msg, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	var p scl.Pending
	e.Start(dst, req, at, &p)
	doneAt, err := p.Wait(resp)
	if err == nil && e.in.dup() {
		// The duplicate completion arrives at a layer that already has
		// its answer; it is discarded, exactly like a duplicate frame
		// whose request id no longer has a waiter.
		e.in.nst.InjectedDups.Add(1)
		e.in.nst.StaleResponses.Add(1)
		e.in.event(e.ID(), "dup-response", dst, doneAt)
	}
	return doneAt, err
}

// Start implements scl.Endpoint: the verdict is drawn, and a delay
// served, before the send, as for Call; a refused attempt fails its
// Wait.
func (e *endpoint) Start(dst scl.NodeID, req proto.Msg, at vtime.Time, p *scl.Pending) {
	if err := e.apply(dst, req.Kind(), at); err != nil {
		p.Settle(nil, at, err)
		return
	}
	e.inner.Start(dst, req, at, p)
}

// Post implements scl.Endpoint. Delays block the caller, preserving
// per-sender ordering; drops surface a transient error so a retry
// layer above re-sends.
func (e *endpoint) Post(dst scl.NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error) {
	if err := e.apply(dst, m.Kind(), at); err != nil {
		return at, err
	}
	return e.inner.Post(dst, m, at)
}

// Recv implements scl.Endpoint.
func (e *endpoint) Recv() (scl.Request, bool) { return e.inner.Recv() }

// Close implements scl.Endpoint.
func (e *endpoint) Close() { e.inner.Close() }
