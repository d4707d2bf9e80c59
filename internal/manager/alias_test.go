package manager

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/replog"
	"repro/internal/scl"
	"repro/internal/simnet"
)

// A follower decodes every append in place: one ReplAppend whose entry
// list is overwritten by the next append, each entry's Body a window into
// the append's own body (handleReplAppend). This test is the proof that
// nothing a handler retains reaches that scratch. A seeded model plays
// the clients and the leader's log; its stream goes, in appends of one to
// five entries with gap nacks and resends, to two followers: the subject,
// through handleReplAppend, and an oracle, through the copy-everything
// path the in-place one replaced (oracleAppend). After every append their
// states must be the same bytes and no waiter parked at the subject may
// hold a ticket, let alone a piece of the append that parked it (a waiter
// keeps nothing of its call but whom to answer and the pickup cost); at
// the end the subject is promoted and each waiter parked long ago is
// granted what its request asked for.

// The subject sits at followerNode; the oracle needs a node of its own.
const aliasOracle scl.NodeID = followerNode + 1

func aliasNode(thread uint32) scl.NodeID { return scl.NodeID(100 + thread) }

// oracleAppend is the follower half of the append path as it was before
// the in-place decode: a fresh ReplAppend per append, every body a copy.
func oracleAppend(t *testing.T, m *Manager, body []byte) proto.ReplAck {
	t.Helper()
	var ra proto.ReplAppend
	if err := proto.Decode(&ra, body); err != nil {
		t.Fatal(err)
	}
	r := m.repl
	apply, ack := r.acc.Offer(&ra)
	if r.acc.Term > r.term {
		r.term = r.acc.Term
	}
	m.replaying = true
	for i := range apply {
		m.applyEntry(apply[i])
	}
	m.replaying = false
	return ack
}

type aliasThread struct {
	id       uint32
	lastSeen uint64
	interval uint64
	epoch    uint64
	allocSeq uint64
	holds    uint32 // the lock held, 0 for none
	parked   bool
}

type aliasCondWaiter struct{ thread, lock uint32 }

// aliasModel knows what the clients did and what the manager owes them.
type aliasModel struct {
	t    *testing.T
	rng  *rand.Rand
	prop *replog.Proposer

	issued  uint64         // directory tickets handed out
	notices []proto.Notice // every filled ticket, ascending

	threads  map[uint32]*aliasThread
	holder   map[uint32]uint32   // lock -> holding thread
	queue    map[uint32][]uint32 // lock -> queued threads, FIFO
	conds    map[uint32][]aliasCondWaiter
	arrived  map[uint32][]uint32 // barrier -> parked arrivals
	requests map[uint32][]byte   // parked thread -> body of its parked request

	pending int // entries appended since the last shipped batch
}

func newAliasModel(t *testing.T, seed int64) *aliasModel {
	return &aliasModel{
		t: t, rng: rand.New(rand.NewSource(seed)),
		prop:     replog.NewProposer(1, []int{1}, 1),
		threads:  make(map[uint32]*aliasThread),
		holder:   make(map[uint32]uint32),
		queue:    make(map[uint32][]uint32),
		conds:    make(map[uint32][]aliasCondWaiter),
		arrived:  make(map[uint32][]uint32),
		requests: make(map[uint32][]byte),
	}
}

func (md *aliasModel) thread(id uint32) *aliasThread {
	th := md.threads[id]
	if th == nil {
		th = &aliasThread{id: id, lastSeen: md.issued}
		md.threads[id] = th
	}
	return th
}

// log appends one client request to the leader's log, as replicate does.
func (md *aliasModel) log(th *aliasThread, msg proto.Msg) []byte {
	body := proto.Encode(msg)
	md.prop.Append(uint32(aliasNode(th.id)), msg.Kind(), body)
	md.pending++
	return body
}

func (md *aliasModel) park(th *aliasThread, body []byte) {
	th.parked = true
	md.requests[th.id] = body
}

func (md *aliasModel) grant(lock uint32, th *aliasThread) {
	md.holder[lock] = th.id
	th.holds, th.parked, th.lastSeen = lock, false, md.issued
	delete(md.requests, th.id)
}

// release closes th's interval: the ticket, and the notice it fills when
// the interval wrote something.
func (md *aliasModel) release(th *aliasThread) (interval uint64, pages []uint64, records []proto.StoreRecord) {
	th.interval++
	md.issued++
	for i := md.rng.Intn(3); i > 0; i-- {
		pages = append(pages, uint64(md.rng.Intn(64)))
	}
	for i := md.rng.Intn(3); i > 0; i-- {
		data := make([]byte, 1+md.rng.Intn(24))
		md.rng.Read(data)
		records = append(records, proto.StoreRecord{Addr: uint64(1<<34 + 8*md.rng.Intn(512)), Data: data})
	}
	if len(pages) > 0 || len(records) > 0 { // an empty interval's ticket is a gap
		md.notices = append(md.notices, proto.Notice{
			Seq: md.issued, Tag: proto.IntervalTag{Writer: th.id, Interval: th.interval},
			Pages: pages, Records: records,
		})
	}
	return th.interval, pages, records
}

func (md *aliasModel) lock(th *aliasThread, lock uint32) {
	body := md.log(th, &proto.LockReq{Lock: lock, Thread: th.id, LastSeen: th.lastSeen})
	if md.holder[lock] == 0 {
		md.grant(lock, th)
		return
	}
	md.queue[lock] = append(md.queue[lock], th.id)
	md.park(th, body)
}

// passOn frees a lock and grants it to the head of its queue.
func (md *aliasModel) passOn(lock uint32) {
	md.holder[lock] = 0
	if q := md.queue[lock]; len(q) > 0 {
		md.queue[lock] = q[1:]
		md.grant(lock, md.threads[q[0]])
	}
}

func (md *aliasModel) unlock(th *aliasThread) {
	lock := th.holds
	interval, pages, records := md.release(th)
	md.log(th, &proto.UnlockReq{Lock: lock, Thread: th.id, Interval: interval, Pages: pages, Records: records})
	th.holds = 0
	md.passOn(lock)
}

func (md *aliasModel) condWait(th *aliasThread, cond uint32) {
	lock, lastSeen := th.holds, th.lastSeen
	interval, pages, records := md.release(th)
	body := md.log(th, &proto.CondWaitReq{
		Cond: cond, Lock: lock, Thread: th.id, LastSeen: lastSeen,
		Interval: interval, Pages: pages, Records: records,
	})
	th.holds = 0
	md.conds[cond] = append(md.conds[cond], aliasCondWaiter{th.id, lock})
	md.park(th, body)
	md.passOn(lock)
}

func (md *aliasModel) signal(th *aliasThread, cond uint32) {
	md.log(th, &proto.CondSignalReq{Cond: cond, Thread: th.id})
	ws := md.conds[cond]
	if len(ws) == 0 {
		return
	}
	md.conds[cond] = ws[1:]
	if w := ws[0]; md.holder[w.lock] == 0 {
		md.grant(w.lock, md.threads[w.thread])
	} else {
		md.queue[w.lock] = append(md.queue[w.lock], w.thread)
	}
}

const aliasBarrierCount = 3

func (md *aliasModel) arrive(th *aliasThread, barrier uint32) {
	lastSeen := th.lastSeen
	interval, pages, records := md.release(th)
	th.epoch++
	body := md.log(th, &proto.BarrierReq{
		Barrier: barrier, Count: aliasBarrierCount, Thread: th.id, LastSeen: lastSeen,
		Interval: interval, Pages: pages, Records: records, Epoch: th.epoch,
	})
	md.arrived[barrier] = append(md.arrived[barrier], th.id)
	md.park(th, body)
	if len(md.arrived[barrier]) == aliasBarrierCount {
		for _, id := range md.arrived[barrier] {
			w := md.threads[id]
			w.parked, w.lastSeen = false, md.issued
			delete(md.requests, id)
		}
		md.arrived[barrier] = nil
	}
}

func (md *aliasModel) alloc(th *aliasThread) {
	th.allocSeq++
	md.log(th, &proto.AllocReq{
		Thread: th.id, Size: uint64(64 + md.rng.Intn(4096)), Align: 16,
		Strategy: uint8(md.rng.Intn(3)), Seq: th.allocSeq,
	})
}

// Threads 1..6 make the random traffic, on locks 1..3, conditions 1..2
// and barrier 1, whose members are threads 1..3. A thread that holds a
// lock takes no second one and joins no barrier, so the stream never
// deadlocks itself.
const (
	aliasThreads = 6
	aliasLocks   = 3
	aliasConds   = 2
)

// step makes one random mutation; draining restricts it to the ones that
// let a parked thread go. It reports whether any thread could move.
func (md *aliasModel) step(draining bool) bool {
	free := make([]*aliasThread, 0, aliasThreads)
	for id := uint32(1); id <= aliasThreads; id++ {
		if th := md.thread(id); !th.parked {
			free = append(free, th)
		}
	}
	md.rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	for _, th := range free {
		roll := md.rng.Intn(10)
		switch {
		case th.holds != 0 && (draining || roll < 7):
			md.unlock(th)
		case th.holds != 0 && roll < 8 && len(md.conds[1+th.holds%aliasConds]) < 2:
			md.condWait(th, 1+th.holds%aliasConds)
		case th.holds != 0:
			md.alloc(th)
		case th.id <= aliasBarrierCount && len(md.arrived[1]) > 0 && (draining || roll < 4):
			md.arrive(th, 1)
		case draining:
			signalled := false
			for c := uint32(1); c <= aliasConds && !signalled; c++ {
				if len(md.conds[c]) > 0 {
					md.signal(th, c)
					signalled = true
				}
			}
			if !signalled {
				continue
			}
		case roll < 5:
			md.lock(th, uint32(1+md.rng.Intn(aliasLocks)))
		case roll < 6 && th.id <= aliasBarrierCount:
			md.arrive(th, 1)
		case roll < 8:
			md.signal(th, uint32(1+md.rng.Intn(aliasConds)))
		default:
			md.alloc(th)
		}
		return true
	}
	return false
}

// aliasPair is the two followers and the shipping of appends to them.
type aliasPair struct {
	t               *testing.T
	md              *aliasModel
	subject, oracle *Manager
	appends, nacks  int
	resent          int
	last            []byte // the last append shipped, for duplicate resends
}

func newAliasFollower(fab *simnet.Fabric, node scl.NodeID) *Manager {
	m := New(scl.NewSimEndpoint(fab, node), layout.DefaultGeometry())
	m.SetShards(2)
	m.SetReplication(Replication{Self: 1, Nodes: []scl.NodeID{mgrNode, node}})
	return m
}

// deliver hands one append body to both followers and checks everything
// the test is about.
func (p *aliasPair) deliver(body []byte) proto.ReplAck {
	p.t.Helper()
	req := scl.NewRequest(mgrNode, proto.KReplAppend, body, nil)
	p.subject.step(&req)
	got, want := p.subject.repl.inAck, oracleAppend(p.t, p.oracle, body)
	if got != want {
		p.t.Fatalf("append %d: ack %+v, the copying path answers %+v", p.appends, got, want)
	}
	p.appends++
	if a, b := p.subject.encodeState(), p.oracle.encodeState(); !bytes.Equal(a, b) {
		p.t.Fatalf("append %d: the in-place follower's state (%d bytes) differs from the copying one's (%d bytes)", p.appends, len(a), len(b))
	}
	return got
}

// ship sends the model's pending entries as one append: sometimes first
// without its head, which the follower must refuse as a gap, and
// sometimes followed by a resend of the append before it, which the
// follower must skip over.
func (p *aliasPair) ship() {
	p.t.Helper()
	md := p.md
	ents, snap := md.prop.Batch(1)
	if snap || len(ents) != md.pending {
		p.t.Fatalf("log offers %d entries (snapshot %v), %d pending", len(ents), snap, md.pending)
	}
	md.pending = 0
	if len(ents) > 1 && md.rng.Intn(4) == 0 {
		ack := p.deliver(proto.Encode(&proto.ReplAppend{Term: 1, Entries: ents[1:]}))
		if ack.OK || ack.NextIndex != ents[0].Index || md.prop.Ack(1, &ack) {
			p.t.Fatalf("gap append answered %+v, want a nack asking for index %d", ack, ents[0].Index)
		}
		p.nacks++
		if again, _ := md.prop.Batch(1); len(again) != len(ents) {
			p.t.Fatalf("after the nack the log offers %d entries, want %d", len(again), len(ents))
		}
	}
	body := proto.Encode(&proto.ReplAppend{Term: 1, Entries: ents})
	if ack := p.deliver(body); !ack.OK || md.prop.Ack(1, &ack) {
		p.t.Fatalf("append refused: %+v", ack)
	}
	if p.last != nil && md.rng.Intn(5) == 0 {
		if ack := p.deliver(p.last); !ack.OK {
			p.t.Fatalf("resend of an accepted append refused: %+v", ack)
		}
		p.resent++
	}
	p.last = body
	md.prop.Truncate(md.prop.Last())
	p.checkParked()
}

// checkParked finds every parked waiter of the subject: each is one the
// model parked, sits at its thread's node and holds no ticket.
func (p *aliasPair) checkParked() {
	p.t.Helper()
	found := 0
	check := func(w *waiter) {
		switch _, ok := p.md.requests[w.thread]; {
		case !ok:
			p.t.Fatalf("append %d: thread %d is parked at the follower and not in the model", p.appends, w.thread)
		case !w.to.OneWay() || scl.NodeID(w.node) != aliasNode(w.thread):
			p.t.Fatalf("append %d: thread %d is parked as %+v", p.appends, w.thread, *w)
		}
		found++
	}
	for _, sh := range p.subject.shards {
		for _, ls := range sh.locks {
			for i := range ls.queue {
				check(&ls.queue[i])
			}
		}
		for _, bs := range sh.barriers {
			for i := range bs.arrived {
				check(&bs.arrived[i])
			}
		}
		for _, cs := range sh.conds {
			for i := range cs.waiters {
				check(&cs.waiters[i].w)
			}
		}
	}
	if found != len(p.md.requests) {
		p.t.Fatalf("append %d: %d waiters parked at the follower, %d in the model", p.appends, found, len(p.md.requests))
	}
}

// run makes n random mutations, then only releasing ones until no thread
// of the random set is parked, shipping appends of one to five entries.
func (p *aliasPair) run(n int) {
	p.t.Helper()
	shipAt := 1 + p.md.rng.Intn(5)
	flush := func(force bool) {
		if p.md.pending >= shipAt || (force && p.md.pending > 0) {
			p.ship()
			shipAt = 1 + p.md.rng.Intn(5)
		}
	}
	for i := 0; i < n && p.md.step(false); i++ {
		flush(false)
	}
	anyParked := func() bool {
		for id := uint32(1); id <= aliasThreads; id++ {
			if th := p.md.thread(id); th.parked || th.holds != 0 {
				return true
			}
		}
		return false
	}
	for i := 0; anyParked(); i++ {
		if i > 1000 || !p.md.step(true) {
			p.t.Fatal("the model cannot drain its parked threads")
		}
		flush(false)
	}
	flush(true)
}

// aliasClient re-issues, live, what a model thread sent.
type aliasClient struct {
	t  *testing.T
	ep scl.Endpoint
	th *aliasThread
}

func (c *aliasClient) call(req, resp proto.Msg) {
	c.t.Helper()
	if _, err := c.ep.Call(followerNode, req, resp, 0); err != nil {
		c.t.Fatalf("thread %d: %v: %v", c.th.id, req.Kind(), err)
	}
}

// owes checks an acquire's answer against the model: every notice above
// the horizon the request was parked with, up to seq.
func (md *aliasModel) owes(who string, lastSeen, seq uint64, got []proto.Notice) {
	md.t.Helper()
	var want []proto.Notice
	for _, n := range md.notices {
		if n.Seq > lastSeen && n.Seq <= seq {
			want = append(want, n)
		}
	}
	if len(got) != len(want) || len(want) == 0 {
		md.t.Fatalf("%s: %d notices in (%d, %d], want %d (and more than none)", who, len(got), lastSeen, seq, len(want))
	}
	for i, w := range want {
		g := got[i]
		same := g.Seq == w.Seq && g.Tag == w.Tag && slices.Equal(g.Pages, w.Pages) && len(g.Records) == len(w.Records)
		for j := 0; same && j < len(w.Records); j++ {
			same = g.Records[j].Addr == w.Records[j].Addr && bytes.Equal(g.Records[j].Data, w.Records[j].Data)
		}
		if !same {
			md.t.Fatalf("%s: notice %d is %+v, want %+v", who, i, g, w)
		}
	}
}

func TestFollowerAppliesAppendsInPlaceWithoutAliasing(t *testing.T) {
	fab := simnet.NewFabric(testLink)
	md := newAliasModel(t, 21)
	p := &aliasPair{t: t, md: md, subject: newAliasFollower(fab, followerNode), oracle: newAliasFollower(fab, aliasOracle)}

	p.run(250)

	// Park the waiters the promotion will be judged by, on threads and
	// objects the random traffic never touches: lock 9 held by thread 7
	// with threads 8 and 9 queued, thread 10 waiting on condition 9
	// (under lock 8, which it released), threads 11 and 12 at barrier 2.
	md.lock(md.thread(7), 9)
	md.lock(md.thread(8), 9)
	md.lock(md.thread(9), 9)
	md.lock(md.thread(10), 8)
	md.condWait(md.thread(10), 9)
	md.arrive(md.thread(11), 2)
	md.arrive(md.thread(12), 2)
	parkedAt := md.issued
	p.run(250) // ... and keep them parked under as many appends again

	if p.appends < 150 || p.nacks < 10 || p.resent < 10 || md.prop.Last() < 500 {
		t.Fatalf("%d appends (%d gap nacks, %d resends) of %d entries: too few to prove anything", p.appends, p.nacks, p.resent, md.prop.Last())
	}
	if md.issued < parkedAt+50 || len(md.requests) != 5 {
		t.Fatalf("%d tickets since the waiters parked, %d parked: the scenario is vacuous", md.issued-parkedAt, len(md.requests))
	}

	// Promote the subject and serve from it.
	sub := p.subject
	sub.promote(2)
	done := make(chan struct{})
	go func() { defer close(done); sub.Run() }()
	client := func(id uint32) *aliasClient {
		return &aliasClient{t: t, ep: scl.NewSimEndpoint(fab, aliasNode(id)), th: md.thread(id)}
	}
	t.Cleanup(func() {
		var ack proto.Ack
		if _, err := client(99).ep.Call(followerNode, &proto.Shutdown{}, &ack, 0); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	})
	unlock := func(c *aliasClient, lock uint32) {
		interval, pages, records := md.release(c.th)
		var ack proto.Ack
		c.call(&proto.UnlockReq{Lock: lock, Thread: c.th.id, Interval: interval, Pages: pages, Records: records}, &ack)
	}

	// Lock 9. Thread 9 re-issues its acquire while still queued: the live
	// request takes its stand-in's place. Thread 7 unlocks, which grants
	// thread 8 through a waiter that answers nobody; thread 8 re-issues and
	// is answered from the recorded tenure, then unlocks, which grants
	// thread 9's live request.
	c7, c8, c9 := client(7), client(8), client(9)
	var resp9 proto.LockResp
	granted9 := make(chan struct{})
	go func() {
		defer close(granted9)
		c9.call(&proto.LockReq{Lock: 9, Thread: 9, LastSeen: c9.th.lastSeen}, &resp9)
	}()
	unlock(c7, 9)
	var resp8 proto.LockResp
	c8.call(&proto.LockReq{Lock: 9, Thread: 8, LastSeen: c8.th.lastSeen}, &resp8)
	md.owes("thread 8, granted while parked", c8.th.lastSeen, md.issued, resp8.Notices)
	if resp8.Seq != md.issued {
		t.Fatalf("thread 8 granted at seq %d, want %d", resp8.Seq, md.issued)
	}
	unlock(c8, 9)
	<-granted9
	md.owes("thread 9, re-attached in the queue", c9.th.lastSeen, md.issued, resp9.Notices)

	// Barrier 2: thread 13 completes the round, which releases the two
	// arrivals parked from the log; each re-issues its arrival and is
	// answered as a duplicate of a released round.
	c13 := client(13)
	c13.th.epoch++
	interval, pages, records := md.release(c13.th)
	var bresp proto.BarrierResp
	c13.call(&proto.BarrierReq{
		Barrier: 2, Count: aliasBarrierCount, Thread: 13, LastSeen: c13.th.lastSeen,
		Interval: interval, Pages: pages, Records: records, Epoch: 1,
	}, &bresp)
	for _, id := range []uint32{11, 12} {
		var again proto.BarrierReq
		if err := proto.Decode(&again, md.requests[id]); err != nil {
			t.Fatal(err)
		}
		var resp proto.BarrierResp
		client(id).call(&again, &resp)
		md.owes("a barrier arrival released while parked", again.LastSeen, md.issued, resp.Notices)
	}

	// Condition 9: a signal wakes thread 10, which takes lock 8 through a
	// waiter that answers nobody; its re-issued wait is answered from the
	// tenure.
	var ack proto.Ack
	c13.call(&proto.CondSignalReq{Cond: 9, Thread: 13}, &ack)
	var again proto.CondWaitReq
	if err := proto.Decode(&again, md.requests[10]); err != nil {
		t.Fatal(err)
	}
	var cresp proto.CondWaitResp
	client(10).call(&again, &cresp)
	md.owes("the condition waiter", again.LastSeen, md.issued, cresp.Notices)
}
