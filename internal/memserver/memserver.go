// Package memserver implements Samhita's memory servers: the components
// that serve the pages backing the shared global address space
// (Section II). In the heterogeneous-node mapping of Figure 1 the memory
// server runs on the host processor and its DRAM is the backing store;
// compute threads on the coprocessor fault cache lines in from it and
// ship modifications back.
//
// A memory server is one goroutine: an event loop over its SCL endpoint
// that owns N page shards (Geometry.ShardOf, line-granular so a
// single-line fetch never splits; one shard by default). Each shard has
// its own calendar, parked fetches, page map and ownership table. Every
// request that names pages is split the same way: one splitter hands
// each shard its share, the shares run on their shards in turn, and one
// join answers when the last is done. A request that lands on one shard
// is a share of one. The server is also the *home* of its pages in the
// home-based lazy-release protocol:
//
//   - FetchLineReq / FetchLinesReq: assemble and return lines and pages.
//     The request quotes, per page, the interval tags whose DiffBatches
//     must already be applied (write notices the fetcher has seen); a
//     share that arrives before those diffs parks on its shard, and
//     parked shares wake in the order they parked. Pages still lazily
//     owned by a writer are pulled up to date on demand first.
//   - DiffBatch: apply page diffs and fine-grained store records for one
//     release interval, record ownership claims, then mark the interval
//     tag applied and wake the fetches waiting on it. Each shard marks
//     the tag for its own pages: a fetch only quotes a tag against pages
//     the tagged batch names, which land on the same shard.
//   - EvictFlush: the diff of a dirty page the cache had to evict
//     mid-interval, applied as an untagged batch; the owning interval's
//     later DiffBatch lists the page as already flushed.
//   - SealAS / ForkMap / ForkUnmap: snapshots and copy-on-write forks
//     (seal.go, tier.go).
//
// The server is a state machine behind one door. Run hands step each
// request it receives, step runs the transition and queues its replies
// in the outbox s.out, and Run flushes it. The two sends a transition
// needs an answer to, a diff pull from a writer's cache agent and a
// forward to the warm standby, go through s.call, which flushes first.
//
// Virtual time at the server is one service calendar per shard (see
// calendar.go): each share books the earliest idle slot at or after its
// own virtual arrival on its shard's calendar, cross-request ordering
// constraints flow through interval tags, and Clock() merges the shard
// calendars. Pages are materialized lazily and zero-filled.
//
// Sharding is a virtual-time model, not host parallelism: the shards'
// calendars overlap service windows in virtual time, which is where the
// sharded speedup comes from, while on the host one goroutine serves
// every shard. So a quiesced port (or an acked Ping) means a fully
// drained server whatever the shard count, and a shard blocking in a
// diff pull blocks the server, exactly as with one shard. Servers still
// run in parallel with each other and with the compute threads.
package memserver

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// Stats aggregates one memory server's activity. Counter fields are
// updated atomically so tests and harnesses may read them while the
// server runs.
type Stats struct {
	Fetches        atomic.Int64 // FetchLine requests served
	ParkedFetches  atomic.Int64 // per-shard fetch halves that had to wait for diffs
	DiffBatches    atomic.Int64
	DiffBytes      atomic.Int64
	Records        atomic.Int64
	EvictFlushes   atomic.Int64
	BytesServed    atomic.Int64 // line payload bytes returned
	PagesHosted    atomic.Int64 // distinct pages materialized
	OwnedClaims    atomic.Int64 // ownership claims recorded
	Pulls          atomic.Int64 // DiffPull round trips to writers
	PulledBytes    atomic.Int64 // diff payload bytes pulled on demand
	PullFailures   atomic.Int64 // DiffPull round trips that failed (writer unreachable)
	FailedFetches  atomic.Int64 // fetches answered with an error instead of data
	CombinedReqs   atomic.Int64 // multi-line combined fetch requests served
	CombinedExtras atomic.Int64 // companion lines carried by combined fetches

	// Sharding.
	SplitFetches    atomic.Int64 // combined fetches split across >1 shard
	SplitBatches    atomic.Int64 // diff batches / evict flushes split across >1 shard
	ParallelApplies atomic.Int64 // diff batches applied with the parallel copy pool
}

// AgentAddr maps a protocol writer id to the fabric node of that
// writer's cache agent, for on-demand diff pulls. A nil AgentAddr
// disables the lazy single-writer path (any ownership claim then
// panics loudly).
type AgentAddr func(writer uint32) scl.NodeID

// Server is one memory server instance: an event loop over its endpoint
// that owns one or more page shards.
type Server struct {
	ep        scl.Endpoint
	index     int // which server this is (for home validation)
	geo       layout.Geometry
	cpu       vtime.CPUModel
	agentAddr AgentAddr

	nshards int
	shards  []*shard

	// Checkpoint/failover state. A warm standby runs the same Server
	// code with standby=true: it applies the mutations its primary
	// forwards but refuses fetches until promoted. A primary with a
	// replica configured forwards every applied mutation (and the bytes
	// of every on-demand pull) to it, shard by shard: the standby's
	// identical shard mapping routes every forward wholly to the
	// matching shard, preserving per-page apply order.
	standby    atomic.Bool
	replica    scl.NodeID
	hasReplica bool
	live       *stats.Liveness

	// Tiered page store and snapshot/fork state. tierStats is shared
	// across servers (set even with tiering off, for seal/fork
	// counters); snaps holds sealed snapshot frames and fork range
	// mappings at server level because ShardOf is not congruent between
	// an original page and its image in a fork range.
	tierStats *stats.Tier
	snaps     *snapStore

	// obitGen records the highest WriterDead generation applied per
	// writer. A replicated manager's old and new leader may both reap
	// the same dead lease; the generation (stamped by the leader that
	// first reaped it, re-broadcast verbatim on promotion) makes the
	// duplicate obituary a no-op instead of a second barrier-free
	// unpark sweep.
	obitGen map[uint32]uint64

	// out holds the replies queued since the last flush (the server
	// posts nothing). parts is the splitter's scratch: each shard's share
	// of the request being split. joins holds answered joins for reuse.
	out   scl.Outbox
	parts []*share
	joins []*join
	// lineReq and linesReq are what fetch decodes a request into: a
	// message handed to Decode escapes, so a local one is a heap object
	// per fetch. Nothing keeps them past fetch; the shares copy what
	// they need, so linesReq's Lines and Pages keep their arrays from
	// request to request. Its Needs do not: a parked fetch keeps them.
	lineReq  proto.FetchLineReq
	linesReq proto.FetchLinesReq

	stats Stats
}

// join answers a request once the last of its shares is done: at the
// latest share's completion, with the lowest-numbered failing shard's
// error if any failed (so the answer does not depend on the order parked
// shares complete in), else with an Ack or, for a fetch, the assembled
// data. It keeps the request, by value, which is whom to answer, and the
// request's timing. Once it has answered nothing refers to it or its
// shares, and it is reused, shares and all, so a request costs no
// allocation of its own.
type join struct {
	req     scl.Request
	mute    bool // a share made a forward the standby may lack: answer nobody (see Server.forward)
	errCode uint16
	// A share may start at begin and books svc of fixed service on top of
	// its own work; see dispatch.
	begin, svc vtime.Time
	shares     []*share
	remaining  int
	done       vtime.Time
	err        error
	errShard   int
	// A fetch's answer is a pooled body (proto.PayloadBody) that the
	// shares copy their segments into, at data, its payload window. The
	// join owns the body until complete queues it; a body it never sends
	// goes back to the pool.
	body, data []byte
	snap       uint64 // a seal's snapshot
	frames     bool   // a frame read (proto.FetchLinesReq.Frames)
}

// share is one shard's part of a request.
type share struct {
	j *join
	// A fetch or a seal: the lines and pages to serve or seal, where each
	// lands in j.data (lines, then pages), and the interval tags quoted
	// against this shard's pages.
	lines []layout.LineID
	pages []layout.PageID
	offs  []int
	needs []proto.PageNeed
	// A batch: a DiffBatch's part, or an EvictFlush's as an untagged
	// batch.
	batch proto.DiffBatch
}

// reset empties p for another request, keeping the room its lists grew
// and letting go of what they held.
func (p *share) reset() {
	clear(p.needs)
	clear(p.batch.Diffs)
	clear(p.batch.Records)
	*p = share{lines: p.lines[:0], pages: p.pages[:0], offs: p.offs[:0], needs: p.needs[:0], batch: proto.DiffBatch{
		Diffs: p.batch.Diffs[:0], Records: p.batch.Records[:0], EmptyPages: p.batch.EmptyPages[:0], OwnedPages: p.batch.OwnedPages[:0],
	}}
}

// New creates a memory server with the given endpoint and home index,
// with a single shard and a no-op gate.
func New(ep scl.Endpoint, index int, geo layout.Geometry, cpu vtime.CPUModel, agentAddr AgentAddr) *Server {
	s := &Server{
		ep:        ep,
		index:     index,
		geo:       geo,
		cpu:       cpu,
		agentAddr: agentAddr,
		snaps:     newSnapStore(),
	}
	s.SetShards(1)
	return s
}

// SetTier configures the tiered page store: a hot set of at most
// hotBytes of uncompressed pages per server (split evenly across
// shards, floored at one page each) over a word-run-compressed cold
// tier whose demotion/promotion costs follow the given TierModel.
// hotBytes <= 0 disables tiering — every page stays hot and the data
// path is byte-identical to the untiered server. st collects tier and
// snapshot counters and is attached either way. Must be called after
// SetShards and before Run.
func (s *Server) SetTier(hotBytes int64, model vtime.TierModel, st *stats.Tier) {
	s.tierStats = st
	if hotBytes <= 0 {
		return
	}
	per := max(hotBytes/int64(s.nshards), int64(s.geo.PageSize))
	for _, sh := range s.shards {
		sh.tier = newTierStore(per, model, st)
	}
}

// Stats exposes the server's counters.
func (s *Server) Stats() *Stats { return &s.stats }

// ColdPages counts the pages in the server's cold tier. It reads the
// shards unlocked: call it only once Run has returned.
func (s *Server) ColdPages() int64 {
	var n int64
	for _, sh := range s.shards {
		if sh.tier != nil {
			n += int64(len(sh.tier.cold))
		}
	}
	return n
}

// SetShards splits the server's page space into n shards, each with its
// own service calendar (n < 1 means 1). Must be called before Run.
func (s *Server) SetShards(n int) {
	s.nshards = max(n, 1)
	s.shards = make([]*shard, s.nshards)
	s.parts = make([]*share, s.nshards)
	for i := range s.shards {
		s.shards[i] = &shard{
			srv:         s,
			id:          i,
			pages:       make(map[layout.PageID][]byte),
			appliedAt:   make(map[proto.IntervalTag]vtime.Time),
			owner:       make(map[layout.PageID]uint32),
			deadWriters: make(map[uint32]struct{}),
		}
	}
}

// SetStandby marks the server as a warm standby: it applies forwarded
// diff traffic but answers fetches with proto.ErrNotPromoted until a
// Promote message arrives. Must be called before Run.
func (s *Server) SetStandby(standby bool) { s.standby.Store(standby) }

// SetReplica points this (primary) server at its warm standby's node;
// every applied mutation is forwarded there. Must be called before Run.
func (s *Server) SetReplica(node scl.NodeID) {
	s.replica = node
	s.hasReplica = true
}

// SetLiveness attaches shared liveness counters for replication and
// promotion events. Must be called before Run.
func (s *Server) SetLiveness(live *stats.Liveness) { s.live = live }

// Clock reports the end of the last booked service slot across all
// shards — the server's notion of "how far virtual time has reached
// here".
func (s *Server) Clock() vtime.Time {
	var m vtime.Time
	for _, sh := range s.shards {
		m = max(m, vtime.Time(sh.clock.Load()))
	}
	return m
}

// Run is the shell around the server's transitions: it receives a
// request, runs step and flushes the replies step queued, until a
// Shutdown message arrives or the endpoint closes. It is the server's
// only goroutine.
func (s *Server) Run() {
	// The post statement runs after every pass, the last one included:
	// no exit leaves a queued reply unsent.
	for done := false; !done; s.out.Flush() {
		req, ok := s.ep.Recv()
		if !ok {
			s.failParked(proto.CodePeerDied, "memory server endpoint closed")
			done = true
			continue
		}
		done = s.step(&req)
	}
}

// step is one transition: it changes state and queues replies in s.out.
// Its only I/O is s.call. stop reports an orderly shutdown.
func (s *Server) step(c *scl.Request) (stop bool) {
	switch c.Kind() {
	case proto.KFetchLineReq, proto.KFetchLinesReq:
		s.fetch(c)
	case proto.KDiffBatch:
		var m proto.DiffBatch
		c.MustDecode(&m)
		s.stats.DiffBatches.Add(1)
		s.batch(c, &m)
	case proto.KEvictFlush:
		var m proto.EvictFlush
		c.MustDecode(&m)
		s.stats.EvictFlushes.Add(1)
		s.batch(c, &proto.DiffBatch{Tag: proto.IntervalTag{Writer: m.Writer}, Diffs: m.Diffs})
	case proto.KSealAS:
		var m proto.SealAS
		if s.out.Decode(c, &m, s.Clock()) {
			s.seal(s.newJoin(c), &m)
		}
	case proto.KForkMap:
		var m proto.ForkMap
		if s.out.Decode(c, &m, s.Clock()) && s.forkMap(&m, c.Arrive()) {
			s.out.Answer(*c, &proto.Ack{}, c.Arrive()+c.Svc())
		}
	case proto.KForkUnmap:
		var m proto.ForkUnmap
		if s.out.Decode(c, &m, s.Clock()) && s.forkUnmap(&m, c.Arrive()) {
			s.out.Answer(*c, &proto.Ack{}, c.Arrive()+c.Svc())
		}
	case proto.KWriterDead:
		s.writerDead(c)
	case proto.KPing:
		// Everything received before the ping is already applied (the
		// drain idiom relies on this); ack at the merged clock.
		s.out.Answer(*c, &proto.Ack{}, s.Clock())
	case proto.KPromote:
		// Idempotent: the runtime may re-promote on a retried failover.
		// Fetches already in the inbox were sent by fetchers racing the
		// failover; serving them post-flip is safe because quoted
		// interval tags, not the flag, gate data freshness.
		if s.standby.Load() {
			s.standby.Store(false)
			if s.live != nil {
				s.live.Promotions.Add(1)
			}
		}
		s.out.Answer(*c, &proto.Ack{}, s.Clock())
	case proto.KShutdown:
		s.out.Answer(*c, &proto.Ack{}, s.Clock())
		s.failParked(proto.CodeShutdown, "memory server shut down")
		return true
	default:
		s.out.AnswerError(*c, proto.CodeGeneric, fmt.Errorf("memserver: unexpected %v", c.Kind()), s.Clock())
	}
	return false
}

// call is the one door for the two sends a transition needs an answer
// to: a diff pull, whose bytes the same fetch or batch then applies, and
// a forward, whose ack decides whether the request is answered. Both
// block the server. call flushes the outbox first, because the server
// has always answered inline: on a sequenced fabric, a reply still
// queued here while the server parks in the call would reach its caller
// only after the sequencer has moved on, and virtual times would move.
//
// The pull stays synchronous on purpose. A fetch parked on its pull
// would let the server book other requests on its calendar before the
// pulled bytes are applied, and every run that pulls (jacobi pulls 1,632
// times per traced run, sync-p256 256 times) would move. A virtual
// deadline on both sends is ROADMAP item 1's.
func (s *Server) call(dst scl.NodeID, msg, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	s.out.Flush()
	return s.ep.Call(dst, msg, resp, at)
}

// forward sends an applied mutation to the warm standby and waits for
// its ack, and reports whether the request that made the forward may be
// answered. The forward sits between applying a sender's mutation and
// answering the sender, so an answer means the bytes are on both
// replicas; the round trip is wall-clock only and moves no virtual time.
// A dropped forward is retried by the endpoint's retry layer. A forward
// that failed because the standby is gone (proto.ErrPeerDied) loses
// nothing a promotion could need. Any other failure may have left the
// standby without the mutation, so the request gets no answer: its
// sender re-sends it, to the promoted standby if need be, and
// re-applying absolute-byte diffs is idempotent.
func (s *Server) forward(msg proto.Msg, at vtime.Time) bool {
	if !s.hasReplica {
		return true
	}
	var ack proto.Ack
	_, err := s.call(s.replica, msg, &ack, at)
	if s.live != nil {
		if err != nil {
			s.live.ReplFailures.Add(1)
		} else {
			s.live.ReplBatches.Add(1)
			s.live.ReplBytes.Add(int64(proto.Size(msg)))
		}
	}
	return err == nil || errors.Is(err, proto.ErrPeerDied)
}

// failParked fails every parked fetch on every shard with a typed error
// (shutdown or peer death).
func (s *Server) failParked(code uint16, why string) {
	for _, sh := range s.shards {
		sh.failParked(code, why)
	}
}

// newJoin starts the join of a request that will be split.
func (s *Server) newJoin(c *scl.Request) *join {
	var j *join
	if n := len(s.joins); n > 0 {
		j, s.joins = s.joins[n-1], s.joins[:n-1]
	} else {
		j = new(join)
	}
	j.req, j.begin, j.svc = *c, c.Arrive(), c.Svc()
	return j
}

// route returns the share of page p's shard in the request being split,
// making it on first use.
func (s *Server) route(j *join, p layout.PageID) *share {
	return s.part(j, s.geo.ShardOf(p, s.nshards))
}

func (s *Server) part(j *join, id int) *share {
	if s.parts[id] == nil {
		if n := len(j.shares); n < cap(j.shares) && j.shares[:n+1][n] != nil {
			j.shares = j.shares[:n+1] // kept from the join's last request
		} else {
			j.shares = append(j.shares, new(share))
		}
		p := j.shares[len(j.shares)-1]
		p.j = j
		s.parts[id] = p
	}
	return s.parts[id]
}

// routeNeeds hands each quoted need to its page's shard. A shard with
// only needs of the request still gets a share, so the tag is awaited
// where it will be applied.
func (s *Server) routeNeeds(j *join, needs []proto.PageNeed) {
	for i := range needs {
		p := s.route(j, layout.PageID(needs[i].Page))
		p.needs = append(p.needs, needs[i])
	}
}

// dispatch runs the shares of the request just split on their shards, in
// shard order. A share of one is ready at arrival and pays the fixed
// service inside its own slot, as a single loop always did. A split
// request pays it once, as a ready offset: the pickup and the split
// happen before any shard can start, and only the data-dependent work
// is charged per shard.
func (s *Server) dispatch(j *join) {
	j.remaining = len(j.shares)
	if j.remaining > 1 {
		j.begin, j.svc = j.begin+j.svc, 0
	}
	for id, p := range s.parts {
		if p != nil {
			s.parts[id] = nil
			s.shards[id].run(p)
		}
	}
}

// complete records that one share of j finished at at on the given
// shard, failed with err (and code) if err is set. The last one answers.
func (s *Server) complete(j *join, shard int, at vtime.Time, err error, code uint16) {
	j.done = max(j.done, at)
	if err != nil && (j.err == nil || shard < j.errShard) {
		j.err, j.errShard, j.errCode = err, shard, code
	}
	if j.remaining--; j.remaining > 0 {
		return
	}
	fetch := j.req.Kind() == proto.KFetchLineReq || j.req.Kind() == proto.KFetchLinesReq
	switch {
	case j.mute:
	case j.err != nil:
		if fetch {
			s.stats.FailedFetches.Add(1)
		}
		s.out.AnswerError(j.req, j.errCode, j.err, j.done)
	case fetch && !j.req.OneWay():
		// The body is the answer's encoding already, a FetchLineResp's or
		// a FetchLinesResp's alike; from here on it is the caller's.
		kind := proto.KFetchLinesResp
		if j.req.Kind() == proto.KFetchLineReq && len(j.shares) == 1 {
			kind = proto.KFetchLineResp
		}
		s.out.AnswerBody(j.req, kind, j.body, j.done)
		j.body = nil
	case !fetch:
		s.out.Answer(j.req, &proto.Ack{}, j.done)
	}
	proto.PutBuf(j.body) // an answer that was never sent
	s.recycle(j)
}

// recycle keeps an answered join, and its shares, for another request.
func (s *Server) recycle(j *join) {
	for _, p := range j.shares {
		p.reset()
	}
	*j = join{shares: j.shares[:0]}
	s.joins = append(s.joins, j)
}

// fetch serves a FetchLineReq or a FetchLinesReq: each shard gets the
// lines, pages and needs that map to it and copies its segments into
// the joined reply at offsets fixed here, from the request order.
func (s *Server) fetch(c *scl.Request) {
	var lines, pages []uint64
	var needs []proto.PageNeed
	var frames bool
	var err error
	if c.Kind() == proto.KFetchLineReq {
		m := &s.lineReq
		*m = proto.FetchLineReq{}
		err = proto.Decode(m, c.Body())
		lines, needs = []uint64{m.Line}, m.Needs
	} else {
		m := &s.linesReq
		*m = proto.FetchLinesReq{Lines: m.Lines[:0], Pages: m.Pages[:0]}
		if err = proto.Decode(m, c.Body()); err == nil && len(m.Lines)+len(m.Pages) == 0 {
			err = fmt.Errorf("memserver %d: empty combined fetch", s.index)
		}
		lines, pages, needs, frames = m.Lines, m.Pages, m.Needs, m.Frames
		if err == nil {
			s.stats.CombinedReqs.Add(1)
			s.stats.CombinedExtras.Add(int64(len(lines) + len(pages) - 1))
		}
	}
	if err != nil {
		s.out.AnswerError(*c, proto.CodeGeneric, err, s.Clock())
		return
	}
	if s.standby.Load() {
		// A standby serves no reads until promoted: the typed code lets
		// a fetcher with a stale address book distinguish "not yet
		// failed over" from a generic protocol error.
		s.stats.FailedFetches.Add(1)
		s.out.AnswerError(*c, proto.CodeNotPromoted, fmt.Errorf("memserver %d: standby not promoted", s.index), s.Clock())
		return
	}
	for _, l := range lines {
		if home := s.geo.HomeOf(s.geo.FirstPage(layout.LineID(l))); home != s.index {
			s.out.AnswerError(*c, proto.CodeGeneric, fmt.Errorf("memserver %d: line %d homes on server %d", s.index, l, home), s.Clock())
			return
		}
	}
	for _, p := range pages {
		if home := s.geo.HomeOf(layout.PageID(p)); home != s.index {
			s.out.AnswerError(*c, proto.CodeGeneric, fmt.Errorf("memserver %d: page %d homes on server %d", s.index, p, home), s.Clock())
			return
		}
	}
	if frames && !s.mapsFrames(lines, pages) {
		s.out.Answer(*c, &proto.FetchLinesResp{}, s.Clock())
		return
	}
	s.stats.Fetches.Add(1)
	j, size := s.newJoin(c), 0
	j.frames = frames
	for _, l := range lines {
		p := s.route(j, s.geo.FirstPage(layout.LineID(l)))
		p.lines, p.offs = append(p.lines, layout.LineID(l)), append(p.offs, size)
		size += s.geo.LineSize()
	}
	for _, pu := range pages {
		p := s.route(j, layout.PageID(pu))
		p.pages, p.offs = append(p.pages, layout.PageID(pu)), append(p.offs, size)
		size += s.geo.PageSize
	}
	s.routeNeeds(j, needs)
	j.body, j.data = proto.PayloadBody(size)
	if len(j.shares) > 1 {
		s.stats.SplitFetches.Add(1)
	}
	s.dispatch(j)
}

// mapsFrames reports whether a frame read may be served: it names pages
// only, and each maps a sealed frame here. One that does not is refused
// with no bytes, and the thread fetches the pages as it would any.
func (s *Server) mapsFrames(lines, pages []uint64) bool {
	for _, p := range pages {
		if _, ok := s.snaps.lookup(layout.PageID(p)); !ok {
			return false
		}
	}
	return len(lines) == 0
}

// batch applies a DiffBatch, or an EvictFlush as an untagged batch: each
// shard applies the diffs, records, empty pages and claims of its pages.
func (s *Server) batch(c *scl.Request, m *proto.DiffBatch) {
	j := s.newJoin(c)
	for i := range m.Diffs {
		p := s.route(j, layout.PageID(m.Diffs[i].Page))
		p.batch.Diffs = append(p.batch.Diffs, m.Diffs[i])
	}
	for i := range m.Records {
		p := s.route(j, s.geo.PageOf(layout.Addr(m.Records[i].Addr)))
		p.batch.Records = append(p.batch.Records, m.Records[i])
	}
	for _, pu := range m.EmptyPages {
		p := s.route(j, layout.PageID(pu))
		p.batch.EmptyPages = append(p.batch.EmptyPages, pu)
	}
	for _, pu := range m.OwnedPages {
		p := s.route(j, layout.PageID(pu))
		p.batch.OwnedPages = append(p.batch.OwnedPages, pu)
	}
	if len(j.shares) == 0 {
		// A batch naming no pages still marks its tag: it goes whole to
		// shard 0, so the tag is applied and forwarded exactly once.
		s.part(j, 0)
	}
	for _, p := range s.parts {
		if p != nil {
			p.batch.Tag = m.Tag
		}
	}
	if len(j.shares) > 1 {
		s.stats.SplitBatches.Add(1)
	}
	s.dispatch(j)
}

// writerDead fans a manager obituary to every shard: each stops waiting
// on the dead writer's unapplied interval tags. One-way and free of
// virtual-time cost, like the liveness plane that sends it.
func (s *Server) writerDead(c *scl.Request) {
	var m proto.WriterDead
	c.MustDecode(&m)
	if m.Gen != 0 {
		if s.obitGen == nil {
			s.obitGen = make(map[uint32]uint64)
		}
		if m.Gen <= s.obitGen[m.Writer] {
			return // duplicate obituary (old + new manager leader both reaped)
		}
		s.obitGen[m.Writer] = m.Gen
	}
	for _, sh := range s.shards {
		sh.writerDead(m.Writer)
	}
}
