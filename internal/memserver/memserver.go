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
// its own calendar, parked-fetch table, page map and ownership table;
// the loop splits a DiffBatch/FetchLines request that spans shards,
// runs every share on its shard in turn and joins the per-shard
// replies. The server is also the *home* of its pages in the home-based
// lazy-release protocol:
//
//   - FetchLineReq: assemble and return one multi-page cache line. The
//     request quotes, per page, the interval tags whose DiffBatches must
//     already be applied (write notices the fetcher has seen); a fetch
//     that arrives before those diffs is parked and answered as soon as
//     the last one lands. Pages still lazily owned by a writer are
//     pulled up to date on demand first. Parking is per page shard:
//     a split fetch can have one shard's half parked while another
//     shard's half is already copied into the joined reply.
//   - DiffBatch (one-way): apply page diffs and fine-grained store
//     records for one release interval, record ownership claims, then
//     mark the interval tag applied and wake any parked fetches waiting
//     on it. Each shard marks the tag for its own pages — equivalent to
//     the unsharded behaviour because a fetch only quotes a tag against
//     pages the tagged batch names, which land on the same shard.
//   - EvictFlush (one-way): apply the diff of a dirty page the cache had
//     to evict mid-interval; the owning interval's later DiffBatch lists
//     the page as already flushed.
//   - DiffPull (outgoing): ask a writer's cache agent for the retained
//     diffs of pages it lazily owns.
//
// Virtual time at the server is one service calendar per shard (see
// calendar.go): each request books the earliest idle slot at or after
// its own virtual arrival on its shard's calendar, cross-request
// ordering constraints flow through interval tags, and Clock() merges
// the shard calendars. Pages are materialized lazily and zero-filled.
//
// Sharding is a virtual-time model, not host parallelism: the shards'
// calendars overlap service windows in virtual time, which is where the
// sharded speedup comes from, while on the host one goroutine serves
// every shard. So a quiesced port (or an acked Ping) means a fully
// drained server whatever the shard count, and a shard blocking in a
// diff-pull Call blocks the server, exactly as with one shard. Servers
// still run in parallel with each other and with the compute threads.
package memserver

import (
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
	// code with standby=true: it applies the diff stream its primary
	// forwards but refuses fetches until promoted. A primary with a
	// replica configured forwards every applied DiffBatch/EvictFlush
	// (and the bytes of every on-demand pull) to it, shard by shard:
	// each shard forwards its own applied sub-batches, and the standby's
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

	stats Stats
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
	s.setShards(1)
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
	per := hotBytes / int64(s.nshards)
	if per < int64(s.geo.PageSize) {
		per = int64(s.geo.PageSize)
	}
	for _, sh := range s.shards {
		sh.tier = newTierStore(per, model, st)
	}
}

// Stats exposes the server's counters.
func (s *Server) Stats() *Stats { return &s.stats }

// NumShards reports how many page shards the server runs.
func (s *Server) NumShards() int { return s.nshards }

// SetShards splits the server's page space into n shards, each with its
// own service calendar (n < 1 means 1). Must be called before Run.
func (s *Server) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	s.setShards(n)
}

func (s *Server) setShards(n int) {
	s.nshards = n
	s.shards = make([]*shard, n)
	for i := range s.shards {
		s.shards[i] = &shard{
			srv:         s,
			id:          i,
			pages:       make(map[layout.PageID][]byte),
			appliedAt:   make(map[proto.IntervalTag]vtime.Time),
			parked:      make(map[*parkedFetch]struct{}),
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
		if c := vtime.Time(sh.clock.Load()); c > m {
			m = c
		}
	}
	return m
}

// Run processes requests until a Shutdown message arrives or the
// endpoint closes. It is the server's only goroutine.
func (s *Server) Run() {
	for {
		req, ok := s.ep.Recv()
		if !ok {
			s.failParked(proto.CodePeerDied, "memory server endpoint closed")
			return
		}
		switch req.Kind() {
		case proto.KFetchLineReq:
			s.dispatchFetchLine(req)
		case proto.KFetchLinesReq:
			s.dispatchFetchLines(req)
		case proto.KDiffBatch:
			s.dispatchDiffBatch(req)
		case proto.KEvictFlush:
			s.dispatchEvictFlush(req)
		case proto.KPing:
			// Everything received before the ping is already applied
			// (the drain idiom relies on this); ack at the merged clock.
			req.Reply(&proto.Ack{}, s.Clock())
		case proto.KSealAS:
			s.dispatchSealAS(req)
		case proto.KForkMap:
			s.handleForkMap(req)
		case proto.KForkUnmap:
			s.handleForkUnmap(req)
		case proto.KWriterDead:
			s.dispatchWriterDead(req)
		case proto.KPromote:
			// Idempotent: the runtime may re-promote on a retried
			// failover. Fetches already in the inbox were sent by
			// fetchers racing the failover; serving them post-flip is
			// safe because quoted interval tags, not the flag, gate
			// data freshness.
			if s.standby.Load() {
				s.standby.Store(false)
				if s.live != nil {
					s.live.Promotions.Add(1)
				}
			}
			if !req.OneWay() {
				req.Reply(&proto.Ack{}, s.Clock())
			}
		case proto.KShutdown:
			if !req.OneWay() {
				req.Reply(&proto.Ack{}, s.Clock())
			}
			s.failParked(proto.CodeShutdown, "memory server shut down")
			return
		default:
			if !req.OneWay() {
				req.ReplyError(fmt.Errorf("memserver: unexpected %v", req.Kind()), s.Clock())
			}
		}
	}
}

// failParked answers every parked fetch on every shard with a typed
// error (shutdown or peer death).
func (s *Server) failParked(code uint16, why string) {
	for _, sh := range s.shards {
		sh.failParked(code, why)
	}
}

// ackFor builds the ack join for an RPC-style request split across n
// shards (nil for one-way traffic, which is never acknowledged).
func (s *Server) ackFor(req *scl.Request, n int) *ackJoin {
	if req.OneWay() {
		return nil
	}
	return &ackJoin{req: req, remaining: n}
}

// dispatchWriterDead fans a manager obituary to every shard: each
// stops waiting on the dead writer's unapplied interval tags. One-way
// and free of virtual-time cost, like the liveness plane that sends it.
func (s *Server) dispatchWriterDead(req *scl.Request) {
	var m proto.WriterDead
	if err := req.Decode(&m); err != nil {
		panic(fmt.Sprintf("memserver: bad WriterDead: %v", err))
	}
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

func (s *Server) dispatchFetchLine(req *scl.Request) {
	var m proto.FetchLineReq
	if err := req.Decode(&m); err != nil {
		req.ReplyError(err, s.Clock())
		return
	}
	s.routeFetch(req, []layout.LineID{layout.LineID(m.Line)}, nil, m.Needs, false)
}

func (s *Server) dispatchFetchLines(req *scl.Request) {
	var m proto.FetchLinesReq
	if err := req.Decode(&m); err != nil {
		req.ReplyError(err, s.Clock())
		return
	}
	if len(m.Lines)+len(m.Pages) == 0 {
		req.ReplyError(fmt.Errorf("memserver %d: empty combined fetch", s.index), s.Clock())
		return
	}
	lines := make([]layout.LineID, len(m.Lines))
	for i, lu := range m.Lines {
		lines[i] = layout.LineID(lu)
	}
	pages := make([]layout.PageID, len(m.Pages))
	for i, pu := range m.Pages {
		pages[i] = layout.PageID(pu)
	}
	s.stats.CombinedReqs.Add(1)
	s.stats.CombinedExtras.Add(int64(len(lines) + len(pages) - 1))
	s.routeFetch(req, lines, pages, m.Needs, true)
}

// routeFetch validates a fetch for lines and/or pages, then hands it to
// its page shard — or, when the request spans several shards, splits it
// into per-shard halves that assemble disjoint segments of one joined
// reply. A fetch still parks (now in its pages' shard) until every
// quoted interval tag has been applied there.
func (s *Server) routeFetch(req *scl.Request, lines []layout.LineID, pages []layout.PageID, needs []proto.PageNeed, multi bool) {
	if s.standby.Load() {
		// A standby serves no reads until promoted: the typed code lets
		// a fetcher with a stale address book distinguish "not yet
		// failed over" from a generic protocol error.
		s.stats.FailedFetches.Add(1)
		req.ReplyErrorCode(proto.CodeNotPromoted,
			fmt.Errorf("memserver %d: standby not promoted", s.index), s.Clock())
		return
	}
	for _, line := range lines {
		if home := s.geo.HomeOf(s.geo.FirstPage(line)); home != s.index {
			req.ReplyError(fmt.Errorf("memserver %d: line %d homes on server %d", s.index, line, home), s.Clock())
			return
		}
	}
	for _, p := range pages {
		if home := s.geo.HomeOf(p); home != s.index {
			req.ReplyError(fmt.Errorf("memserver %d: page %d homes on server %d", s.index, p, home), s.Clock())
			return
		}
	}
	s.stats.Fetches.Add(1)

	subs := make([]*subFetch, s.nshards)
	sub := func(id int) *subFetch {
		if subs[id] == nil {
			subs[id] = &subFetch{req: req, multi: multi}
		}
		return subs[id]
	}
	lineSize := s.geo.LineSize()
	for i, line := range lines {
		f := sub(s.geo.ShardOf(s.geo.FirstPage(line), s.nshards))
		f.lines = append(f.lines, line)
		f.lineOffs = append(f.lineOffs, i*lineSize)
	}
	base := len(lines) * lineSize
	for i, p := range pages {
		f := sub(s.geo.ShardOf(p, s.nshards))
		f.pages = append(f.pages, p)
		f.pageOffs = append(f.pageOffs, base+i*s.geo.PageSize)
	}
	for i := range needs {
		// A need gates the shard of its page; a shard with only needs
		// (no data of this request) still gets an empty half so the tag
		// is awaited where it will be applied.
		f := sub(s.geo.ShardOf(layout.PageID(needs[i].Page), s.nshards))
		f.needs = append(f.needs, needs[i])
	}
	count, single := 0, 0
	for id, f := range subs {
		if f != nil {
			count++
			single = id
		}
	}
	if count == 1 {
		// Whole request on one shard: serve it unsplit, replying
		// directly from the shard (no join, no reassembly).
		f := subs[single]
		f.lineOffs, f.pageOffs = nil, nil
		s.shards[single].serveFetch(f)
		return
	}
	s.stats.SplitFetches.Add(1)
	total := len(lines)*lineSize + len(pages)*s.geo.PageSize
	buf := proto.GetBuf(total)
	j := &fetchJoin{req: req, remaining: count, data: buf[:total]}
	for id, f := range subs {
		if f == nil {
			continue
		}
		f.join = j
		s.shards[id].serveFetch(f)
	}
}

func (s *Server) dispatchDiffBatch(req *scl.Request) {
	var m proto.DiffBatch
	if err := req.DecodeAlias(&m); err != nil {
		// One-way message: nothing to reply to; a decode failure here is
		// a protocol bug, so fail loudly.
		panic(fmt.Sprintf("memserver: bad DiffBatch: %v", err))
	}
	s.stats.DiffBatches.Add(1)
	subs := make([]*proto.DiffBatch, s.nshards)
	sub := func(id int) *proto.DiffBatch {
		if subs[id] == nil {
			subs[id] = &proto.DiffBatch{Tag: m.Tag}
		}
		return subs[id]
	}
	for i := range m.Diffs {
		b := sub(s.geo.ShardOf(layout.PageID(m.Diffs[i].Page), s.nshards))
		b.Diffs = append(b.Diffs, m.Diffs[i])
	}
	for i := range m.Records {
		b := sub(s.geo.ShardOf(s.geo.PageOf(layout.Addr(m.Records[i].Addr)), s.nshards))
		b.Records = append(b.Records, m.Records[i])
	}
	for _, pu := range m.EmptyPages {
		b := sub(s.geo.ShardOf(layout.PageID(pu), s.nshards))
		b.EmptyPages = append(b.EmptyPages, pu)
	}
	for _, pu := range m.OwnedPages {
		b := sub(s.geo.ShardOf(layout.PageID(pu), s.nshards))
		b.OwnedPages = append(b.OwnedPages, pu)
	}
	count := 0
	for _, b := range subs {
		if b != nil {
			count++
		}
	}
	if count == 0 {
		// A batch naming no pages still marks its tag: route it whole
		// to shard 0 so the tag is applied and replicated exactly once.
		subs[0], count = &m, 1
	}
	if count > 1 {
		s.stats.SplitBatches.Add(1)
	}
	j := s.ackFor(req, count)
	for id, b := range subs {
		if b != nil {
			s.shards[id].applyBatch(req, b, j, count > 1)
		}
	}
}

func (s *Server) dispatchEvictFlush(req *scl.Request) {
	var m proto.EvictFlush
	if err := req.DecodeAlias(&m); err != nil {
		panic(fmt.Sprintf("memserver: bad EvictFlush: %v", err))
	}
	s.stats.EvictFlushes.Add(1)
	subs := make([]*proto.EvictFlush, s.nshards)
	for i := range m.Diffs {
		id := s.geo.ShardOf(layout.PageID(m.Diffs[i].Page), s.nshards)
		if subs[id] == nil {
			subs[id] = &proto.EvictFlush{Writer: m.Writer}
		}
		subs[id].Diffs = append(subs[id].Diffs, m.Diffs[i])
	}
	count := 0
	for _, f := range subs {
		if f != nil {
			count++
		}
	}
	if count == 0 {
		subs[0], count = &m, 1
	}
	if count > 1 {
		s.stats.SplitBatches.Add(1)
	}
	j := s.ackFor(req, count)
	for id, f := range subs {
		if f != nil {
			s.shards[id].applyFlush(req, f, j, count > 1)
		}
	}
}
