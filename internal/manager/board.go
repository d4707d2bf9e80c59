package manager

import "repro/internal/proto"

// noticeBoard is the write-notice directory: release intervals stamped
// with a global sequence number, plus each thread's pruning horizon.
//
// One board serves every home: the acquire protocol carries a single
// scalar horizon (LastSeen), so notice sequencing must stay globally
// ordered for lazy release consistency to hold across locks homed on
// different shards. Like the homes, it belongs to the manager's one
// goroutine.
//
// Sequence numbers are TICKETS. The dispatcher reserves one, in arrival
// order, for every interval-carrying request before the request's home
// runs; the home then fills it with the interval, or refuses the release
// (fenced, malformed or a duplicate) and leaves the ticket unfilled, a
// permanent gap in the numbering. An empty interval (no page, no record)
// leaves a gap too: only intervals that wrote something are notices.
// Reserve, fill and any acquire the request triggers run back to back,
// so at every acquire each issued ticket is settled and the delivery
// frontier is the last ticket issued.
type noticeBoard struct {
	issued uint64 // last ticket handed out by the dispatcher

	notices []proto.Notice // filled intervals, ascending Seq
	// pruned is what the last prune dropped. It is cleared at the next
	// fill or prune, not at once, so a view of the directory (span) stays
	// whole until the answer it went into is encoded.
	pruned   []proto.Notice
	lastSeen map[uint32]uint64
	// lastInterval tracks each writer's highest filled interval number.
	// Interval numbers are assigned client-side and monotonic per
	// thread across all its releases, so a replicated manager can
	// recognize a re-issued release (a reply lost to a leader failover)
	// as a duplicate: its interval is already filled.
	lastInterval map[uint32]uint64
	stats        *Stats
}

func newBoard(st *Stats) *noticeBoard {
	return &noticeBoard{
		lastSeen:     make(map[uint32]uint64),
		lastInterval: make(map[uint32]uint64),
		stats:        st,
	}
}

// ensure makes sure a thread participates in the pruning horizon.
// Threads register explicitly at spawn; acquires also auto-register so
// the manager never prunes a notice an active thread has not seen.
func (b *noticeBoard) ensure(thread uint32, lastSeen uint64) {
	if _, ok := b.lastSeen[thread]; !ok {
		b.lastSeen[thread] = lastSeen
	}
}

// reserve hands out the next ticket. Called by the dispatcher, in
// arrival order, for every request that will post an interval.
func (b *noticeBoard) reserve() uint64 {
	b.issued++
	return b.issued
}

// filled reports whether the writer's interval is already in the
// directory (or was pruned after being delivered): the duplicate test
// for re-issued releases after a manager failover.
func (b *noticeBoard) filled(writer uint32, interval uint64) bool {
	return interval != 0 && interval <= b.lastInterval[writer]
}

// fill stores the interval for the ticket just reserved. An interval
// that names no page and carries no record tells an acquirer nothing: it
// is recorded as filled, for the duplicate test, but stores no notice,
// and its ticket stays a gap like a refused release's.
func (b *noticeBoard) fill(seq uint64, tag proto.IntervalTag, pages []uint64, records []proto.StoreRecord) {
	if tag.Interval > b.lastInterval[tag.Writer] {
		b.lastInterval[tag.Writer] = tag.Interval
	}
	if len(pages) == 0 && len(records) == 0 {
		return
	}
	b.forget()
	b.notices = append(b.notices, proto.Notice{Seq: seq, Tag: tag, Pages: pages, Records: records})
	b.stats.NoticesStored.Add(1)
}

// acquire serves an acquire point: it returns the notices the thread
// has not seen plus the delivery frontier, advances the thread's horizon,
// and prunes. The horizon moves to the frontier only when the answer is
// delivered to the thread. An answer that reaches nobody (a follower
// applying the log, a replay waiter's no-op reply) moves it only to
// since, which the thread itself claimed: the thread may yet re-issue the
// request from that horizon to a promoted replica, which must still hold
// every notice above it. The notices are span's view, taken before the
// prune: every caller queues its answer, which encodes them, at once.
func (b *noticeBoard) acquire(thread uint32, since uint64, delivered bool) ([]proto.Notice, uint64) {
	ns := b.span(since, b.issued)
	b.settle(thread, since, delivered)
	return ns, b.issued
}

// settle moves the thread's horizon after an acquire (see acquire).
func (b *noticeBoard) settle(thread uint32, since uint64, delivered bool) {
	if delivered {
		since = b.issued
	}
	b.saw(thread, since)
}

// after copies the notices with since < Seq <= upTo, so the batch a
// caller holds is unaffected by later fills and prunes.
func (b *noticeBoard) after(since, upTo uint64) []proto.Notice {
	return append([]proto.Notice(nil), b.span(since, upTo)...)
}

// span is the directory's own notices with since < Seq <= upTo: a view.
// It stays whole through one prune (see pruned), but not through a fill
// or a second prune, so its caller encodes it first. It is what a caller
// that encodes at once reads from: a handoff train's shared backlog (from
// its lowest waiter horizon up to the holder's acquire point; later
// notices are delivered at each successor's next acquire) and acquire.
func (b *noticeBoard) span(since, upTo uint64) []proto.Notice {
	i := len(b.notices)
	for i > 0 && b.notices[i-1].Seq > since {
		i--
	}
	j := len(b.notices)
	for j > 0 && b.notices[j-1].Seq > upTo {
		j--
	}
	if i > j {
		i = j
	}
	b.stats.NoticesSent.Add(int64(j - i))
	return b.notices[i:j]
}

// saw advances a thread's horizon to seq (never backwards) and prunes.
func (b *noticeBoard) saw(thread uint32, seq uint64) {
	if seq > b.lastSeen[thread] {
		b.lastSeen[thread] = seq
	}
	b.prune()
}

// dropThread removes a departed thread from the pruning horizon. Its
// lastInterval entry stays: a late duplicate of the corpse's release
// must still be recognized as one.
func (b *noticeBoard) dropThread(tid uint32) {
	delete(b.lastSeen, tid)
	b.prune()
}

// prune drops notices below every remaining thread's horizon.
func (b *noticeBoard) prune() {
	b.forget()
	min := b.issued
	for _, s := range b.lastSeen {
		if s < min {
			min = s
		}
	}
	cut := 0
	for cut < len(b.notices) && b.notices[cut].Seq <= min {
		cut++
	}
	if cut > 0 {
		b.stats.NoticesPruned.Add(int64(cut))
		b.pruned = b.notices[:cut]
		b.notices = b.notices[cut:]
	}
}

// forget clears what the last prune dropped, in place: that lets go of
// the pruned intervals' page lists and records before fill's next growth
// leaves the old array behind.
func (b *noticeBoard) forget() {
	clear(b.pruned)
	b.pruned = nil
}
