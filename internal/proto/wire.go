package proto

// This file holds the two ways a notice list leaves the wire without an
// allocation per notice.
//
// A list the receiver only FORWARDS (a handoff train's shared backlog, a
// grant's Inline) stays in wire form: its element count and its encoded
// elements, found by a skim that walks the list against scratch elements
// and keeps nothing. Forwarding it is one append of those bytes, whatever
// the list holds.
//
// A list the receiver CONSUMES (an acquire reply's Notices, a grant's
// lists once applyGrant wants them) is skimmed the same way first, which
// counts its page words and records; the second pass then decodes every
// notice's Pages out of one slab, every Records out of another, and the
// []Notice itself is the third allocation.
//
// Both passes run WalkNotice, so a notice's field order is still written
// down once.
//
// The two forwarded lists are also where the last-record-wins rule runs
// (writeLastWins): a store record that a later notice of the same list
// repeats is never encoded.

import (
	"fmt"
	"slices"
)

// noticeModes is the Codec state of the two passes.
type noticeModes struct {
	// skim: decode against scratch and keep nothing. U64s and the record
	// list count their elements into nwords and nrecs instead of storing
	// them; byte strings are stepped over; wire-form lists are not
	// captured.
	skim         bool
	nwords       int
	nrecs        int
	scratch      Notice
	scratchStore StoreRecord

	// slab: U64s and the record list carve their slices off wordSlab and
	// recSlab, which the skim sized exactly.
	slab     bool
	wordSlab []uint64
	recSlab  []StoreRecord
}

// words is U64s under skim or slab.
func (c *Codec) words(v *[]uint64) {
	n, ok := c.count(0)
	if !ok {
		return
	}
	if c.skim {
		c.nwords += n
		for ; n > 0; n-- {
			c.r.U64()
		}
		return
	}
	*v, c.wordSlab = c.wordSlab[:n:n], c.wordSlab[n:]
	for i := range *v {
		(*v)[i] = c.r.U64()
	}
}

// records walks a notice's record list: List(c, s, walkRecord), plus the
// two passes.
func (c *Codec) records(s *[]StoreRecord) {
	n, ok := c.count(len(*s))
	if !ok {
		return
	}
	switch {
	case c.skim:
		c.nrecs += n
		for ; n > 0 && c.r.err == nil; n-- {
			walkRecord(c, &c.scratchStore)
		}
		return
	case c.slab:
		*s, c.recSlab = c.recSlab[:n:n], c.recSlab[n:]
	case c.dec:
		*s = make([]StoreRecord, n)
	}
	recs := *s
	for i := range recs {
		walkRecord(c, &recs[i])
	}
}

func skimNotice(c *Codec) { WalkNotice(c, &c.scratch) }

// skimEach steps the reader over n elements, making every check their
// walk makes and allocating nothing.
func (c *Codec) skimEach(n int, one func(*Codec)) {
	was := c.skim
	c.skim = true
	for ; n > 0 && c.r.err == nil; n-- {
		one(c)
	}
	c.skim = was
}

// Notices walks a notice list the receiver consumes whole. It encodes as
// List(c, s, WalkNotice) does; decoding costs three allocations however
// many notices, page words and records the list holds. A notice decoded
// this way shares its Pages and Records arrays with its neighbours (each
// clipped to its own length), so it is for lists that are applied and
// dropped together, not for notices that are kept one by one.
func Notices(c *Codec, s *[]Notice) {
	if !c.dec {
		List(c, s, WalkNotice)
		return
	}
	if n, ok := c.count(0); ok {
		*s = c.notices(n)
	}
}

// notices decodes the n notices at the reader's offset: skim, rewind,
// fill. It returns nil with the reader failed when the skim fails.
func (c *Codec) notices(n int) []Notice {
	start := c.r.off
	c.nwords, c.nrecs = 0, 0
	c.skimEach(n, skimNotice)
	if c.r.err != nil {
		return nil
	}
	c.r.off = start
	return c.fill(make([]Notice, n), make([]uint64, c.nwords), make([]StoreRecord, c.nrecs))
}

// fill decodes len(out) notices into out, carving their page words and
// records off words and recs, which the skim before it sized. recs must
// be zeroed: a record Data with room is filled in place (Payload).
func (c *Codec) fill(out []Notice, words []uint64, recs []StoreRecord) []Notice {
	c.wordSlab, c.recSlab, c.slab = words, recs, true
	for i := range out {
		WalkNotice(c, &out[i])
	}
	c.wordSlab, c.recSlab, c.slab = nil, nil, false
	return out
}

// wire walks a list kept in wire form: n elements whose encodings,
// without the count prefix, are b. Decoding finds the end of the list by
// skimming it, so a body is accepted exactly when a materialising walk
// would accept it; b aliases the body under DecodeAlias (clipped, so an
// append to it reallocates) and is a copy of its own otherwise.
func (c *Codec) wire(n *int, b *[]byte, one func(*Codec)) {
	if !c.dec {
		c.w.U64(uint64(*n))
		c.w.B = append(c.w.B, *b...)
		return
	}
	cnt, ok := c.count(0)
	if !ok {
		return
	}
	start := c.r.off
	c.skimEach(cnt, one)
	if c.skim || c.r.err != nil || cnt == 0 {
		return // inside a larger skim nothing is kept; an empty list is the zero value
	}
	*n, *b = cnt, c.r.B[start:c.r.off:c.r.off]
	if c.alias {
		c.aliased = true
	} else {
		*b = append([]byte(nil), *b...)
	}
}

// NoticeList is a notice list in wire form, for lists that pass through
// a node on their way to the thread that applies them. It is built by
// NoticesOf and With or by decoding, never from parts, so what it holds
// always decodes.
type NoticeList struct {
	n int
	b []byte
}

func walkNoticeList(c *Codec, l *NoticeList) { c.wire(&l.n, &l.b, skimNotice) }

// NoticesOf encodes ns. It reads ns and keeps no reference to it.
func NoticesOf(ns []Notice) NoticeList {
	c := codecs.Get().(*Codec)
	for i := range ns {
		WalkNotice(c, &ns[i])
	}
	return NoticeList{n: len(ns), b: c.finish()}
}

// With returns l followed by n, in a buffer of its own: l may alias a
// message body, which may be decoded again and must not be appended into.
// It keeps the list last-record-wins (see writeLastWins): every record of
// l whose address and length one of n's records repeats is left out. A
// list that only ever grows by With holds no dead record.
func (l NoticeList) With(n *Notice) NoticeList {
	c := codecs.Get().(*Codec)
	if l.n == 0 || len(n.Records) == 0 {
		c.w.B = append(c.w.B, l.b...)
		WalkNotice(c, n)
	} else {
		ns := append(c.lastWins.decode(l), *n)
		c.writeLastWins(ns)
		clear(ns)
		clear(c.lastWins.recs)
	}
	return NoticeList{n: l.n + 1, b: c.finish()}
}

// Notices materialises the list (three allocations, see Notices). The
// records' Data alias l's bytes, which are l's own or the body's it was
// decoded from under DecodeAlias.
func (l NoticeList) Notices() []Notice {
	c := decoder(l.b, true)
	ns := c.notices(l.n)
	c.done() // cannot fail: l holds what a walk wrote or a skim accepted
	return ns
}

// suffix returns l's last k notices as a sub-slice of l's bytes, found
// by skimming the notices ahead of them.
func (l NoticeList) suffix(k int) NoticeList {
	switch {
	case k >= l.n:
		return l
	case k <= 0:
		return NoticeList{}
	}
	c := decoder(l.b, true)
	c.skimEach(l.n-k, skimNotice)
	off := c.r.off
	c.done() // cannot fail: l holds what a walk wrote or a skim accepted
	return NoticeList{n: k, b: l.b[off:]}
}

// Train is an announcement train in wire form: the waiters a lock will
// be passed to, in order, each with its notice backlog. Every backlog of
// a train ends at the same anchor, so each is a suffix of the longest,
// and the train carries that list once: an entry is a waiter, its node
// and how many of the shared list's last notices are its backlog. The
// receiver of a grant splits off the head, its own entry, and keeps the
// rest; at its release it reads that rest's head waiter and node and
// forwards it whole. Neither decodes a notice it does not apply.
//
// The shared list is last-record-wins (see writeLastWins): a record a
// later notice of the list repeats is left out. Every suffix of it holds
// the survivor of each record it lost, so each backlog still leaves its
// receiver with the bytes it would have unfiltered.
//
// On the wire a train is its entry count n, the head's waiter and node,
// the shared list and, only when n >= 2, the head's backlog count
// followed by (waiter, node, backlog count) for every other entry. A
// train of one entry is its waiter, its node and its backlog; a train of
// none is the count alone.
type Train struct {
	n    int
	head trainEntry
	list NoticeList // the longest backlog; every entry's is a suffix of it
	rest []byte     // the encoded entries after the head
}

// trainEntry is one waiter of a train.
type trainEntry struct {
	waiter, node uint32
	backlog      uint64 // how many of the shared list's last notices are the waiter's
}

func walkTrainEntry(c *Codec, e *trainEntry) {
	c.U32(&e.waiter)
	c.U32(&e.node)
	c.U64(&e.backlog)
}

// skimEntries reads k encoded entries and returns the longest backlog
// among them and longest, stopping early if the read fails.
func skimEntries(c *Codec, k int, longest uint64) uint64 {
	var e trainEntry
	for i := 0; i < k && c.r.err == nil; i++ {
		walkTrainEntry(c, &e)
		longest = max(longest, e.backlog)
	}
	return longest
}

// walkTrain walks a train in its wire form. Decoding validates every
// entry: a backlog count larger than the shared list fails the decode.
// The shared list and the entries after the head alias the body under
// DecodeAlias, as any wire-form list does.
func walkTrain(c *Codec, t *Train) {
	n, ok := c.count(t.n)
	if !ok || n == 0 {
		return
	}
	c.U32(&t.head.waiter)
	c.U32(&t.head.node)
	walkNoticeList(c, &t.list)
	if n == 1 {
		if c.dec && c.r.err == nil {
			t.n, t.head.backlog = 1, uint64(t.list.n)
		}
		return
	}
	c.U64(&t.head.backlog)
	if !c.dec {
		c.w.B = append(c.w.B, t.rest...)
		return
	}
	start := c.r.off
	if skimEntries(c, n-1, t.head.backlog) > uint64(t.list.n) {
		c.r.fail()
	}
	if c.r.err != nil {
		return
	}
	t.n, t.rest = n, c.r.B[start:c.r.off:c.r.off]
	if c.alias {
		c.aliased = true
	} else {
		t.rest = append([]byte(nil), t.rest...)
	}
}

// Len reports the number of announcements left.
func (t Train) Len() int { return t.n }

// SuccAnn is the head of a Train, as Head hands it out: a waiter, its
// fabric node and its backlog (its horizon, the anchor]. The receiver of
// a LockGrant is its train's head, and the backlog is the notices it
// applies; everything a train holder added above the anchor travels as
// the grant's Inline intervals.
type SuccAnn struct {
	Waiter     uint32 // the waiter the entry names
	WaiterNode uint32 // fabric node its LockGrant is posted to
	Notices    NoticeList
}

// Next names the head's waiter and node without splitting the train: a
// holder posts its LockGrant there, carrying the train whole.
func (t Train) Next() (waiter, node uint32) { return t.head.waiter, t.head.node }

// Head splits off the first announcement. head.Notices is a sub-slice of
// the shared list; rest holds the entries after the head and the shared
// list trimmed to the longest backlog among them, again a sub-slice.
// Nothing is copied or re-encoded. An empty train returns zero values.
func (t Train) Head() (head SuccAnn, rest Train) {
	if t.n == 0 {
		return
	}
	head = SuccAnn{Waiter: t.head.waiter, WaiterNode: t.head.node, Notices: t.list.suffix(int(t.head.backlog))}
	if t.n == 1 {
		return
	}
	c := decoder(t.rest, true)
	walkTrainEntry(c, &rest.head)
	off := c.r.off
	longest := skimEntries(c, t.n-2, rest.head.backlog)
	c.done() // cannot fail: t holds what a walk wrote or a decode accepted
	rest.n, rest.list = t.n-1, t.list.suffix(int(longest))
	if rest.n > 1 {
		rest.rest = t.rest[off:]
	}
	return
}

// TrainWriter composes a Train: Add names the waiters in queue order,
// each with the length of its backlog, and Train encodes them with the
// longest backlog, which every other is a suffix of (the manager's
// notice directory from the lowest horizon to the anchor), keeping no
// reference to it.
// The zero value is ready.
type TrainWriter struct {
	c       *Codec // the entries after the head, then the shared list
	n       int
	head    trainEntry
	longest uint64
}

// Add appends one announcement whose backlog is the last backlog notices
// of the list Train will be handed.
func (w *TrainWriter) Add(waiter, node uint32, backlog int) {
	e := trainEntry{waiter: waiter, node: node, backlog: uint64(backlog)}
	if w.c == nil {
		w.c = codecs.Get().(*Codec)
	}
	if w.n == 0 {
		w.head = e
	} else {
		walkTrainEntry(w.c, &e)
	}
	w.longest = max(w.longest, e.backlog)
	w.n++
}

// Train returns what was added and resets the writer, and reports how
// many of shared's store records it left out under the last-record-wins
// rule. It panics unless shared is exactly the longest backlog: a longer
// backlog would not decode, and a longer list would be read back as a
// one-entry train's backlog.
func (w *TrainWriter) Train(shared []Notice) (t Train, dead int) {
	if w.c == nil {
		return Train{}, 0
	}
	if w.longest != uint64(len(shared)) {
		panic(fmt.Sprintf("proto: a train whose longest backlog is %d notices, on a shared list of %d", w.longest, len(shared)))
	}
	mark := len(w.c.w.B)
	dead = w.c.writeLastWins(shared)
	b := w.c.finish()
	t = Train{n: w.n, head: w.head, list: NoticeList{n: len(shared), b: b[mark:]}}
	if w.n > 1 {
		t.rest = b[:mark:mark]
	}
	*w = TrainWriter{}
	return t, dead
}

// The last-record-wins rule. A list the receiver applies in order ends
// with the same bytes if a store record is left out whenever a record of
// a later notice in the same list has its address and length: the later
// one overwrites exactly those bytes. A train's backlogs are suffixes of
// its shared list, and a suffix that holds a dropped record holds its
// survivor too, so the rule keeps every backlog right; Inline is applied
// whole. Every notice is kept, even one left with no page and no record:
// its tag and Seq still matter to the receiver (horizons, its own
// notices coming back). Records of another length at the same address
// are kept, however they overlap. The rule runs where a list is encoded,
// never where the manager files a notice: a span read below the newest
// filing (a train anchored at an older grant) would lose a record whose
// survivor it does not hold.

// recordKey is what the rule compares of two store records.
type recordKey struct {
	addr uint64
	n    int
}

// lastWins is the rule's scratch, kept on a pooled codec so a train or
// an Inline extension allocates nothing once the pool is warm. The
// records it held are cleared after each use, so it keeps no body alive.
type lastWins struct {
	later map[recordKey]struct{} // the records of the notices after the one read
	dead  []bool                 // per record of the list, flattened in list order
	kept  []StoreRecord          // one notice's surviving records
	// decode's copy of a list With extends: its notices and their page
	// words and records.
	inline []Notice
	words  []uint64
	recs   []StoreRecord
}

// writeLastWins appends ns to the codec's Writer as a notice list's
// elements under the last-record-wins rule and reports how many records
// it left out.
func (c *Codec) writeLastWins(ns []Notice) (dead int) {
	f := &c.lastWins
	if dead = f.mark(ns); dead == 0 {
		for i := range ns {
			WalkNotice(c, &ns[i])
		}
		return 0
	}
	off := 0
	for i := range ns {
		n := &ns[i]
		gone := f.dead[off : off+len(n.Records)]
		off += len(n.Records)
		if !slices.Contains(gone, true) {
			WalkNotice(c, n)
			continue
		}
		f.kept = f.kept[:0]
		for j := range gone {
			if !gone[j] {
				f.kept = append(f.kept, n.Records[j])
			}
		}
		live := Notice{Seq: n.Seq, Tag: n.Tag, Pages: n.Pages, Records: f.kept}
		WalkNotice(c, &live)
	}
	clear(f.kept)
	return dead
}

// mark sets f.dead for every record of ns, flattened in list order, to
// whether a record of a later notice repeats it, walking ns from its
// end, and reports how many it set.
func (f *lastWins) mark(ns []Notice) (dead int) {
	total := 0
	for i := range ns {
		total += len(ns[i].Records)
	}
	if len(ns) < 2 || total == 0 {
		return 0
	}
	if f.later == nil {
		f.later = make(map[recordKey]struct{})
	}
	f.dead = slices.Grow(f.dead[:0], total)[:total]
	end := total
	for i := len(ns) - 1; i >= 0; i-- {
		recs := ns[i].Records
		end -= len(recs)
		for j := range recs {
			_, gone := f.later[recordKey{recs[j].Addr, len(recs[j].Data)}]
			f.dead[end+j] = gone
			if gone {
				dead++
			}
		}
		for j := range recs {
			f.later[recordKey{recs[j].Addr, len(recs[j].Data)}] = struct{}{}
		}
	}
	clear(f.later)
	return dead
}

// decode materialises l into f's reused arrays, with room for one more
// notice. The notices alias l's bytes; the caller clears them, and recs,
// once it has written them.
func (f *lastWins) decode(l NoticeList) []Notice {
	c := decoder(l.b, true)
	c.nwords, c.nrecs = 0, 0
	c.skimEach(l.n, skimNotice)
	c.r.off = 0
	f.inline = slices.Grow(f.inline[:0], l.n+1)[:l.n]
	f.words = slices.Grow(f.words[:0], c.nwords)[:c.nwords]
	f.recs = slices.Grow(f.recs[:0], c.nrecs)[:c.nrecs]
	ns := c.fill(f.inline, f.words, f.recs)
	c.done() // cannot fail: l holds what a walk wrote or a skim accepted
	return ns
}
