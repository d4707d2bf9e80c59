package proto

// This file holds the two ways a notice list leaves the wire without an
// allocation per notice.
//
// A list the receiver only FORWARDS (a handoff train, a train entry's
// backlog, a grant's Notices and Inline) stays in wire form: its element
// count and its encoded elements, found by a skim that walks the list
// against scratch elements and keeps nothing. Forwarding it is one
// append of those bytes, whatever the list holds.
//
// A list the receiver CONSUMES (an acquire reply's Notices, a grant's
// lists once applyGrant wants them) is skimmed the same way first, which
// counts its page words and records; the second pass then decodes every
// notice's Pages out of one slab, every Records out of another, and the
// []Notice itself is the third allocation.
//
// Both passes run WalkNotice, so a notice's field order is still written
// down once.

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
	scratchSucc  SuccAnn
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
func skimSucc(c *Codec)   { walkSucc(c, &c.scratchSucc) }

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
	out := make([]Notice, n)
	c.wordSlab, c.recSlab, c.slab = make([]uint64, c.nwords), make([]StoreRecord, c.nrecs), true
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
func (l NoticeList) With(n *Notice) NoticeList {
	c := codecs.Get().(*Codec)
	c.w.B = append(c.w.B, l.b...)
	WalkNotice(c, n)
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

// Train is an announcement train in wire form: the encoded SuccAnns of
// the waiters a lock will be passed to, in order. A holder reads the
// head, forwards the rest and decodes neither.
type Train struct {
	n int
	b []byte
}

func walkTrain(c *Codec, t *Train) { c.wire(&t.n, &t.b, skimSucc) }

// Len reports the number of announcements left.
func (t Train) Len() int { return t.n }

// Head splits off the first announcement. rest is a sub-slice of t and
// head.Notices one of its bytes; neither is copied. An empty train
// returns zero values.
func (t Train) Head() (head SuccAnn, rest Train) {
	if t.n == 0 {
		return
	}
	c := decoder(t.b, true)
	walkSucc(c, &head)
	off := c.r.off
	c.done()
	if t.n > 1 {
		rest = Train{n: t.n - 1, b: t.b[off:]}
	}
	return
}

// TrainWriter composes a Train entry by entry, encoding each waiter's
// backlog straight from the slice it is handed (the manager's notice
// directory) without keeping a reference to it. The zero value is ready.
type TrainWriter struct {
	c *Codec
	n int
}

// Add appends one announcement.
func (w *TrainWriter) Add(waiter, node uint32, backlog []Notice) {
	if w.c == nil {
		w.c = codecs.Get().(*Codec)
	}
	walkSuccWaiter(w.c, &SuccAnn{Waiter: waiter, WaiterNode: node})
	List(w.c, &backlog, WalkNotice)
	w.n++
}

// Len reports the number of announcements added so far.
func (w *TrainWriter) Len() int { return w.n }

// Train returns what was added and resets the writer.
func (w *TrainWriter) Train() Train {
	if w.c == nil {
		return Train{}
	}
	t := Train{n: w.n, b: w.c.finish()}
	*w = TrainWriter{}
	return t
}
