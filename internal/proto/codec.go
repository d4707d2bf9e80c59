package proto

import (
	"cmp"
	"slices"
	"sync"
)

// Msg is implemented by every protocol message body.
type Msg interface {
	// Kind identifies the message type on the wire.
	Kind() Kind
	// Walk names the body's fields, in wire order, against c. The same
	// walk encodes or decodes, depending on c's direction; it is the
	// only place the message's field order is written down.
	Walk(c *Codec)
}

// Codec carries one message through its walk. Each primitive takes a
// pointer to a field and either appends the field to the codec's Writer
// (encoding, which never writes through the pointer) or fills it from
// the codec's Reader (decoding). Both states are held by value, so a
// codec is a single object, and Encode and Decode recycle that object:
// a walk is an interface call, which would otherwise move a codec of its
// own to the heap per message.
type Codec struct {
	w       Writer
	r       Reader
	dec     bool // direction: fill fields from r instead of appending them to w
	alias   bool // decoding: Payload fields and wire-form lists alias r.B instead of copying
	aliased bool // decoding: some field was left aliasing r.B

	noticeModes // decoding a notice list in two passes (wire.go)
	lastWins    // encoding a notice list without its dead records (wire.go)
}

// Decoding reports the walk's direction, for the few walks that must do
// more than name fields when filling them (allocate what a pointer
// field points to, rebuild what is derived from the decoded fields).
func (c *Codec) Decoding() bool { return c.dec }

// U8 walks one byte.
func (c *Codec) U8(v *uint8) {
	if c.dec {
		*v = c.r.U8()
	} else {
		c.w.U8(*v)
	}
}

// Bool walks a flag stored as one byte (1 or 0; any non-zero byte
// decodes as true).
func (c *Codec) Bool(v *bool) {
	if c.dec {
		*v = c.r.U8() != 0
	} else if *v {
		c.w.U8(1)
	} else {
		c.w.U8(0)
	}
}

// U16 walks a varint-encoded uint16.
func (c *Codec) U16(v *uint16) {
	if c.dec {
		*v = c.r.U16()
	} else {
		c.w.U64(uint64(*v))
	}
}

// U32 walks a varint-encoded uint32.
func (c *Codec) U32(v *uint32) {
	if c.dec {
		*v = c.r.U32()
	} else {
		c.w.U32(*v)
	}
}

// U64 walks a varint-encoded uint64.
func (c *Codec) U64(v *uint64) {
	if c.dec {
		*v = c.r.U64()
	} else {
		c.w.U64(*v)
	}
}

// I64 walks a zigzag-varint-encoded int64.
func (c *Codec) I64(v *int64) {
	if c.dec {
		*v = c.r.I64()
	} else {
		c.w.I64(*v)
	}
}

// U64s walks a length-prefixed slice of uint64. A destination that
// already has the capacity is filled in place, as Payload fills one.
func (c *Codec) U64s(v *[]uint64) {
	switch {
	case !c.dec:
		c.w.U64s(*v)
	case c.skim || c.slab:
		c.words(v)
	default:
		*v = c.r.U64s(*v)
	}
}

// Payload walks a length-prefixed byte string. A destination that
// already has the capacity is filled in place, as List fills one: a
// caller that decodes into a buffer of its own (a pooled line frame)
// gets the bytes there. Otherwise Decode fills the field with a copy,
// and under DecodeAlias the field is the body's own bytes — clipped to
// their length, so an append to the payload reallocates instead of
// running on into the rest of the body. An alias is for bytes the
// receiver reads, or takes over, while it still owns the body
// (DESIGN.md §11).
func (c *Codec) Payload(p *[]byte) {
	switch {
	case !c.dec:
		c.w.Bytes(*p)
	case c.skim:
		c.r.Bytes()
	default:
		b := c.r.Bytes()
		switch {
		case *p != nil && cap(*p) >= len(b):
			*p = append((*p)[:0], b...)
		case c.alias:
			*p, c.aliased = b[:len(b):len(b)], true
		default:
			*p = append([]byte(nil), b...)
		}
	}
}

// String walks a length-prefixed string.
func (c *Codec) String(s *string) {
	if c.dec {
		*s = string(c.r.Bytes())
	} else {
		c.w.U64(uint64(len(*s)))
		c.w.B = append(c.w.B, *s...)
	}
}

// tail guards a trailing group of fields that is omitted when zero, so
// that a message without it keeps its older, shorter encoding: the walk
// visits the group when encoding a message that has it set, and when
// decoding a body that has bytes left.
func (c *Codec) tail(set bool) bool {
	if c.dec {
		return c.r.err == nil && c.r.Remaining() > 0
	}
	return set
}

// List walks a count-prefixed list, element by element. Decoding rejects
// a count larger than the bytes that are left — every element takes at
// least one — before allocating anything for it, so a hostile length
// costs nothing; a count of zero decodes to an empty, non-nil slice. A
// destination that already has the capacity is cleared and filled in
// place: a caller that decodes into the same message again and again (a
// manager follower's appends) must keep no element of the last decode.
func List[T any](c *Codec, s *[]T, walk func(*Codec, *T)) {
	n, ok := c.count(len(*s))
	if !ok {
		return
	}
	if c.dec {
		if *s != nil && cap(*s) >= n {
			clear(*s)
			*s = (*s)[:n]
		} else {
			*s = make([]T, n)
		}
	}
	elems := *s
	for i := range elems {
		walk(c, &elems[i])
	}
}

// Map walks a count-prefixed map as key, value pairs in ascending key
// order, whatever order the map was filled in: equal maps encode to
// equal bytes. Decoding guards the count as List does, and a count of
// zero decodes to an empty, non-nil map.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, key func(*Codec, *K), val func(*Codec, *V)) {
	n, ok := c.count(len(*m))
	if !ok {
		return
	}
	if c.dec {
		*m = make(map[K]V, n)
		for ; n > 0 && c.r.err == nil; n-- {
			var k K
			var v V
			key(c, &k)
			val(c, &v)
			(*m)[k] = v
		}
		return
	}
	keys := make([]K, 0, n)
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		v := (*m)[k]
		key(c, &k)
		val(c, &v)
	}
}

// count walks the element count that prefixes a list or map. A decoded
// count larger than the bytes that are left fails the decode: ok is
// false and the caller allocates nothing.
func (c *Codec) count(have int) (n int, ok bool) {
	v := uint64(have)
	c.U64(&v)
	if c.dec && (c.r.err != nil || v > uint64(c.r.Remaining())) {
		c.r.fail()
		return 0, false
	}
	return int(v), true
}

// codecs recycles the codecs Encode and Decode walk with. A pooled
// codec is ready to encode: its Writer is empty (but keeps its buffer,
// so a message's many small appends grow a buffer that already exists)
// and its Reader is zero.
var codecs = sync.Pool{New: func() any { return new(Codec) }}

// maxEncodeScratch is the largest Writer buffer kept for reuse; a rare
// huge message (a replication snapshot) is left to the collector.
const maxEncodeScratch = 1 << poolMaxShift

// Encode serializes m (body only; the transport frames it). The result
// is a fresh buffer, allocated once at the encoded size, that the
// caller — and whoever the transport hands it to — owns outright.
func Encode(m Msg) []byte { return AppendEncode(nil, m) }

// AppendEncode is Encode into a buffer the caller keeps: it appends m's
// body to dst and returns the extended slice, allocating only when dst
// has too little room.
func AppendEncode(dst []byte, m Msg) []byte {
	c := codecs.Get().(*Codec)
	m.Walk(c)
	dst = append(dst, c.w.B...)
	c.recycle()
	return dst
}

// Marshal is Encode for bytes that are no wire message (the manager's
// replication snapshot): it runs walk against an encoding codec.
func Marshal(walk func(*Codec)) []byte {
	c := codecs.Get().(*Codec)
	walk(c)
	return c.finish()
}

// Size reports how many bytes Encode would make of m. It walks m
// against a pooled codec and keeps nothing, so counting a message it has
// no body of costs no allocation.
func Size(m Msg) int {
	c := codecs.Get().(*Codec)
	m.Walk(c)
	n := len(c.w.B)
	c.recycle()
	return n
}

// finish copies the encoded bytes out and recycles the codec.
func (c *Codec) finish() []byte {
	body := append([]byte(nil), c.w.B...)
	c.recycle()
	return body
}

// recycle empties an encoding codec and pools it, unless its Writer grew
// past the scratch a codec keeps.
func (c *Codec) recycle() {
	if cap(c.w.B) <= maxEncodeScratch {
		c.w.B = c.w.B[:0]
		codecs.Put(c)
	}
}

// Decode fills m from body, returning any decoding error. Byte payloads
// are copied out of body.
func Decode(m Msg, body []byte) error {
	_, err := decode(m, body, false)
	return err
}

// DecodeAlias fills m from body like Decode, but Payload fields (fetched
// lines, diff runs, store records, shipped pages, a replication
// snapshot's state) and wire-form lists (NoticeList, Train) alias body
// instead of being copied. The caller must
// own body: nothing else may write it, recycle it or decode it into
// something that is written through, for as long as m's payloads are in
// use. Every wire body qualifies — a transport delivers each encoded
// message to exactly one receiver in a buffer of its own — and a body
// may be decoded again (a retried handler) as long as every decode
// treats the payloads as read-only or only one of them takes ownership.
func DecodeAlias(m Msg, body []byte) error {
	_, err := decode(m, body, true)
	return err
}

// DecodeAliased is DecodeAlias that also reports whether any field of m
// (a Payload, a wire-form list) was left aliasing body. A caller that
// owns body may hand it back with PutBuf exactly when aliased is false:
// a Payload decoded into a destination with the room for it is a copy.
func DecodeAliased(m Msg, body []byte) (aliased bool, err error) {
	return decode(m, body, true)
}

func decode(m Msg, body []byte, alias bool) (aliased bool, err error) {
	c := decoder(body, alias)
	m.Walk(c)
	aliased = c.aliased
	return aliased, c.done()
}

// Unmarshal runs walk against a codec decoding body, the inverse of
// Marshal; byte payloads are copied out of body.
func Unmarshal(body []byte, walk func(*Codec)) error {
	c := decoder(body, false)
	walk(c)
	return c.done()
}

func decoder(body []byte, alias bool) *Codec {
	c := codecs.Get().(*Codec)
	c.r.B, c.dec, c.alias = body, true, alias
	return c
}

// done recycles a decoding codec and reports the first decoding error.
func (c *Codec) done() error {
	err := c.r.err
	c.r, c.dec, c.alias, c.aliased = Reader{}, false, false, false
	codecs.Put(c)
	return err
}
