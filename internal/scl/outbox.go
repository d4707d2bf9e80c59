package scl

import (
	"repro/internal/proto"
	"repro/internal/vtime"
)

// Outbox is the sending half of a component's door: the manager, the
// memory server and the thread's cache agent all queue into one. A
// transition queues and sends nothing; Flush alone sends, in queue order.
// An answer is encoded when it is queued (a handler answers from scratch
// messages and views that a later step overwrites), and only if somebody
// waits for it; an error answer carries a proto code, which the caller's
// decode turns back into its sentinel (RemoteError.Unwrap); a post is
// encoded when it is sent, so its message must own its data. The zero
// Outbox answers but cannot post.
type Outbox struct {
	ep Endpoint
	q  []queued
}

// queued is an answer to to, already encoded, or, with msg set, a post
// of msg to dst.
type queued struct {
	to   Request
	kind proto.Kind
	body []byte
	dst  NodeID
	msg  proto.Msg
	at   vtime.Time
}

// NewOutbox makes an outbox that posts through ep.
func NewOutbox(ep Endpoint) Outbox { return Outbox{ep: ep} }

// Answer queues m as the answer to to, at virtual time at on the
// responder's clock.
func (o *Outbox) Answer(to Request, m proto.Msg, at vtime.Time) {
	if !to.OneWay() {
		o.q = append(o.q, queued{to: to, kind: m.Kind(), body: proto.Encode(m), at: at})
	}
}

// AnswerBody queues an answer already encoded. The body becomes the
// transport's: the caller must neither reuse nor pool it.
func (o *Outbox) AnswerBody(to Request, kind proto.Kind, body []byte, at vtime.Time) {
	if !to.OneWay() {
		o.q = append(o.q, queued{to: to, kind: kind, body: body, at: at})
	}
}

// AnswerError queues a refusal: err's text under a proto code.
func (o *Outbox) AnswerError(to Request, code uint16, err error, at vtime.Time) {
	if !to.OneWay() {
		o.Answer(to, Refusal(code, err), at)
	}
}

// Refusal is the error answer AnswerError queues, for a component that
// keeps its answers (the manager's reply records). With AnswerError it is
// the only place an error answer is made.
func Refusal(code uint16, err error) proto.Msg {
	return &proto.Error{Code: code, Text: err.Error()}
}

// Decode decodes c's body into m like Request.DecodeAlias and refuses a
// malformed request with CodeGeneric at at. It reports whether m holds
// the request.
func (o *Outbox) Decode(c *Request, m proto.Msg, at vtime.Time) bool {
	if err := c.DecodeAlias(m); err != nil {
		o.AnswerError(*c, proto.CodeGeneric, err, at)
		return false
	}
	return true
}

// Post queues a one-way message to dst.
func (o *Outbox) Post(dst NodeID, m proto.Msg, at vtime.Time) {
	o.q = append(o.q, queued{dst: dst, msg: m, at: at})
}

// Flush sends what was queued since the last flush, in queue order. A
// failed post means the peer's port closed; the liveness layer, when
// enabled, is what unblocks anyone waiting on it.
func (o *Outbox) Flush() {
	for i := range o.q {
		if q := &o.q[i]; q.msg == nil {
			q.to.ReplyBody(q.kind, q.body, q.at)
		} else {
			_, _ = o.ep.Post(q.dst, q.msg, q.at)
		}
	}
	clear(o.q)
	o.q = o.q[:0]
}
