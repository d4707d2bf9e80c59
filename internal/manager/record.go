package manager

import (
	"bytes"

	"repro/internal/proto"
	"repro/internal/scl"
)

// replyRecord is one writer's last answered allocation-plane request
// (AllocReq, FreeReq, SnapshotASReq, ForkASReq): its Seq and its answer,
// encoded into the writer's own buffer. A thread has at most one such
// request outstanding and numbers them all with one Seq. When a reply lost
// to a leader failover makes it re-issue one to the next leader, which may
// have applied the first copy from the log, the record answers with the
// same bytes and nothing changes, whatever the first copy did: an
// allocation, either phase of a fork free, a snapshot, a fork or a
// refusal. Only allocPlane reads a request's Seq (TestManagerHasOneDoor).
type replyRecord struct {
	seq  uint64
	kind proto.Kind
	body []byte
}

// allocPlane returns the writer and Seq of an allocation-plane request.
// seq is 0 for any other request; a request with Seq 0 asks for no record.
func allocPlane(msg proto.Msg) (writer uint32, seq uint64) {
	switch r := msg.(type) {
	case *proto.AllocReq:
		return r.Thread, r.Seq
	case *proto.FreeReq:
		return r.Thread, r.Seq
	case *proto.SnapshotASReq:
		return r.Thread, r.Seq
	case *proto.ForkASReq:
		return r.Thread, r.Seq
	}
	return 0, 0
}

// repeat answers a re-issued allocation-plane request from its writer's
// record and reports true. For the first copy it reports false and arms
// the record, which answer then fills.
func (sh *shard) repeat(c *scl.Request, msg proto.Msg) bool {
	writer, seq := allocPlane(msg)
	if seq == 0 {
		return false
	}
	m := sh.m
	rec := m.replies[writer]
	if rec == nil {
		rec = new(replyRecord)
		m.replies[writer] = rec
	}
	if rec.seq != seq {
		sh.rec, sh.recSeq = rec, seq
		return false
	}
	if _, free := msg.(*proto.FreeReq); free {
		m.stats.DedupFrees.Add(1)
	} else {
		m.stats.DedupAllocs.Add(1)
	}
	sh.answerRecord(c, rec)
	return true
}

// answerRecord answers c with a record's answer. The answer gets a copy:
// the record's buffer is rewritten by its writer's next request.
func (sh *shard) answerRecord(c *scl.Request, rec *replyRecord) {
	if !c.OneWay() {
		sh.m.out.AnswerBody(*c, rec.kind, bytes.Clone(rec.body), sh.clock.Now())
	}
}

// walkReplyRecord is a record's part of the replication snapshot.
func walkReplyRecord(c *proto.Codec, rec *replyRecord) {
	c.U64(&rec.seq)
	c.U16((*uint16)(&rec.kind))
	c.Payload(&rec.body)
}
