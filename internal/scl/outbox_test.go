package scl

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/proto"
	"repro/internal/vtime"
)

// recorder is an endpoint that keeps what is posted through it; answers
// reach the reply function of the request they answer.
type recorder struct {
	Endpoint
	log *[]string
}

func (r recorder) Post(dst NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error) {
	*r.log = append(*r.log, fmt.Sprintf("post %v to %d at %d: % x", m.Kind(), dst, at, proto.Encode(m)))
	return at, nil
}

// The outbox's policy: nothing leaves before Flush, which sends in queue
// order; an answer is encoded when queued and dropped when nobody waits;
// an error answer carries its code, and a request that does not decode is
// refused with CodeGeneric; a post is encoded when sent.
func TestOutboxSendsInQueueOrderOnFlush(t *testing.T) {
	var log []string
	caller := func(name string, kind proto.Kind, body []byte) Request {
		return NewRequest(1, kind, body, func(kind uint16, body []byte, at vtime.Time) {
			log = append(log, fmt.Sprintf("answer %s: %v at %d: % x", name, proto.Kind(kind), at, body))
		})
	}
	o := NewOutbox(recorder{log: &log})
	ack := &proto.Ack{}
	grant := &proto.LockGrant{Lock: 3, Gen: 1}
	o.Answer(caller("a", proto.KPing, nil), ack, 10)
	o.Post(7, grant, 20)
	o.Answer(NewRequest(2, proto.KPing, nil, nil), ack, 30) // one-way: nobody waits
	o.AnswerError(caller("b", proto.KPing, nil), proto.CodeNotLeader, errors.New("not the leader"), 40)
	o.AnswerBody(caller("c", proto.KPing, nil), proto.KAck, []byte{}, 50)
	bad := caller("d", proto.KAllocReq, []byte{0xff})
	if o.Decode(&bad, &proto.AllocReq{}, 60) {
		t.Error("a truncated AllocReq decoded")
	}
	good := caller("e", proto.KAllocReq, proto.Encode(&proto.AllocReq{Size: 8}))
	var ar proto.AllocReq
	if !o.Decode(&good, &ar, 70) || ar.Size != 8 {
		t.Errorf("an AllocReq decoded to %+v", ar)
	}
	grant.Gen = 2 // a post is encoded when it is sent
	if len(log) != 0 {
		t.Fatalf("sent before Flush: %q", log)
	}
	o.Flush()
	o.Flush() // the queue is empty again
	refusal := proto.Encode(&proto.Error{Code: proto.CodeNotLeader, Text: "not the leader"})
	truncated := proto.Encode(&proto.Error{Code: proto.CodeGeneric, Text: proto.Decode(&ar, []byte{0xff}).Error()})
	want := []string{
		"answer a: ack at 10: ",
		fmt.Sprintf("post lock-grant to 7 at 20: % x", proto.Encode(&proto.LockGrant{Lock: 3, Gen: 2})),
		fmt.Sprintf("answer b: error at 40: % x", refusal),
		"answer c: ack at 50: ",
		fmt.Sprintf("answer d: error at 60: % x", truncated),
	}
	if !slices.Equal(log, want) {
		t.Errorf("sent:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
	var re *RemoteError
	if err := decodeResponse(proto.KError, refusal, &proto.Ack{}); !errors.As(err, &re) || !errors.Is(err, proto.ErrNotLeader) {
		t.Errorf("the refusal decodes to %v, want a RemoteError that is proto.ErrNotLeader", err)
	}
}

// An error answer is made in one place, Refusal, so an audit of the codes
// the components answer with reads the callers of AnswerError and
// Refusal: no non-test code under internal/ outside scl writes a
// proto.Error literal, and inside scl only Refusal does.
func TestOnlyRefusalMakesAnErrorAnswer(t *testing.T) {
	found := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || !isProtoError(lit.Type, file.Name.Name) {
					return true
				}
				fn, _ := decl.(*ast.FuncDecl)
				if filepath.ToSlash(path) == "../scl/outbox.go" && fn != nil && fn.Name.Name == "Refusal" {
					found++
					return true
				}
				t.Errorf("%s: a proto.Error literal; answer with scl.Outbox.AnswerError or scl.Refusal", fset.Position(lit.Pos()))
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found != 1 {
		t.Errorf("Refusal makes %d proto.Error literals, want 1: the lint would be vacuous", found)
	}
}

// isProtoError reports whether a composite literal's type is proto.Error:
// named through the proto import, or as Error inside package proto.
func isProtoError(typ ast.Expr, pkg string) bool {
	switch typ := typ.(type) {
	case *ast.SelectorExpr:
		x, ok := typ.X.(*ast.Ident)
		return ok && x.Name == "proto" && typ.Sel.Name == "Error"
	case *ast.Ident:
		return pkg == "proto" && typ.Name == "Error"
	}
	return false
}
