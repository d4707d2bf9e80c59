package manager

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The manager is one goroutine that owns all of its state (renewTicker,
// the only other goroutine, touches none of it), so it needs no mutex. A
// mutex here has meant a blocking replication Call made under it, and a
// Close that never returned (ROADMAP item 1b).
func TestManagerHasNoMutex(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, "sync.Mutex") || strings.Contains(line, "sync.RWMutex") {
				t.Errorf("%s:%d: %s", f, i+1, strings.TrimSpace(line))
			}
		}
	}
}

// The manager has one door (DESIGN.md §11). Its sends go through scl's
// outbox: no code here calls a Request's Reply methods, and only Run
// flushes the outbox (and pushToPeers, which tells a deposed leader's
// waiters at once). Otherwise the endpoint is touched only by Run, by the
// two replication calls a transition makes itself and by the ticker that
// prods them. Run alone reads the wall clock, and the homes, the tables
// and the directory do not know a replica's role. A request decodes into the
// manager's scratch, never into a message of its own (proto.New), and
// only decodeReq names the scratch: a handler gets the message it serves
// and nothing it could keep past the call. Only the reply-record code
// (allocPlane) reads an allocation-plane request's Seq, so a re-issue is
// recognised in one place and no handler grows a dedup table of its own.
func TestManagerHasOneDoor(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	door := map[string][]string{
		".Reply":     nil,
		".Flush()":   {"Run", "pushToPeers"},
		".ep.":       {"Run", "pushToPeers", "sendSnapshot", "renewTicker"},
		"time.Now":   {"Run"},
		"proto.New(": nil,
		".scratch":   {"decodeReq"},
	}
	sealed := map[string]bool{"shard.go": true, "snapshot.go": true, "board.go": true, "state.go": true, "zone.go": true, "record.go": true}
	seqReaders := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		// where maps each byte of the file to the function it is in.
		where := make([]string, len(src))
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				for i := fn.Pos() - file.FileStart; i < fn.End()-file.FileStart; i++ {
					where[i] = fn.Name.Name
				}
			}
		}
		for word, allowed := range door {
			for at := 0; ; at++ {
				i := strings.Index(string(src[at:]), word)
				if i < 0 {
					break
				}
				if at += i; !slices.Contains(allowed, where[at]) {
					t.Errorf("%s: %s in %q, allowed only in %v", f, word, where[at], allowed)
				}
			}
		}
		for _, word := range []string{"isFollower", "scl.Endpoint"} {
			if sealed[f] && strings.Contains(string(src), word) {
				t.Errorf("%s names %s", f, word)
			}
		}
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && readsAllocPlaneSeq(fn) {
				seqReaders[fn.Name.Name] = true
			}
		}
	}
	if !seqReaders["allocPlane"] {
		t.Error("allocPlane reads no allocation-plane request's Seq: the lint below would be vacuous")
	}
	for fn := range seqReaders {
		if fn != "allocPlane" {
			t.Errorf("%s reads an allocation-plane request's Seq, allowed only in allocPlane", fn)
		}
	}
}

// allocPlaneReqs are the requests a re-issue is recognised by (record.go).
var allocPlaneReqs = []string{"AllocReq", "FreeReq", "SnapshotASReq", "ForkASReq"}

// isAllocPlaneReq reports whether a type expression is one of them, by
// value or by pointer.
func isAllocPlaneReq(typ ast.Expr) bool {
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	sel, ok := typ.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "proto" && slices.Contains(allocPlaneReqs, sel.Sel.Name)
}

// readsAllocPlaneSeq reports whether fn reads the Seq of an
// allocation-plane request: through a parameter or variable declared as
// one, a type-switch case that names exactly one, or a type assertion.
func readsAllocPlaneSeq(fn *ast.FuncDecl) bool {
	typed := map[string]bool{}
	bind := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			for _, n := range f.Names {
				typed[n.Name] = isAllocPlaneReq(f.Type)
			}
		}
	}
	bind(fn.Recv)
	bind(fn.Type.Params)
	found := false
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for _, name := range n.Names {
				typed[name.Name] = n.Type != nil && isAllocPlaneReq(n.Type)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && len(n.Rhs) == len(n.Lhs) {
					typed[id.Name] = allocPlaneValue(n.Rhs[i])
				}
			}
		case *ast.TypeSwitchStmt:
			assign, ok := n.Assign.(*ast.AssignStmt)
			if !ok {
				return true
			}
			name := assign.Lhs[0].(*ast.Ident).Name
			for _, clause := range n.Body.List {
				cc := clause.(*ast.CaseClause)
				was := typed[name]
				typed[name] = len(cc.List) == 1 && isAllocPlaneReq(cc.List[0])
				for _, stmt := range cc.Body {
					ast.Inspect(stmt, visit)
				}
				typed[name] = was
			}
			return false
		case *ast.SelectorExpr:
			if n.Sel.Name != "Seq" {
				return true
			}
			switch x := n.X.(type) {
			case *ast.Ident:
				found = found || typed[x.Name]
			default:
				found = found || allocPlaneValue(x)
			}
		}
		return true
	}
	if fn.Body != nil {
		ast.Inspect(fn.Body, visit)
	}
	return found
}

// allocPlaneValue reports whether an expression makes or asserts an
// allocation-plane request: &proto.AllocReq{...}, proto.FreeReq{...} or
// msg.(*proto.ForkASReq).
func allocPlaneValue(e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = u.X
	}
	if p, ok := e.(*ast.ParenExpr); ok {
		e = p.X
	}
	switch e := e.(type) {
	case *ast.CompositeLit:
		return isAllocPlaneReq(e.Type)
	case *ast.TypeAssertExpr:
		return e.Type != nil && isAllocPlaneReq(e.Type)
	}
	return false
}
