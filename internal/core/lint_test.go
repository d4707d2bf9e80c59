package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// parsed is one non-test source file and, for each of its bytes, the
// name of the function declaration it lies in ("" outside any).
type parsed struct {
	path  string
	src   []byte
	file  *ast.File
	fset  *token.FileSet
	where []string
}

func parseNonTest(t *testing.T, path string) parsed {
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	where := make([]string, len(src))
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			for i := fn.Pos() - file.FileStart; i < fn.End()-file.FileStart; i++ {
				where[i] = fn.Name.Name
			}
		}
	}
	return parsed{path: path, src: src, file: file, fset: fset, where: where}
}

func (p parsed) in(pos token.Pos) string { return p.where[pos-p.file.FileStart] }

// The compute thread has one door (DESIGN.md §10). Its goroutines start
// only in spawn (and the two heartbeat loops, which run only on
// unsequenced fabrics), the sequencer's ledger is kept only by spawn and
// park (plus New issuing the caller's token and Close retiring it; an
// answer handed between goroutines credits through simnet.Handoff), the
// cache agent answers through scl's outbox, which only
// its run flushes, and the thread's endpoint is used directly only by the
// agent's receive, the peer-to-peer grant and retirement. Everything else
// goes through the address book's roles.
func TestCoreHasOneDoor(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	door := map[string][]string{
		".gate.":   {"spawn", "park", "New", "Close"},
		".Reply":   nil,
		".Flush()": {"run"},
		".ep.":     {"run", "Unlock", "Run"},
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		p := parseNonTest(t, f)
		for word, allowed := range door {
			for at := 0; ; at++ {
				i := strings.Index(string(p.src[at:]), word)
				if i < 0 {
					break
				}
				if at += i; !slices.Contains(allowed, p.where[at]) {
					t.Errorf("%s: %s in %q, allowed only in %v", f, word, p.where[at], allowed)
				}
			}
		}
		ast.Inspect(p.file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			fn := p.in(g.Pos())
			heartbeat := false
			if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok {
				heartbeat = sel.Sel.Name == "heartbeat"
			}
			if fn != "spawn" && !(heartbeat && (fn == "New" || fn == "Run")) {
				t.Errorf("%s: a go statement in %q; start goroutines with spawn", p.fset.Position(g.Pos()), fn)
			}
			return true
		})
	}
}

// Every component that answers requests queues its answers in scl's
// outbox, whose Flush alone answers, with scl.Request.ReplyBody: no
// non-test code under internal/ outside the outbox calls ReplyBody, Reply
// or ReplyError (scl keeps the last two, built on ReplyBody, for code
// outside internal/). Which function of a component may flush or touch
// its endpoint is that package's door lint.
func TestNothingRepliesOutsideAFlush(t *testing.T) {
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		p := parseNonTest(t, path)
		ast.Inspect(p.file, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Reply" && sel.Sel.Name != "ReplyError" && sel.Sel.Name != "ReplyBody") {
				return true
			}
			// The outbox's Flush answers; scl's answering methods are
			// built on each other and on the fabric's Request.Reply.
			fn, file := p.in(c.Pos()), filepath.ToSlash(path)
			if file == "../scl/outbox.go" && fn == "Flush" || file == "../scl/scl.go" && slices.Contains([]string{"Reply", "ReplyError", "ReplyBody"}, fn) {
				return true
			}
			t.Errorf("%s: %s called in %q; queue the answer in an scl.Outbox, whose Flush sends it", p.fset.Position(c.Pos()), sel.Sel.Name, fn)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A pooled buffer has one owner at a time, and only the owner hands it
// back (DESIGN.md §11). Outside proto, which owns the pool, the non-test
// code under internal/ calls proto.PutBuf only where an owner is done:
// the caller's decode of a response, the cache's drop sites (an evicted
// line, a discarded prefetch, a combined reply copied out, a frame
// copied into a resident line, a frame read copied into the thread's
// sealed frames) and the home's join, for an answer it never sent.
func TestPutBufOnlyWhereTheOwnerHandsBack(t *testing.T) {
	handBack := map[string][]string{
		"../scl/scl.go":             {"decodeResponse"},
		"../pagecache/pagecache.go": {"fault", "install", "evict", "discardPrefetch"},
		"../pagecache/frames.go":    {"frameFill"},
		"../memserver/memserver.go": {"complete"},
	}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		path = filepath.ToSlash(path)
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "../proto/") {
			return err
		}
		p := parseNonTest(t, path)
		ast.Inspect(p.file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "PutBuf" {
				return true
			}
			if fn := p.in(sel.Pos()); !slices.Contains(handBack[path], fn) {
				t.Errorf("%s: proto.PutBuf in %q; only an owner hands a buffer back, at %v", p.fset.Position(sel.Pos()), fn, handBack[path])
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
