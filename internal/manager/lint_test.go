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

// The manager has one door (DESIGN.md §13). Run alone reads the wall
// clock; the endpoint is touched only by Run, by flush, and by the two
// replication calls a transition makes itself and the ticker that prods
// it; and the homes, the tables and the directory know neither a
// replica's role nor how a reply is sent. A request decodes into the
// manager's scratch, never into a message of its own (proto.New), and
// only decodeReq names the scratch: a handler gets the message it serves
// and nothing it could keep past the call.
func TestManagerHasOneDoor(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	door := map[string][]string{
		"time.Now":   {"Run"},
		".ep.":       {"Run", "flush", "pushToPeers", "sendSnapshot", "renewTicker"},
		"proto.New(": nil,
		".scratch":   {"decodeReq"},
	}
	sealed := map[string]bool{"shard.go": true, "snapshot.go": true, "board.go": true, "state.go": true, "zone.go": true}
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
		for _, word := range []string{"isFollower", "scl.Endpoint", ".Reply(", "ReplyBody"} {
			if sealed[f] && strings.Contains(string(src), word) {
				t.Errorf("%s names %s", f, word)
			}
		}
	}
}
