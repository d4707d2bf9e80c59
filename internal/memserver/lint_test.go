package memserver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The memory server has one door (DESIGN.md §11), as the manager does.
// Its answers go through scl's outbox: no code here calls a Request's
// Reply methods, and only Run and call flush the outbox. The endpoint is
// touched only by Run and by call, the one way a transition sends
// something it needs an answer to; and the shards, the tier and the
// calendar do not know there is an endpoint at all.
func TestMemserverHasOneDoor(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	door := map[string][]string{
		".Reply":   nil,
		".Flush()": {"Run", "call"},
		".ep.":     {"Run", "call"},
	}
	sealed := map[string]bool{"shard.go": true, "seal.go": true, "tier.go": true, "calendar.go": true}
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
		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); sealed[f] && path == "repro/internal/scl" {
				t.Errorf("%s imports %s", f, path)
			}
		}
	}
}
