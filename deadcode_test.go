package samhita_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// implicitCallers are the method names the standard library calls
// through interfaces it declares: fmt, errors, sort and container/heap.
var implicitCallers = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestInternalFuncsHaveCallers fails on a func or method declared in
// non-test Go under internal/ whose name no identifier anywhere in the
// repository references: tests, cmd/, examples/ and benchmark/ count as
// callers. The match is by name, so a method shares its callers with
// every method of that name; methods an interface of the repository
// declares, and the ones the standard library calls implicitly, are
// exempt. Staticcheck's unused check sees only unexported names, and
// every package here is internal, so an exported name nobody calls is
// dead all the same.
func TestInternalFuncsHaveCallers(t *testing.T) {
	type decl struct {
		pos  token.Position
		name string
	}
	var decls []decl
	refs := map[string]int{}
	viaInterface := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		candidate := strings.HasPrefix(filepath.ToSlash(p), "internal/") && !strings.HasSuffix(p, "_test.go")
		declared := map[*ast.Ident]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
				if candidate {
					name := n.Name.Name
					if n.Recv != nil {
						name = recvName(n.Recv.List[0].Type) + "." + name
					}
					decls = append(decls, decl{fset.Position(n.Name.Pos()), name})
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						viaInterface[id.Name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					refs[n.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		name := d.name[strings.LastIndex(d.name, ".")+1:]
		entry := strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") || strings.HasPrefix(name, "Benchmark")
		if refs[name] > 0 || name == "main" || name == "init" || entry || implicitCallers[name] || viaInterface[name] {
			continue
		}
		dead = append(dead, d.pos.String()+": "+d.name)
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller", d)
	}
	t.Logf("%d funcs and methods under internal/ checked", len(decls))
}
