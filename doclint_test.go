package samhita_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goIndex is what the packages under internal/ declare: per package name,
// its top-level names, and per type the methods and fields it has.
type goIndex struct {
	names   map[string]map[string]bool
	members map[string]map[string]map[string]bool
}

func indexInternal(t *testing.T) goIndex {
	ix := goIndex{names: map[string]map[string]bool{}, members: map[string]map[string]map[string]bool{}}
	add := func(m map[string]bool, name string) {
		m[name] = true
	}
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		file, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(file.Name.Name, "_test")
		if ix.names[pkg] == nil {
			ix.names[pkg] = map[string]bool{}
			ix.members[pkg] = map[string]map[string]bool{}
		}
		member := func(typ, name string) {
			if ix.members[pkg][typ] == nil {
				ix.members[pkg][typ] = map[string]bool{}
			}
			add(ix.members[pkg][typ], name)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(ix.names[pkg], d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				for {
					switch r := recv.(type) {
					case *ast.StarExpr:
						recv = r.X
						continue
					case *ast.IndexExpr:
						recv = r.X
						continue
					case *ast.IndexListExpr:
						recv = r.X
						continue
					}
					break
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(ix.names[pkg], s.Name.Name)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, f := range st.Fields.List {
								for _, n := range f.Names {
									member(s.Name.Name, n.Name)
								}
							}
						}
						if it, ok := s.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, n := range m.Names {
									member(s.Name.Name, n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(ix.names[pkg], n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// pkg.Name or pkg.Type.Member, optionally called: `scl.WithRetry`,
	// `pagecache.Handoff`, `scl.Request.ReplyBody()`.
	selector = regexp.MustCompile(`^([A-Za-z]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(\))?$`)
	// A Go file, optionally with a line: `internal/core/book.go`,
	// `core/thread.go`, `memserver.go:463`.
	goFile = regexp.MustCompile(`^([\w./-]+\.go)(?::\d+)?$`)
	// A command-line flag, alone or with its value: `-faults`,
	// `-max-p 1024`, `-server-shards=4`. A placeholder such as `-srv%d`
	// or `-hot<bytes>` is no flag.
	flagTok = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=.*)?$`)
)

// notFlags are the backticked -names the docs use that no command
// declares.
var notFlags = map[string]bool{
	"race":  true, // go test's race detector
	"span":  true, // BENCH_micro.json point-key suffixes
	"wideN": true,
}

// flagDecl is the flag package's declaring methods: each takes the flag's
// name as its first string argument.
var flagDecl = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// declaredFlags is every flag name the commands under cmd/ and the
// shared runtime flags in internal/cliflags declare.
func declaredFlags(t *testing.T) map[string]bool {
	flags := map[string]bool{}
	for _, dir := range []string{"cmd", "internal/cliflags"} {
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !flagDecl[sel.Sel.Name] {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, err := strconv.Unquote(lit.Value); err == nil {
							flags[name] = true
						}
						break
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return flags
}

// The prose in DESIGN.md, README.md and EXPERIMENTS.md names code: every backticked
// `pkg.Name`, `pkg.Type.Member` whose pkg is a package under internal/,
// every backticked `.go` path, and every flag of a backticked `-flag`
// or `samhita-… -flag` must still exist. A rename or a deletion that
// leaves the docs behind fails here.
func TestDocsNameWhatExists(t *testing.T) {
	ix := indexInternal(t)
	flags := declaredFlags(t)
	var goFiles []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
			goFiles = append(goFiles, filepath.ToSlash(p))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fileExists := func(name string) bool {
		for _, f := range goFiles {
			if f == name || strings.HasSuffix(f, "/"+name) {
				return true
			}
		}
		return false
	}
	checked, flagsChecked := 0, 0
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				span := m[1]
				if words := strings.Fields(span); len(words) > 0 && (strings.HasPrefix(words[0], "-") || strings.HasPrefix(words[0], "samhita-")) {
					for _, w := range words {
						f := flagTok.FindStringSubmatch(w)
						if f == nil || notFlags[f[1]] {
							continue
						}
						flagsChecked++
						if !flags[f[1]] {
							t.Errorf("%s:%d: `%s`: no command declares -%s", doc, i+1, span, f[1])
						}
					}
				}
				if f := goFile.FindStringSubmatch(span); f != nil {
					if !fileExists(path.Clean(f[1])) {
						t.Errorf("%s:%d: `%s` names no file in the tree", doc, i+1, span)
					}
					continue
				}
				s := selector.FindStringSubmatch(span)
				if s == nil {
					continue
				}
				checked++
				if err := ix.resolve(s[1], s[2], s[3]); err != "" {
					t.Errorf("%s:%d: `%s`: %s", doc, i+1, span, err)
				}
			}
		}
	}
	t.Logf("%d backticked names and %d flags resolved", checked, flagsChecked)
}

// resolve checks one selector the docs name: pkg.Name or pkg.Type.Member
// when first is a package under internal/, and Type.Member when it is a
// type some package declares (`role.call`, `Server.forward`). Anything
// else (a variable in an example, a metric name) is not code it knows.
func (ix goIndex) resolve(first, second, third string) string {
	if names := ix.names[first]; names != nil {
		switch {
		case third == "" && !names[second]:
			return "package " + first + " declares no " + second
		case third != "" && !ix.members[first][second][third]:
			return first + "." + second + " has no " + third
		}
		return ""
	}
	if third != "" {
		return ""
	}
	typed := false
	for _, types := range ix.members {
		if members, ok := types[first]; ok {
			typed = true
			if members[second] {
				return ""
			}
		}
	}
	if typed {
		return "no type " + first + " has " + second
	}
	return ""
}
