package samhita_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestInternalLineCount logs the lines of non-test Go under internal/,
// per package directory and in total, so a change's before and after
// are one command in each checkout:
//
//	go test -count=1 -run TestInternalLineCount -v .
func TestInternalLineCount(t *testing.T) {
	perPkg := map[string]int{}
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		perPkg[filepath.ToSlash(filepath.Dir(p))] += bytes.Count(src, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]string, 0, len(perPkg))
	total := 0
	for pkg, n := range perPkg {
		pkgs = append(pkgs, pkg)
		total += n
	}
	slices.Sort(pkgs)
	for _, pkg := range pkgs {
		t.Logf("%6d  %s", perPkg[pkg], pkg)
	}
	t.Logf("%6d  internal/ (non-test Go)", total)
	if total == 0 {
		t.Fatal("no non-test Go under internal/")
	}
}
