package manager

import (
	"os"
	"path/filepath"
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
