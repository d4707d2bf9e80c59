package conformance

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// bounded runs body and fails the test when it has not returned within
// d, printing where every goroutine of this module is parked. A kill
// test's failure mode is a hang; without this it surfaces minutes later
// as a package timeout with no hint of which test or which call.
//
// body runs on its own goroutine so the deadline can fire while it is
// blocked; a t.Fatal inside it ends that goroutine, which ends bounded.
func bounded(t *testing.T, d time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still running after %v; goroutines inside repro/:\n%s", d, reproStacks())
	}
}

// reproStacks dumps every goroutine that has a frame in this module,
// reduced to those frames.
func reproStacks() string {
	var dump bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&dump, 2); err != nil {
		return "goroutine dump: " + err.Error()
	}
	var out strings.Builder
	for _, g := range strings.Split(dump.String(), "\n\n") {
		lines := strings.Split(g, "\n")
		var frames []string
		// lines[0] is "goroutine N [state]:"; frames follow as a
		// function line and an indented file:line.
		for i := 1; i+1 < len(lines); i += 2 {
			if strings.HasPrefix(lines[i], "repro/") {
				frames = append(frames, lines[i], lines[i+1])
			}
		}
		if len(frames) > 0 {
			out.WriteString(lines[0] + "\n" + strings.Join(frames, "\n") + "\n\n")
		}
	}
	return out.String()
}

func parkHere(release <-chan struct{}) { <-release }

func TestReproStacksNamesModuleFramesOnly(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	go parkHere(release)
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(reproStacks(), "conformance.parkHere") {
		if time.Now().After(deadline) {
			t.Fatalf("parked goroutine missing from:\n%s", reproStacks())
		}
		time.Sleep(time.Millisecond)
	}
	if s := reproStacks(); strings.Contains(s, "runtime.gopark") || strings.Contains(s, "testing.tRunner") {
		t.Errorf("frames outside the module kept:\n%s", s)
	}
}
