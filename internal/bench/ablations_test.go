package bench

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ablations.golden from the current code")

const ablationsGolden = "testdata/ablations.golden"

// TestAblationsGolden runs every ablation at the paper's parameters and
// pins its table. The tables cover configurations no BENCH_micro.json
// point does (line sizes 1/2/8, unstriped homes, PCIe and intra-node
// links, 2 and 8 shards, STREAM with prefetch on and off), so a change
// that moves any of them shows here. Run with -update to rewrite the
// file after an intended change.
func TestAblationsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	o := Options{}.WithDefaults()
	var sb strings.Builder
	for _, name := range AblationNames() {
		a, err := AblationRunners[name](o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a.Results) < 2 {
			t.Fatalf("ablation %s has %d variants", name, len(a.Results))
		}
		sb.WriteString(a.Table())
		sb.WriteString("\n")
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(ablationsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ablationsGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %s\nwant %s", ablationsGolden, i+1, g, w)
		}
	}
}
