package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/kernels"
	"repro/internal/core"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// driverWorkloads are the workloads BENCHMARK.json lists: the ones that
// define every end-to-end metric. kv-tcp has no repeatable virtual
// clock, so it runs in the full set and in -check but is not listed.
func driverWorkloads() []*workload {
	var ws []*workload
	for i := range workloads {
		if workloads[i].sequenced {
			ws = append(ws, &workloads[i])
		}
	}
	return ws
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}

	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
	if len(f.Command) == 0 || len(f.Command) > 32 {
		t.Errorf("command has %d parts", len(f.Command))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}

	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not made of letters, digits, _ . -", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, better string) {
		if better != lower && better != higher {
			t.Errorf("%s: better = %q", n, better)
		}
	}

	want := driverWorkloads()
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 || len(f.Workloads) != len(want) {
		t.Fatalf("%d workloads, the code lists %d", len(f.Workloads), len(want))
	}
	for i, w := range f.Workloads {
		name("workload", w.Name)
		if w.Name != want[i].name || w.Why != want[i].why {
			t.Errorf("workload %d is %q (%q), the code says %q (%q)", i, w.Name, w.Why, want[i].name, want[i].why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 || len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the code lists %d", len(f.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range f.EndToEnd {
		name("metric", m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound missing or outside (0, 0.25]", m.Name)
			continue
		}
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v with bound %v, the code says %+v", i, m, *m.Bound, d)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
		}
	}
	if !setup {
		t.Error("setup_s (unit s, better lower) is missing")
	}

	if len(f.PerLayer) < 1 || len(f.PerLayer) > 128 || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, the code lists %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		name("metric", m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v, the code says %+v", i, m, d)
		}
	}
}

// A traced run reports exactly the listed per-layer metrics: a name the
// drivers, the counter reader or the assembly produce must be listed (or
// the result line would drop it), and every listed name must come from
// somewhere (or it would always read 0).
func TestTracedRunProducesExactlyTheListedMetrics(t *testing.T) {
	drivers, err := layerDrivers(200 * time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// A small replicated, tiered runtime makes every counter family appear.
	cfg := baseConfig(1, 2, 2, 3)
	cfg.HotBytes = 98304
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kernels.RunMicro(rt, 2, kernels.MicroParams{N: 1, M: 1, S: 1, B: 8, R: 0.999999, Mode: kernels.AllocStrided})
	if err != nil {
		t.Fatal(err)
	}
	counters, bases := readCounters(rt, res.Run)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	produced := make(map[string]bool)
	for _, j := range []job{&kvJob{}, &forkJob{}} {
		m := &measurement{
			w: findWorkload("kv-get90"), job: j, attempted: 1,
			timed:  []*repetition{{runS: 1}},
			traced: &repetition{runS: 1, counters: counters, bases: bases, out: outcome{samples: 1}},
		}
		values, ratioBases, _ := m.layerMetrics()
		for k := range values {
			produced[k] = true
		}
		for k := range drivers {
			produced[k] = true
		}
		for k := range ratioBases {
			if _, ok := values[k]; !ok {
				t.Errorf("base of %s has no ratio beside it", k)
			}
		}
	}
	listed := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		listed[d.Name] = true
		if !produced[d.Name] {
			t.Errorf("listed per-layer metric %s is never produced", d.Name)
		}
	}
	for k := range produced {
		if !listed[k] {
			t.Errorf("%s is produced but not a listed per-layer metric", k)
		}
	}
}
