// Command benchmark is the repository's end-to-end yardstick. It runs
// seven workloads against the public constructors of the existing
// layers, verifies every output, and reports on two clocks: the virtual
// clock (modelled time, bit-exact on the sequenced fabric) and the host
// clock (what the Go code costs to run). See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	layers   bool
	check    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all seven)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed part of each workload, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and trace-<workload>.json; 0 = end-to-end metrics")
	flag.BoolVar(&o.layers, "layers", false, "run only the isolated per-layer drivers")
	flag.BoolVar(&o.check, "check", false, "run two full sets back to back and compare them against the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// Batch lengths of the isolated drivers: -layers gives each driver five
// 40 ms batches (200 ms of calls); a traced run of one workload, which
// the driver repeats many times, uses shorter ones.
const (
	layersBatch = 40 * time.Millisecond
	tracedBatch = 15 * time.Millisecond
)

// traceDir receives trace-<workload>.json, relative to the root of the
// checkout, where run.sh starts the program. It is git-ignored.
const traceDir = "benchmark/out"

// minTimedReps is the fewest timed repetitions a median is taken over.
const minTimedReps = 3

func run(o options) (bool, error) {
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return false, fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	selected := make([]*workload, 0, len(workloads))
	if o.workload == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(o.workload); w != nil {
		selected = append(selected, w)
	} else {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}

	switch {
	case o.layers:
		drivers, err := layerDrivers(layersBatch)
		if err != nil {
			return false, err
		}
		printMetrics("isolated layer drivers", perLayer, drivers, nil)
		return true, nil
	case o.check:
		return check(selected, o)
	}

	h := newHarness()
	window := time.Duration(o.seconds) * time.Second
	allOK := true
	var drivers map[string]float64
	var line string
	for _, w := range selected {
		var m *measurement
		var err error
		if o.trace == 1 {
			// The timed part only anchors the tracing overhead and the
			// host time per message here, so it is short; the traced
			// repetition is the product.
			m, err = h.measure(w, o.seed, window/3, minTimedReps, true)
		} else {
			m, err = h.measure(w, o.seed, window, minTimedReps, false)
		}
		if err != nil {
			return false, err
		}
		if m.mismatch != "" {
			fmt.Fprintln(os.Stderr, "benchmark: output check failed:", m.mismatch)
			allOK = false
		}
		printHeader(m)
		defs, values := endToEnd, m.endToEnd()
		printMetrics("end to end", defs, values, nil)
		if o.trace == 1 {
			var bases map[string]float64
			var violations []string
			defs = perLayer
			values, bases, violations = m.layerMetrics()
			printMetrics("per layer, from the traced repetition", defs, values, bases)
			for _, v := range violations {
				fmt.Printf("  counter violation: %s\n", v)
			}
			path, err := m.writeTrace(h, traceDir)
			if err != nil {
				return false, err
			}
			fmt.Printf("  trace written to %s\n", path)
			// The isolated drivers do not depend on the workload: they run
			// once, with short batches when the invocation is one of the
			// many the driver makes.
			if drivers == nil {
				batch := layersBatch
				if len(selected) == 1 {
					batch = tracedBatch
				}
				if drivers, err = layerDrivers(batch); err != nil {
					return false, err
				}
				printMetrics("per layer, isolated drivers", defs, drivers, nil)
			}
			for k, v := range drivers {
				values[k] = v
			}
		}
		if line, err = resultLine(m, defs, values); err != nil {
			return false, err
		}
	}
	// One workload: the last line of standard output is the result
	// object the driver reads.
	if len(selected) == 1 {
		fmt.Println(line)
	}
	return allOK, nil
}

func printHeader(m *measurement) {
	fmt.Printf("\n== %s  seed %d  %d timed repetitions  attempted %d  failed %d  fail_share %g  wall: setup %.3f s, run %.3f s\n",
		m.w.name, m.seed, len(m.timed), m.attempted, m.failed, rate(float64(m.failed), float64(m.attempted)),
		m.setupWallS, m.wallS())
}

// printMetrics prints the metrics of defs that have a value, by name and
// unit. A metric the workload does not define has no value and is left
// out, never printed as 0. bases holds, for a ratio, the count it is a
// share of.
func printMetrics(title string, defs []metricDef, values, bases map[string]float64) {
	fmt.Printf("  -- %s\n", title)
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-40s %18s %-8s", d.Name, formatValue(v), d.Unit)
		if b, ok := bases[d.Name]; ok {
			line += fmt.Sprintf(" of %s", formatValue(b))
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

func formatValue(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 1e6 || v <= -1e6:
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// resultLine renders the one-line JSON result. For a workload
// BENCHMARK.json lists it carries every metric of defs, as the driver's
// contract demands: all end-to-end metrics are defined there, and a
// per-layer metric the workload does not define (tier ratios without a
// tier, kv.idle_share outside kv) reads 0. kv-tcp, which is not listed,
// leaves out what it does not define.
func resultLine(m *measurement, defs []metricDef, values map[string]float64) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{m.mismatch == "" && m.failed == 0, m.attempted, m.failed, make(map[string]metric, len(defs))}
	for _, d := range defs {
		if v, defined := values[d.Name]; defined || m.w.sequenced {
			out.Metrics[d.Name] = metric{v, d.Unit}
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// layerMetrics assembles the per-layer metrics only this workload's
// traced repetition can give: the harness's own spans, the public
// counters read after it, and virtual self times folded from the
// collector's events. It also returns the base of every ratio and the
// conservation identities the counters break.
func (m *measurement) layerMetrics() (values, bases map[string]float64, violations []string) {
	t := m.traced
	values = make(map[string]float64, len(perLayer))
	bases = make(map[string]float64, len(t.bases))
	for k, v := range t.counters {
		values[k] = v
	}
	for k, v := range t.bases {
		bases[k] = v
	}

	untraced := m.wallS()
	values["host_wall_s"] = untraced
	values["bench.boot_host_s"] = t.bootS
	values["bench.run_host_s"] = t.runS
	values["bench.close_host_s"] = t.closeS
	values["bench.host_cpu_s"] = t.cpuS
	values["bench.host_sys_share"] = t.sysShare
	bases["bench.host_sys_share"] = t.cpuS
	values["bench.trace_overhead_pct"] = 100 * (t.runS/untraced - 1)
	bases["bench.trace_overhead_pct"] = untraced
	if msgs := values["simnet.msgs"]; msgs > 0 {
		values["simnet.host_ns_per_msg"] = untraced * 1e9 / msgs
	}

	self := virtSelfTimes(t.events)
	values["core.lock_self_virt_ns"] = float64(self["lock"])
	values["core.unlock_self_virt_ns"] = float64(self["unlock"])
	values["core.barrier_self_virt_ns"] = float64(self["barrier"])
	values["core.release_self_virt_ns"] = float64(self["release"])
	values["core.fetch_virt_ns"] = float64(self["fetch"])
	values["core.prefetch_virt_ns"] = float64(self["prefetch"])
	values["core.alloc_virt_ns"] = float64(self["alloc"])

	values["virt_op_samples"] = float64(t.out.samples)
	values["fail_share"] = rate(float64(m.failed), float64(m.attempted))
	bases["fail_share"] = float64(m.attempted)
	switch m.job.(type) {
	case *kvJob:
		values["kv.idle_share"] = t.out.idleShare
		bases["kv.idle_share"] = t.out.idleBase
	case *forkJob:
		values["forkstorm.cold_start_virt_ns"] = float64(t.out.coldStartNs)
	}

	cfg := m.w.config()
	violations = counterViolations(values, float64(cfg.HotBytes)/float64(cfg.Geo.PageSize))
	values["bench.counter_violations"] = float64(len(violations))
	if !m.w.sequenced {
		// Over real sockets no virtual time repeats; none is reported.
		for _, d := range perLayer {
			if d.Unit == "vns" {
				delete(values, d.Name)
			}
		}
	}
	return values, bases, violations
}
