package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// checkedMetrics are what -check compares between its two sets: the
// end-to-end metrics of BENCHMARK.json and the share of operations that
// failed.
var checkedMetrics = append(append([]metricDef(nil), endToEnd...),
	metricDef{"fail_share", "ratio", lower, 0}, // any increase
)

// setupSlackS is the absolute difference in setup_s that -check accepts
// whatever the relative bound says: both sets run in one process, and
// the first pays the process's cold start (heap growth, page faults).
const setupSlackS = 0.25

// checkedValues returns the values -check compares for one measurement.
func (m *measurement) checkedValues() map[string]float64 {
	v := m.endToEnd()
	v["fail_share"] = rate(float64(m.failed), float64(m.attempted))
	return v
}

// check demonstrates repeatability: it measures every selected workload
// twice with the same seed and prints every metric of both sets, their
// relative difference and the bound. The two measurements of a workload
// run back to back, so that the host's slow drift (this box's wall times
// wander by 10 to 40 % over minutes) does not land between them. It
// fails when a virtual-clock metric differs at all, when a host-clock
// metric differs by more than its bound, or when any operation failed.
func check(selected []*workload, o options) (bool, error) {
	window := time.Duration(o.seconds) * time.Second
	h := newHarness()
	ok := true
	fmt.Printf("%-15s %-22s %18s %18s %9s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	for _, w := range selected {
		var pair [2]*measurement
		for s := range pair {
			m, err := h.measure(w, o.seed, window, minTimedReps, false)
			if err != nil {
				return false, err
			}
			pair[s] = m
		}
		a, b := pair[0], pair[1]
		va, vb := a.checkedValues(), b.checkedValues()
		for _, d := range checkedMetrics {
			x, defined := va[d.Name]
			if !defined {
				continue
			}
			y := vb[d.Name]
			diff := 0.0
			if x != y {
				diff = math.Abs(y-x) / math.Abs(x) // +Inf from a zero first value fails every bound
			}
			verdict := "ok"
			switch {
			case !hostClock(d) && d.Name != "fail_share" && x != y:
				verdict = "FAIL: must repeat exactly"
			case d.Name == "fail_share" && (x != 0 || y != 0):
				verdict = "FAIL: operations failed"
			case d.Name == "setup_s" && math.Abs(y-x) <= setupSlackS:
				// The first set's warm-up is also the process's own.
			case diff > d.Bound:
				verdict = "FAIL: beyond the bound"
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Printf("%-15s %-22s %18s %18s %8.3f%% %6.1f%%  %s\n",
				a.w.name, d.Name, formatValue(x), formatValue(y), 100*diff, 100*d.Bound, verdict)
		}
		for _, m := range pair {
			if m.mismatch != "" {
				fmt.Println("output check failed:", m.mismatch)
				ok = false
			}
		}
		if a.w.name == "sync-p256" {
			if err := crossCheckMicro(a.timed[0]); err != nil {
				fmt.Println("benchmark bug:", err)
				ok = false
			} else {
				fmt.Println("sync-p256 reproduces its BENCH_micro.json point exactly")
			}
		}
	}
	return ok, nil
}

// hostClock reports whether d is measured on the host clock (noisy), as
// opposed to the virtual clock (exact).
func hostClock(d metricDef) bool {
	return d.Name == "setup_s" || strings.HasPrefix(d.Name, "host_")
}

// crossCheckMicro ties this benchmark to the repository's recorded
// virtual-time baseline: sync-p256 is, by construction, the
// BENCH_micro.json point p=256 strided N3 M5 S1 B64 on 4 servers x 4
// shards, 4 manager homes, 1 replica, untiered. The file is only read. A
// disagreement means the benchmark no longer sets that configuration up
// (or the file is stale) — a bug here, not a regression in the program.
func crossCheckMicro(r *repetition) error {
	raw, err := os.ReadFile("BENCH_micro.json")
	if err != nil {
		return err
	}
	var doc struct {
		Points []struct {
			P, N, M, S, B                        int
			Mode, Workload                       string
			Servers, ServerShards, ManagerShards int
			ManagerReplicas                      int
			HotBytes                             int64
			Spans                                bool
			ComputeMaxNs, SyncMaxNs, TotalMaxNs  int64
			FabricMsgs                           int64
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("BENCH_micro.json: %w", err)
	}
	for _, p := range doc.Points {
		if p.P != 256 || p.Mode != "strided" || p.N != 3 || p.M != 5 || p.S != 1 || p.B != 64 ||
			p.Servers != 4 || p.ServerShards != 4 || p.ManagerShards != 4 || p.ManagerReplicas > 1 ||
			p.Workload != "" || p.HotBytes != 0 || p.Spans {
			continue
		}
		if p.ComputeMaxNs != r.virtComp || p.SyncMaxNs != r.virtSync || p.TotalMaxNs != r.virtTotal || p.FabricMsgs != r.fabricMsgs {
			return fmt.Errorf("sync-p256 gives compute/sync/total %d/%d/%d vns and %d fabric messages, BENCH_micro.json records %d/%d/%d and %d",
				r.virtComp, r.virtSync, r.virtTotal, r.fabricMsgs, p.ComputeMaxNs, p.SyncMaxNs, p.TotalMaxNs, p.FabricMsgs)
		}
		return nil
	}
	return fmt.Errorf("BENCH_micro.json has no point p=256 strided N3 M5 S1 B64 servers 4 shards 4 homes 4 replicas 1")
}
