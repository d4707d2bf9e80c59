package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// traceLimit bounds the collector of a traced repetition. The collector
// drops events silently once full, so a traced repetition that reaches
// the limit is reported as an error, never as a short trace.
const traceLimit = 1 << 24

// repetition is the measurement of one boot / run / verify / close cycle
// on a fresh runtime.
type repetition struct {
	id                  int
	out                 outcome
	bootS, runS, closeS float64            // host seconds, self time of each span
	mallocs, allocBytes float64            // MemStats deltas over the whole cycle
	cpuS, sysShare      float64            // process CPU during run; kernel share of it
	bootCPU, closeCPU   float64            // process CPU during boot and close
	counters, bases     map[string]float64 // traced repetitions only
	events              []trace.Event
	virtTotal, virtComp int64
	virtSync            int64
	fabricMsgs          int64 // simnet messages of the whole repetition (0 over TCP)
}

// harness runs repetitions and records a span around every call it
// makes into the program.
type harness struct {
	rec  *recorder
	reps int
}

func newHarness() *harness { return &harness{rec: newRecorder()} }

func cpuTimes() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// repeat runs one repetition of w. With traced set it attaches a
// collector through Config.Trace and reads the public counters between
// run and close.
func (h *harness) repeat(w *workload, j job, traced bool) (*repetition, error) {
	runtime.GC()
	h.reps++
	r := &repetition{id: h.reps}
	cfg := w.config()
	if traced {
		cfg.Trace = trace.NewCollector(traceLimit)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := h.rec.begin(w.name, r.id)

	ub, sb := cpuTimes()
	id := h.rec.begin("boot", r.id)
	rt, err := core.New(cfg)
	h.rec.end(id)
	if err != nil {
		h.rec.end(root)
		return nil, fmt.Errorf("%s: boot: %w", w.name, err)
	}

	u0, s0 := cpuTimes()
	r.bootCPU = (u0 - ub) + (s0 - sb)
	id = h.rec.begin("run", r.id)
	err = j.run(rt)
	h.rec.end(id)
	u1, s1 := cpuTimes()
	if err != nil {
		_ = rt.Close() // the run's error is the one to report
		h.rec.end(root)
		return nil, fmt.Errorf("%s: run: %w", w.name, err)
	}

	id = h.rec.begin("verify", r.id)
	r.out = j.verify()
	h.rec.end(id)

	if traced {
		id = h.rec.begin("counters", r.id)
		r.counters, r.bases = readCounters(rt, r.out.run)
		h.rec.end(id)
	}
	if f := rt.Fabric(); f != nil {
		r.fabricMsgs = f.Messages()
	}

	uc, sc := cpuTimes()
	id = h.rec.begin("close", r.id)
	err = rt.Close()
	h.rec.end(id)
	h.rec.end(root)
	ue, se := cpuTimes()
	r.closeCPU = (ue - uc) + (se - sc)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}

	self := selfTimes(h.rec.spans, r.id)
	r.bootS, r.runS, r.closeS = self["boot"].Seconds(), self["run"].Seconds(), self["close"].Seconds()
	r.mallocs = float64(m1.Mallocs - m0.Mallocs)
	r.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	r.cpuS = (u1 - u0) + (s1 - s0)
	r.sysShare = rate(s1-s0, r.cpuS)
	r.virtTotal = int64(r.out.run.MaxTotalTime())
	r.virtComp = int64(r.out.run.MaxComputeTime())
	r.virtSync = int64(r.out.run.MaxSyncTime())
	if traced {
		if cfg.Trace.Len() >= traceLimit {
			return nil, fmt.Errorf("%s: trace collector reached its limit of %d events", w.name, traceLimit)
		}
		r.events = cfg.Trace.Events()
	}
	if r.out.mismatch != "" {
		r.out.failed = r.out.attempted
	}
	return r, nil
}

// measurement is everything one invocation learned about one workload.
type measurement struct {
	w          *workload
	seed       uint64
	job        job
	setupWallS float64 // printed beside setup_s, which is CPU time
	setupS     float64
	timed      []*repetition // untraced, after the warm-up
	traced     *repetition   // nil unless requested
	attempted  int64
	failed     int64
	mismatch   string
	// rateAtSLO is the open-loop KV workloads' highest rate within the
	// latency limit (0 when not even the slowest rung meets it).
	rateAtSLO float64
}

// oracleBuilds is how many times prepare runs; setup_s uses the median.
const oracleBuilds = 3

// measure runs w for one seed: prepare (several times, timed), one
// warm-up repetition, then timed repetitions until window has elapsed
// (at least minReps). With traced set it adds one traced repetition
// afterwards. setup_s is what precedes the first timed repetition: the
// median prepare, the median boot over all repetitions, and the warm-up
// repetition's run and close. Like host_cpu_s it is the process's CPU
// time (user + system), not wall time: when this VM's neighbours take
// the cores, wall time doubles and CPU time moves by a tenth to a
// quarter.
func (h *harness) measure(w *workload, seed uint64, window time.Duration, minReps int, traced bool) (*measurement, error) {
	m := &measurement{w: w, seed: seed}
	var prepS, prepCPU []float64
	for i := 0; i < oracleBuilds; i++ {
		u0, s0 := cpuTimes()
		id := h.rec.begin("prepare", 0)
		j, err := w.prepare(seed)
		prepS = append(prepS, h.rec.end(id).Seconds())
		u1, s1 := cpuTimes()
		prepCPU = append(prepCPU, (u1-u0)+(s1-s0))
		if err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
		m.job = j
	}
	j := m.job
	warm, err := h.repeat(w, j, false)
	if err != nil {
		return nil, err
	}
	bootS := []float64{warm.bootS}
	bootCPU := []float64{warm.bootCPU}
	m.account(warm)
	start := time.Now()
	for len(m.timed) < minReps || time.Since(start) < window {
		r, err := h.repeat(w, j, false)
		if err != nil {
			return nil, err
		}
		m.timed = append(m.timed, r)
		bootS = append(bootS, r.bootS)
		bootCPU = append(bootCPU, r.bootCPU)
		m.account(r)
	}
	m.setupWallS = median(prepS) + median(bootS) + warm.runS + warm.closeS
	m.setupS = median(prepCPU) + median(bootCPU) + warm.cpuS + warm.closeCPU
	if traced {
		if m.traced, err = h.repeat(w, j, true); err != nil {
			return nil, err
		}
		m.account(m.traced)
	}
	if w.sequenced {
		if err := m.checkVirtualRepeats(); err != nil {
			return nil, err
		}
		if err := m.probeRate(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *measurement) account(r *repetition) {
	m.attempted += r.out.attempted
	m.failed += r.out.failed
	if r.out.mismatch != "" && m.mismatch == "" {
		m.mismatch = fmt.Sprintf("%s repetition %d: %s", m.w.name, r.id, r.out.mismatch)
	}
}

// checkVirtualRepeats enforces the model's determinism: on the sequenced
// fabric every repetition of one seed, traced or not, must report the
// same virtual times and operation latencies.
func (m *measurement) checkVirtualRepeats() error {
	all := m.timed
	if m.traced != nil {
		all = append(append([]*repetition(nil), all...), m.traced)
	}
	first := all[0]
	for _, r := range all[1:] {
		if r.virtTotal != first.virtTotal || r.virtComp != first.virtComp || r.virtSync != first.virtSync ||
			r.out.opP50 != first.out.opP50 || r.out.opP99 != first.out.opP99 {
			kind := "untraced"
			if r == m.traced {
				kind = "traced"
			}
			return fmt.Errorf("%s: virtual clock is not repeatable: repetition %d gave total/compute/sync %d/%d/%d p50/p99 %d/%d, %s repetition %d gave %d/%d/%d %d/%d",
				m.w.name, first.id, first.virtTotal, first.virtComp, first.virtSync, first.out.opP50, first.out.opP99,
				kind, r.id, r.virtTotal, r.virtComp, r.virtSync, r.out.opP50, r.out.opP99)
		}
	}
	return nil
}

func (m *measurement) column(f func(*repetition) float64) []float64 {
	xs := make([]float64, len(m.timed))
	for i, r := range m.timed {
		xs[i] = f(r)
	}
	return xs
}

// wallS is the median wall time of the timed repetitions' run calls.
func (m *measurement) wallS() float64 {
	return median(m.column(func(r *repetition) float64 { return r.runS }))
}

// endToEnd returns the end-to-end metrics of the measurement, by name.
// kv-tcp leaves the virtual clock out: over real sockets the order of
// delivery, and with it every virtual time, changes from run to run.
func (m *measurement) endToEnd() map[string]float64 {
	e := map[string]float64{
		"setup_s":          m.setupS,
		"host_cpu_s":       median(m.column(func(r *repetition) float64 { return r.cpuS })),
		"host_allocs":      median(m.column(func(r *repetition) float64 { return r.mallocs })),
		"host_alloc_bytes": median(m.column(func(r *repetition) float64 { return r.allocBytes })),
	}
	if m.w.sequenced {
		r := m.timed[0]
		e["virt_total_vns"] = float64(r.virtTotal)
		e["virt_compute_vns"] = float64(r.virtComp)
		e["virt_sync_vns"] = float64(r.virtSync)
		e["virt_op_p50_vns"] = float64(r.out.opP50)
		e["virt_op_p99_vns"] = float64(r.out.opP99)
		// An open loop reports the highest offered rate within the
		// latency limit; a closed one the operations it completed per
		// virtual second.
		if _, open := m.job.(*kvJob); open {
			e["virt_rate_at_slo_rps"] = m.rateAtSLO
		} else {
			e["virt_rate_at_slo_rps"] = float64(r.out.attempted-r.out.failed) * 1e9 / float64(r.virtTotal)
		}
	}
	return e
}

// writeTrace writes the traced repetition as a Chrome trace file under
// dir and returns its path.
func (m *measurement) writeTrace(h *harness, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+m.w.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := writeChromeTrace(f, h.rec.spans, m.traced.id, m.traced.events); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
