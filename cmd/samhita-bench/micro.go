package main

import (
	"fmt"
	"os"

	"repro/internal/apps/kernels"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/pthreads"
	"repro/internal/vm"
)

// microParams are -micro's own flags.
type microParams struct {
	backend, mode string
	p             int
	prm           kernels.MicroParams
}

// runMicro runs one configuration of the paper's micro-benchmark
// (Figure 2) and prints the measurement record: per-thread compute and
// synchronization time plus the protocol event counters that explain
// them.
func runMicro(cfg core.Config, sched faultnet.Config, tracePath string, mp microParams) error {
	found := false
	for _, m := range []kernels.AllocMode{kernels.AllocLocal, kernels.AllocGlobal, kernels.AllocStrided, kernels.AllocRandom} {
		if m.String() == mp.mode {
			mp.prm.Mode, found = m, true
		}
	}
	if !found {
		return fmt.Errorf("unknown mode %q", mp.mode)
	}

	var v vm.VM
	var rt *core.Runtime
	switch mp.backend {
	case "samhita":
		if sched.Active() {
			cfg.Faults = faultnet.New(sched)
		}
		var err error
		if rt, err = core.New(cfg); err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		v = rt
	case "pthreads":
		v = pthreads.New(pthreads.Config{MaxCores: mp.p})
	default:
		return fmt.Errorf("unknown backend %q", mp.backend)
	}
	defer v.Close()

	res, err := kernels.RunMicro(v, mp.p, mp.prm)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	fmt.Printf("micro-benchmark (%s), P=%d mode=%s N=%d M=%d S=%d B=%d\n",
		v.Name(), mp.p, mp.prm.Mode, mp.prm.N, mp.prm.M, mp.prm.S, mp.prm.B)
	fmt.Printf("gsum = %.6f (analytic %.6f)\n", res.GSum, res.Expected)
	fmt.Printf("compute time (per thread, max): %v\n", res.Run.MaxComputeTime())
	fmt.Printf("sync time    (per thread, max): %v\n", res.Run.MaxSyncTime())
	fmt.Print(res.Run.Summary())
	if rt == nil {
		return nil
	}
	if nst := rt.NetStats(); nst != nil {
		fmt.Println(nst.Summary())
	}
	if cfg.HotBytes > 0 {
		fmt.Println(rt.TierStats().Summary())
	}
	if live := rt.Liveness(); live != nil {
		fmt.Println(live.Summary())
	} else if repl := rt.ReplLiveness(); repl != nil {
		// Replicated manager on a clean run: the consensus-log
		// counters live in a runtime-private collector.
		fmt.Println(repl.Summary())
	}
	if cfg.Trace != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		if err := cfg.Trace.WriteChromeTrace(f); err != nil {
			return fmt.Errorf("trace write: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		fmt.Printf("\ntrace (%d events) written to %s; open in chrome://tracing\n", cfg.Trace.Len(), tracePath)
		fmt.Print(cfg.Trace.Summary())
	}
	return nil
}
