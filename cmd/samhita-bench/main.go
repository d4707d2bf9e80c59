// Command samhita-bench regenerates the paper's evaluation: every
// result figure (3-13) and the design-choice ablations, printed as
// aligned text tables (and optionally CSV files for plotting); measures
// the BENCH_micro.json table and gates it exactly; and runs one
// micro-benchmark configuration (Figure 2) on either backend.
//
// Usage:
//
//	samhita-bench -figure 12            # one figure at paper scale
//	samhita-bench -all                  # all figures
//	samhita-bench -ablation prefetch    # one ablation
//	samhita-bench -ablations            # all ablations
//	samhita-bench -all -quick           # reduced scale (seconds, not minutes)
//	samhita-bench -all -csv out/        # also write out/figNN.csv
//	samhita-bench -figure 3 -faults     # same figure under injected transport faults
//	samhita-bench -all -quick -standby  # with warm-standby replicated memory servers
//	samhita-bench -json out.json -baseline BENCH_micro.json  # the 25 CI points + exact gate
//	samhita-bench -json BENCH_micro.json -max-p 1024         # all 32 points
//	samhita-bench -stream-span -server-shards 4 -manager-shards 4  # span data-plane smoke
//	samhita-bench -micro -p 16 -mode strided -M 10 -S 4      # one micro-benchmark run
//	samhita-bench -micro -backend pthreads -p 8 -M 100
//	samhita-bench -micro -p 8 -faults                        # transport chaos, masked by retries
//	samhita-bench -micro -servers 2 -kill-server 1           # crash a memory server; standby failover
//
// The runtime flags (topology, tier, link, faults, kills) are the shared
// set of internal/cliflags; samhita-info lists them. Reported times are
// virtual-model times (see DESIGN.md), so the output is deterministic up
// to scheduling of symmetric lock acquisitions.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/stats"
)

func main() {
	var (
		figure    = flag.Int("figure", 0, "regenerate one figure (3-13)")
		all       = flag.Bool("all", false, "regenerate every figure")
		ablation  = flag.String("ablation", "", "run one ablation: "+strings.Join(bench.AblationNames(), ", "))
		ablations = flag.Bool("ablations", false, "run every ablation")
		scenario  = flag.Bool("scenario", false, "run the Figure-1 heterogeneous-node projection (host vs coprocessor)")
		quick     = flag.Bool("quick", false, "reduced problem sizes")
		csvDir    = flag.String("csv", "", "directory to write CSV files into")

		jsonOut    = flag.String("json", "", "measure the BENCH_micro.json table and write it as JSON to this file")
		maxP       = flag.Int("max-p", 256, "largest thread count -json measures (256 = the 25 CI points, 1024 = all 32)")
		baseline   = flag.String("baseline", "", "compare the -json measurement against this stored JSON; exit non-zero on any difference")
		streamSpan = flag.Bool("stream-span", false, "smoke-check the span-recast stream kernel: element and span runs must produce identical checksums")

		micro = flag.Bool("micro", false, "run one micro-benchmark configuration and print its measurement record")
		mp    microParams
	)
	flag.StringVar(&mp.backend, "backend", "samhita", "-micro: samhita or pthreads")
	flag.IntVar(&mp.p, "p", 8, "-micro: compute threads")
	flag.StringVar(&mp.mode, "mode", "local", "-micro: allocation mode: local, global, strided, random")
	flag.IntVar(&mp.prm.N, "N", 10, "-micro: outer iterations")
	flag.IntVar(&mp.prm.M, "M", 10, "-micro: inner iterations")
	flag.IntVar(&mp.prm.S, "S", 2, "-micro: rows per thread")
	flag.IntVar(&mp.prm.B, "B", 256, "-micro: doubles per row")
	rtFlags := cliflags.Register(flag.CommandLine, cliflags.Topology|cliflags.OneRun|cliflags.Faults|cliflags.Kills)
	flag.Parse()

	opts := bench.Options{}.WithDefaults()
	if *quick {
		opts = bench.Quick()
	}
	if err := rtFlags.Apply(&opts.Cfg, &opts.Faults); err != nil {
		fatalf("%v", err)
	}
	if *micro {
		if err := runMicro(opts.Cfg, opts.Faults, rtFlags.Trace, mp); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if opts.Cfg.Transport != nil || opts.Cfg.Trace != nil {
		fatalf("-transport and -trace bind to one runtime: use them with -micro")
	}
	if !*all && *figure == 0 && !*ablations && *ablation == "" && !*scenario && *jsonOut == "" && !*streamSpan {
		flag.Usage()
		os.Exit(2)
	}

	// One set of collectors for every runtime booted below.
	opts.Agg = new(stats.Run)
	if opts.Cfg.HotBytes > 0 || *jsonOut != "" {
		opts.Cfg.Tier = new(stats.Tier)
	}
	if opts.Cfg.Retry != nil {
		opts.Cfg.Net = new(stats.Net)
	}
	if lc := opts.Cfg.Liveness; lc != nil {
		lc.Live = new(stats.Liveness)
		// Sweeps measure replication overhead, not detection latency,
		// and boot far more threads than cores; a generous lease keeps
		// starved heartbeats from fencing live threads.
		lc.MissedBeats = 200
	}

	if *streamSpan {
		line, err := bench.StreamSpanSmoke(opts)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(line)
	}

	if *jsonOut != "" {
		mb, err := bench.MicroBenchSuite(opts, *maxP)
		if err != nil {
			fatalf("micro suite: %v", err)
		}
		if err := mb.WriteFile(*jsonOut); err != nil {
			fatalf("write %s: %v", *jsonOut, err)
		}
		fmt.Printf("wrote %s (%d points)\n", *jsonOut, len(mb.Points))
		for _, pt := range mb.Points {
			if pt.ManagerReplicas > 1 {
				fmt.Printf("replicated manager (%d replicas, %s): %d log entries, %d snapshots, %d elections\n",
					pt.ManagerReplicas, pt.Mode, pt.MgrReplEntries, pt.MgrSnapshots, pt.MgrElections)
			}
			if pt.Workload == "forkstorm" {
				fmt.Printf("forkstorm (%d forks, %d B image): fork-to-first-op p50=%dns p99=%dns p999=%dns, eager-copy cold start %dns\n",
					pt.Forks, pt.M, pt.ForkP50Ns, pt.ForkP99Ns, pt.ForkP999Ns, pt.ColdStartNs)
			}
		}
		if *baseline != "" {
			base, err := bench.ReadMicroBench(*baseline)
			if err != nil {
				fatalf("baseline: %v", err)
			}
			if err := bench.CheckRegression(base, mb, *maxP); err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("every point equals %s\n", *baseline)
		}
	}

	var figIDs []int
	if *all {
		figIDs = bench.FigureIDs()
	} else if *figure != 0 {
		figIDs = []int{*figure}
	}
	for _, id := range figIDs {
		start := time.Now()
		f, err := bench.Run(id, opts)
		if err != nil {
			fatalf("figure %d: %v", id, err)
		}
		fmt.Print(f.Table())
		fmt.Printf("(regenerated in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			writeCSV(*csvDir, f.ID, f.CSV())
		}
	}

	if *scenario {
		start := time.Now()
		f, err := bench.ScenarioHeterogeneous(opts)
		if err != nil {
			fatalf("scenario: %v", err)
		}
		fmt.Print(f.Table())
		fmt.Printf("(ran in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			writeCSV(*csvDir, f.ID, f.CSV())
		}
	}

	var ablNames []string
	if *ablations {
		ablNames = bench.AblationNames()
	} else if *ablation != "" {
		ablNames = []string{*ablation}
	}
	for _, name := range ablNames {
		run, ok := bench.AblationRunners[name]
		if !ok {
			fatalf("unknown ablation %q (have %s)", name, strings.Join(bench.AblationNames(), ", "))
		}
		start := time.Now()
		a, err := run(opts)
		if err != nil {
			fatalf("ablation %s: %v", name, err)
		}
		fmt.Print(a.Table())
		fmt.Printf("(ran in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	// Release-path and robustness counters accumulated across every
	// Samhita runtime booted above.
	if len(opts.Agg.Threads) > 0 {
		fmt.Println(opts.Agg.ReleaseLine())
	}
	if opts.Cfg.Net != nil {
		fmt.Println(opts.Cfg.Net.Summary())
	}
	if opts.Cfg.Tier != nil {
		fmt.Println(opts.Cfg.Tier.Summary())
	}
	if opts.Cfg.Liveness != nil {
		fmt.Println(opts.Cfg.Liveness.Live.Summary())
	}
}

func writeCSV(dir, id, csv string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("csv dir: %v", err)
	}
	path := filepath.Join(dir, id+".csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "samhita-bench: "+format+"\n", args...)
	os.Exit(1)
}
