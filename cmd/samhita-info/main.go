// Command samhita-info prints the reproduction's full configuration
// surface: the default geometry, the scale-out topology knobs (server
// shards, manager shards, manager replicas), the tiered page store and
// snapshot/fork verbs, the cost-model presets, and the experiment
// index — a quick orientation for someone exploring the repository.
package main

import (
	"flag"
	"fmt"

	samhita "repro"
	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/vtime"
)

func main() {
	cfg := samhita.DefaultConfig()
	fmt.Println("Samhita / RegC reproduction — configuration")
	fmt.Println()

	fmt.Println("address space and caching:")
	fmt.Printf("  geometry: %d B pages, %d pages/line (%d B lines), %d memory server(s), striped=%v\n",
		cfg.Geo.PageSize, cfg.Geo.LinePages, cfg.Geo.LineSize(), cfg.Geo.NumServers, cfg.Geo.Striped)
	fmt.Printf("  cache:    %d lines/thread, prefetch=%v (depth %d = one line ahead)\n",
		cfg.CacheLines, cfg.Prefetch, cfg.PrefetchDepth)
	fmt.Printf("  alloc:    striping threshold %d KiB, %d threads/node\n",
		cfg.StripeMin/1024, cfg.ThreadsPerNode)
	fmt.Println()

	fmt.Println("scale-out topology (defaults; raise via Config or CLI flags):")
	fmt.Printf("  server shards:    %d per memory server  (-server-shards; line-granular page shards, concurrent service)\n", norm(cfg.ServerShards))
	fmt.Printf("  manager shards:   %d sync home(s)       (-manager-shards; locks/barriers/conds spread by id)\n", norm(cfg.ManagerShards))
	fmt.Printf("  manager replicas: %d                    (-manager-replicas; consensus log, kill-survivable failover)\n", norm(cfg.ManagerReplicas))
	fmt.Printf("  data planes:      element accessors + bulk span accessors (F64Span; coalesced store records)\n")
	fmt.Println()

	fmt.Println("tiered page store (off by default; -hot-bytes enables):")
	fmt.Printf("  hot budget:  %d B/server (0 = untiered; pages past the LRU budget demote word-run compressed)\n", cfg.HotBytes)
	fmt.Printf("  cold preset: %q (default cold-nvme)\n", cfg.ColdPreset)
	for _, m := range []vtime.TierModel{vtime.ColdNVMe, vtime.ColdRemote} {
		fmt.Printf("    %-12s move latency=%-8v bw=%.1f GB/s\n", m.Name, m.Latency, m.BytesPerSec/1e9)
	}
	fmt.Println()

	fmt.Println("snapshot/fork verbs (thread API):")
	fmt.Println("  SnapshotAS(base, npages) seals the range's page versions behind a refcounted snapshot id;")
	fmt.Println("  ForkAS(snap) maps a fresh O(1) copy-on-write range over the sealed frames (private copy on")
	fmt.Println("  first write). Exercised by the forkstorm workload (a samhita-bench -json point).")
	fmt.Println()

	fmt.Println("interconnect presets:")
	for _, l := range []vtime.LinkModel{vtime.QDRInfiniBand, vtime.PCIeSCIF, vtime.IntraNode} {
		fmt.Printf("  %-11s latency=%-7v bw=%.1f GB/s send-ovh=%v svc=%v\n",
			l.Name, l.Latency, l.BytesPerSec/1e9, l.SendOverhead, l.ServiceTime)
	}
	fmt.Println()

	cpu := vtime.DefaultCPU
	fmt.Println("compute cost model (Samhita threads):")
	fmt.Printf("  flop=%v access=%v fault=%v twin=%v invalidate=%v lock=%v\n",
		cpu.FlopTime, cpu.AccessTime, cpu.FaultOverhead, cpu.TwinTime, cpu.InvalidateTime, cpu.LockTime)
	fmt.Printf("  diff=%.1f GB/s apply=%.1f GB/s copy=%.1f GB/s\n",
		cpu.DiffBytesPerSec/1e9, cpu.ApplyBytesPerSec/1e9, cpu.CopyBytesPerSec/1e9)
	hw := vtime.DefaultHW
	fmt.Println("hardware baseline model (Pthreads threads):")
	fmt.Printf("  flop=%v access=%v lock=%v barrier=%v+%v/thread coherence-miss=%v\n",
		hw.FlopTime, hw.AccessTime, hw.LockTime, hw.BarrierBase, hw.BarrierPerThread, hw.CoherenceMiss)
	fmt.Println()

	fmt.Println("runtime flags (internal/cliflags; samhita-bench registers every group, samhita-conform all")
	fmt.Println("but transport/trace; a flag overrides the command's base configuration only when set):")
	for _, g := range cliflags.Groups {
		fmt.Printf("  %s:\n", g.Name)
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		cliflags.Register(fs, g.Group)
		fs.VisitAll(func(fl *flag.Flag) {
			fmt.Printf("    -%-17s %s (default %q)\n", fl.Name, fl.Usage, fl.DefValue)
		})
	}
	fmt.Println()

	fmt.Println("experiments (regenerate with samhita-bench):")
	fmt.Println("  figures:  ", bench.FigureIDs())
	fmt.Println("  ablations:", bench.AblationNames())
	fmt.Println("  workloads: kv (open-loop), pagerank (pull), forkstorm (storm); see samhita-bench -json")
}

// norm maps a zero topology knob to its effective count of 1.
func norm(n int) int {
	if n < 1 {
		return 1
	}
	return n
}
