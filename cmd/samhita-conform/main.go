// Command samhita-conform fuzzes the DSM's consistency contract: it
// generates random data-race-free programs, runs them on Samhita under
// randomized runtime configurations, and checks every observed value
// against a sequential model. Any violation is a consistency bug.
//
// Usage:
//
//	samhita-conform -runs 200          # 200 random (program, config) pairs
//	samhita-conform -seed 42 -v        # replay one seed with details
//	samhita-conform -runs 50 -faults   # chaos mode: same check under
//	                                   # injected drops/delays/partitions
//	samhita-conform -runs 50 -kill-server 0 -kill-after 10
//	                                   # crash a memory server mid-run;
//	                                   # failover must preserve the check
//	samhita-conform -runs 50 -manager-replicas 3 -kill-manager
//	                                   # crash the manager leader mid-run;
//	                                   # a replica takes over from the
//	                                   # replicated log, check must pass
//	samhita-conform -runs 25 -kv -manager-replicas 3 -kill-manager
//	                                   # serving-layer chaos: the KV service
//	                                   # must lose no acked write and keep
//	                                   # error responses bounded
//	samhita-conform -runs 25 -kv -kill-server 0
//	                                   # same, crashing a memory server
//	                                   # (warm standby takes over)
//	samhita-conform -runs 25 -forkstorm -hot-bytes 32768
//	                                   # snapshot/fork contract on tiered
//	                                   # servers: bit-exact sealed reads,
//	                                   # every fork accounted for
//	samhita-conform -runs 10 -forkstorm -kill-server 0 -manager-replicas 3 -kill-manager
//	                                   # fork-storm chaos: both kills
//	                                   # mid-storm, bounded errors
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/apps/forkstorm"
	"repro/internal/apps/kv"
	"repro/internal/cliflags"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/scl"
	"repro/internal/stats"
)

func main() {
	var (
		runs    = flag.Int("runs", 100, "number of random (program, config) pairs")
		seed    = flag.Int64("seed", -1, "replay a single seed instead of sweeping")
		verbose = flag.Bool("v", false, "print every program/config")

		kvMode    = flag.Bool("kv", false, "check the DSM-backed KV service instead of random programs: no acked write may be lost and error responses must stay bounded")
		kvErrFrac = flag.Float64("kv-max-errors", 0.10, "highest tolerated fraction of KV requests answered with an error response under -kv")

		forkMode    = flag.Bool("forkstorm", false, "check the snapshot/fork contract instead of random programs: every fork accounted for, bit-exact sealed reads, bounded errors")
		forkErrFrac = flag.Float64("fork-max-errors", 0.25, "highest tolerated fraction of forks surfacing a Recover error under -forkstorm with faults")
	)
	// Topology flags force a value on every seed (unset = fuzzed per
	// seed); tiering, faults and kills must never change a checked value.
	rtFlags := cliflags.Register(flag.CommandLine, cliflags.Topology|cliflags.Faults|cliflags.Kills)
	flag.Parse()

	seeds := make([]int64, 0, *runs)
	if *seed >= 0 {
		seeds = append(seeds, *seed)
	} else {
		for i := 0; i < *runs; i++ {
			seeds = append(seeds, int64(i))
		}
	}

	start := time.Now()
	failures := 0
	var drops, retries, kills, failovers, mgrFailovers, mgrElections int64
	var fills stats.Thread // the programs' cache fill counters, summed
	for _, sd := range seeds {
		prog := conformance.Generate(sd)
		cfg := conformance.RandomConfig(sd * 31)
		sched := faultnet.Config{Seed: sd*101 + 7}
		if *forkMode {
			// The storm allocates small images; stripe them anyway so the
			// snapshot verbs (striped-zone only) accept them and the forks
			// spread across every server.
			cfg.StripeMin = 4096
		}
		if rtFlags.Chaos() {
			// No per-attempt timeout: protocol calls park legitimately on
			// locks and barriers; connection death, not timers, unsticks
			// them. Drops are pre-send, so retries stay exactly-once at
			// the server.
			cfg.Retry = &scl.RetryPolicy{
				MaxAttempts: 10,
				Backoff:     50 * time.Microsecond,
				BackoffCap:  2 * time.Millisecond,
			}
		}
		if rtFlags.Faults {
			sched.MaxDelay = 200 * time.Microsecond
			sched.Partitions = []faultnet.Partition{{Node: 10, After: 20, Len: 5}}
		}
		if err := rtFlags.Apply(&cfg, &sched); err != nil {
			fatalf("%v", err)
		}
		if sched.Active() {
			cfg.Faults = faultnet.New(sched)
		}
		if *verbose {
			fmt.Printf("seed %d: threads=%d rounds=%d slots=%d accums=%d locks=%d | lines=%d cache=%d servers=%d shards=%d homes=%d prefetch=%v\n",
				sd, prog.Threads, prog.Rounds, prog.Slots, prog.Accums, prog.Locks,
				cfg.Geo.LinePages, cfg.CacheLines, cfg.Geo.NumServers, cfg.ServerShards, cfg.ManagerShards, cfg.Prefetch)
		}
		rt, err := core.New(cfg)
		if err != nil {
			fatalf("seed %d: boot: %v", sd, err)
		}
		var viols []conformance.Violation
		var run *stats.Run
		if *forkMode {
			// The snapshot/fork check: a sealed image dirtied by its parent
			// while forks read it bit-exactly, under the same fault schedule
			// as above. The error cap only binds when faults are injected;
			// clean runs must not error at all.
			frac := 0.0
			if rtFlags.Chaos() {
				frac = *forkErrFrac
			}
			prm := forkstorm.Params{ImageBytes: 64 << 10, Forks: 24, ReadsPerFork: 3, WritesPerFork: 1, Seed: uint64(sd) + 1}
			viols, run, err = conformance.ForkStormCheck(rt, prog.Threads, prm, frac)
		} else if *kvMode {
			// The serving-layer check: per-seed request stream against a
			// fixed keyspace, with the same fault schedule as above. The
			// error cap only binds when faults are injected; clean runs
			// must not error at all.
			frac := 0.0
			if rtFlags.Chaos() {
				frac = *kvErrFrac
			}
			prm := kv.Params{Buckets: 32, Keys: 256, Ops: 32, Seed: uint64(sd) + 1}
			viols, err = conformance.KVCheck(rt, prog.Threads, prm, frac)
		} else {
			viols, run, err = conformance.RunStats(rt, prog)
		}
		if run != nil {
			tot := run.Totals()
			fills.Misses += tot.Misses
			fills.PageFills += tot.PageFills
			fills.SectorFills += tot.SectorFills
			fills.SkippedPages += tot.SkippedPages
			fills.FrameFills += tot.FrameFills
		}
		if nst := rt.NetStats(); nst != nil {
			drops += nst.InjectedDrops.Load()
			retries += nst.Retries.Load()
			kills += nst.InjectedKills.Load()
		}
		if live := rt.Liveness(); live != nil {
			failovers += live.Failovers.Load()
			mgrFailovers += live.MgrFailovers.Load()
			mgrElections += live.MgrElections.Load()
		}
		rt.Close()
		if err != nil {
			failures++
			fmt.Printf("seed %d: RUN ERROR: %v\n", sd, err)
			continue
		}
		if len(viols) > 0 {
			failures++
			fmt.Printf("seed %d: %d consistency violations, e.g. %s\n", sd, len(viols), viols[0])
		}
	}
	if rtFlags.Chaos() {
		fmt.Printf("\nfault injection: %d drops injected, %d retries absorbed, %d kills, %d failovers\n",
			drops, retries, kills, failovers)
	}
	if rtFlags.KillManager {
		fmt.Printf("manager replication: %d leader failovers, %d elections\n", mgrFailovers, mgrElections)
	}
	if !*kvMode {
		fmt.Printf("cache fills: %d misses, %d page fills, %d sector fills, %d pages skipped, %d frame fills\n",
			fills.Misses, fills.PageFills, fills.SectorFills, fills.SkippedPages, fills.FrameFills)
	}
	fmt.Printf("\n%d/%d passed in %v\n", len(seeds)-failures, len(seeds), time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "samhita-conform: "+format+"\n", args...)
	os.Exit(1)
}
