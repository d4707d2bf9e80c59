package main

// This file is the benchmark's contract in code: the metric tables that
// BENCHMARK.json at the root of the repository mirrors (the schema test
// keeps the two equal).

const (
	lower  = "lower"
	higher = "higher"
)

// metricDef describes one reported number. Bound is the share of the
// parent commit's median by which an end-to-end metric may get worse
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// Units: "s" and "ns" are host-clock times, "vns" is virtual (modelled)
// nanoseconds, which repeat bit-exactly for a seed on the sequenced
// fabric. BENCHMARK.json lists the workloads that define all of these:
// the sequenced ones. An operation is what `attempted` counts: a KV
// request, a fork, or (kernels) one thread body.
//
// The virtual and allocation bounds are three times the widest quartile
// spread any listed workload shows over ten seeds, because the driver
// refuses a benchmark whose ten-seed spread exceeds a metric's bound;
// the two CPU times carry the widest bound it allows (README.md, "Why
// the bounds are what they are").
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"virt_total_vns", "vns", lower, 0.025},
	{"virt_compute_vns", "vns", lower, 0.025},
	{"virt_sync_vns", "vns", lower, 0.025},
	{"virt_op_p50_vns", "vns", lower, 0.08},
	{"virt_op_p99_vns", "vns", lower, 0.15},
	{"virt_rate_at_slo_rps", "1/s", higher, 0.025},
	{"host_cpu_s", "s", lower, 0.25},
	{"host_allocs", "objects", lower, 0.02},
	{"host_alloc_bytes", "bytes", lower, 0.02},
}

var perLayer = []metricDef{
	// How many operations the latency percentiles are taken over, and
	// the share that failed (the result line's attempted and failed).
	{Name: "virt_op_samples", Unit: "count", Better: higher},
	{Name: "fail_share", Unit: "ratio", Better: lower},

	// bench: the untraced wall time beside host_cpu_s, then the harness's
	// own spans around the traced repetition.
	{Name: "host_wall_s", Unit: "s", Better: lower},
	{Name: "bench.boot_host_s", Unit: "s", Better: lower},
	{Name: "bench.run_host_s", Unit: "s", Better: lower},
	{Name: "bench.close_host_s", Unit: "s", Better: lower},
	{Name: "bench.host_cpu_s", Unit: "s", Better: lower},
	{Name: "bench.host_sys_share", Unit: "ratio", Better: lower},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "bench.counter_violations", Unit: "count", Better: lower},

	// apps
	{Name: "kv.idle_share", Unit: "ratio", Better: higher},
	{Name: "forkstorm.cold_start_virt_ns", Unit: "vns", Better: lower},

	// vm (driver)
	{Name: "vm.read_hit_host_ns", Unit: "ns", Better: lower},
	{Name: "vm.write_hit_host_ns", Unit: "ns", Better: lower},
	{Name: "vm.readslice_host_ns_per_kib", Unit: "ns", Better: lower},

	// pagecache (counters, then driver)
	{Name: "pagecache.hits", Unit: "count", Better: higher},
	{Name: "pagecache.misses", Unit: "count", Better: lower},
	{Name: "pagecache.hit_rate", Unit: "ratio", Better: higher},
	{Name: "pagecache.evictions", Unit: "count", Better: lower},
	{Name: "pagecache.dirty_evicts", Unit: "count", Better: lower},
	{Name: "pagecache.prefetch_issued", Unit: "count", Better: lower},
	{Name: "pagecache.prefetch_useful_rate", Unit: "ratio", Better: higher},
	{Name: "pagecache.prefetch_late_rate", Unit: "ratio", Better: lower},
	{Name: "pagecache.prefetch_wasted_rate", Unit: "ratio", Better: lower},
	{Name: "pagecache.fault_stall_virt_ns", Unit: "vns", Better: lower},
	{Name: "pagecache.diff_bytes", Unit: "bytes", Better: lower},
	{Name: "pagecache.invalidations", Unit: "count", Better: lower},
	{Name: "pagecache.partial_invals", Unit: "count", Better: higher},
	{Name: "pagecache.records_logged", Unit: "count", Better: lower},
	{Name: "pagecache.record_bytes", Unit: "bytes", Better: lower},
	{Name: "pagecache.updates_applied", Unit: "count", Better: lower},
	{Name: "pagecache.read_hit_host_ns", Unit: "ns", Better: lower},
	{Name: "pagecache.write_hit_host_ns", Unit: "ns", Better: lower},
	{Name: "pagecache.readspan_host_ns_per_kib", Unit: "ns", Better: lower},
	{Name: "pagecache.writespan_host_ns_per_kib", Unit: "ns", Better: lower},
	{Name: "pagecache.fault_host_ns", Unit: "ns", Better: lower},
	{Name: "pagecache.fault_allocs", Unit: "objects", Better: lower},
	{Name: "pagecache.release_host_ns_per_page", Unit: "ns", Better: lower},
	{Name: "pagecache.release_allocs_per_page", Unit: "objects", Better: lower},

	// core: virtual self time folded from Config.Trace spans, and counts.
	{Name: "core.lock_self_virt_ns", Unit: "vns", Better: lower},
	{Name: "core.unlock_self_virt_ns", Unit: "vns", Better: lower},
	{Name: "core.barrier_self_virt_ns", Unit: "vns", Better: lower},
	{Name: "core.release_self_virt_ns", Unit: "vns", Better: lower},
	{Name: "core.fetch_virt_ns", Unit: "vns", Better: lower},
	{Name: "core.prefetch_virt_ns", Unit: "vns", Better: lower},
	{Name: "core.alloc_virt_ns", Unit: "vns", Better: lower},
	{Name: "core.lock_ops", Unit: "count", Better: lower},
	{Name: "core.barrier_ops", Unit: "count", Better: lower},
	{Name: "core.releases", Unit: "count", Better: lower},
	{Name: "core.msgs_per_release", Unit: "ratio", Better: lower},

	// scl (counters, then driver)
	{Name: "scl.msgs_sent", Unit: "count", Better: lower},
	{Name: "scl.bytes_sent", Unit: "bytes", Better: lower},
	{Name: "scl.bytes_received", Unit: "bytes", Better: lower},
	{Name: "scl.sim_call_host_ns", Unit: "ns", Better: lower},
	{Name: "scl.sim_call_allocs", Unit: "objects", Better: lower},
	{Name: "scl.tcp_call_host_ns", Unit: "ns", Better: lower},
	{Name: "scl.tcp_call16k_host_ns", Unit: "ns", Better: lower},
	{Name: "scl.tcp_call_allocs", Unit: "objects", Better: lower},
	{Name: "scl.retry_overhead_host_ns", Unit: "ns", Better: lower},

	// simnet (counters, then driver)
	{Name: "simnet.msgs", Unit: "count", Better: lower},
	{Name: "simnet.bytes", Unit: "bytes", Better: lower},
	{Name: "simnet.bytes_per_msg", Unit: "bytes", Better: lower},
	{Name: "simnet.host_ns_per_msg", Unit: "ns", Better: lower},
	{Name: "simnet.call_host_ns", Unit: "ns", Better: lower},
	{Name: "simnet.post_host_ns", Unit: "ns", Better: lower},

	// proto (driver)
	{Name: "proto.encode_host_ns.fetch_resp", Unit: "ns", Better: lower},
	{Name: "proto.decode_host_ns.fetch_resp", Unit: "ns", Better: lower},
	{Name: "proto.roundtrip_allocs.fetch_resp", Unit: "objects", Better: lower},
	{Name: "proto.encode_host_ns.diff_batch", Unit: "ns", Better: lower},
	{Name: "proto.decode_host_ns.diff_batch", Unit: "ns", Better: lower},
	{Name: "proto.roundtrip_allocs.diff_batch", Unit: "objects", Better: lower},
	{Name: "proto.encode_host_ns.lock_resp", Unit: "ns", Better: lower},
	{Name: "proto.decode_host_ns.lock_resp", Unit: "ns", Better: lower},
	{Name: "proto.roundtrip_allocs.lock_resp", Unit: "objects", Better: lower},
	{Name: "proto.encode_host_ns.unlock_req", Unit: "ns", Better: lower},
	{Name: "proto.decode_host_ns.unlock_req", Unit: "ns", Better: lower},
	{Name: "proto.roundtrip_allocs.unlock_req", Unit: "objects", Better: lower},
	{Name: "proto.encode_host_ns.repl_append", Unit: "ns", Better: lower},
	{Name: "proto.decode_host_ns.repl_append", Unit: "ns", Better: lower},
	{Name: "proto.roundtrip_allocs.repl_append", Unit: "objects", Better: lower},

	// memserver (counters, then driver)
	{Name: "memserver.fetches", Unit: "count", Better: lower},
	{Name: "memserver.parked_fetches", Unit: "count", Better: lower},
	{Name: "memserver.parked_rate", Unit: "ratio", Better: lower},
	{Name: "memserver.diff_batches", Unit: "count", Better: lower},
	{Name: "memserver.diff_bytes", Unit: "bytes", Better: lower},
	{Name: "memserver.records", Unit: "count", Better: lower},
	{Name: "memserver.bytes_served", Unit: "bytes", Better: lower},
	{Name: "memserver.pulls", Unit: "count", Better: lower},
	{Name: "memserver.split_fetches", Unit: "count", Better: lower},
	{Name: "memserver.split_batches", Unit: "count", Better: lower},
	{Name: "memserver.tier_hot_hit_rate", Unit: "ratio", Better: higher},
	{Name: "memserver.tier_promotions", Unit: "count", Better: lower},
	{Name: "memserver.tier_demotions", Unit: "count", Better: lower},
	{Name: "memserver.tier_compress_ratio", Unit: "ratio", Better: higher},
	{Name: "memserver.sealed_pages", Unit: "count", Better: lower},
	{Name: "memserver.cow_breaks", Unit: "count", Better: lower},
	{Name: "memserver.clock_virt_ns", Unit: "vns", Better: lower},
	{Name: "memserver.fetch_host_ns", Unit: "ns", Better: lower},
	{Name: "memserver.fetch_virt_ns", Unit: "vns", Better: lower},
	{Name: "memserver.fetch_allocs", Unit: "objects", Better: lower},
	{Name: "memserver.diff_apply_host_ns", Unit: "ns", Better: lower},
	{Name: "memserver.diff_apply_virt_ns", Unit: "vns", Better: lower},
	{Name: "memserver.cold_fetch_host_ns", Unit: "ns", Better: lower},
	{Name: "memserver.cold_fetch_virt_ns", Unit: "vns", Better: lower},

	// manager (counters, then driver)
	{Name: "manager.lock_grants", Unit: "count", Better: lower},
	{Name: "manager.lock_waits", Unit: "count", Better: lower},
	{Name: "manager.lock_wait_rate", Unit: "ratio", Better: lower},
	{Name: "manager.barrier_rounds", Unit: "count", Better: lower},
	{Name: "manager.notices_stored", Unit: "count", Better: lower},
	{Name: "manager.notices_sent", Unit: "count", Better: lower},
	{Name: "manager.next_waiters", Unit: "count", Better: lower},
	{Name: "manager.handoffs", Unit: "count", Better: higher},
	{Name: "manager.handoff_rate", Unit: "ratio", Better: higher},
	{Name: "manager.clock_virt_ns", Unit: "vns", Better: lower},
	{Name: "manager.lock_unlock_host_ns", Unit: "ns", Better: lower},
	{Name: "manager.lock_unlock_virt_ns", Unit: "vns", Better: lower},
	{Name: "manager.barrier16_host_ns", Unit: "ns", Better: lower},
	{Name: "manager.barrier16_virt_ns", Unit: "vns", Better: lower},
	{Name: "manager.alloc_host_ns", Unit: "ns", Better: lower},

	// replog (counters, then driver)
	{Name: "replog.entries", Unit: "count", Better: lower},
	{Name: "replog.snapshots", Unit: "count", Better: lower},
	{Name: "replog.elections", Unit: "count", Better: lower},
	{Name: "replog.append_ack_host_ns", Unit: "ns", Better: lower},
	{Name: "replog.append_ack_allocs", Unit: "objects", Better: lower},

	// quantile (driver)
	{Name: "quantile.add_host_ns", Unit: "ns", Better: lower},
}
