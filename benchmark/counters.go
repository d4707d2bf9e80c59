package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// readCounters reads every public counter the program keeps, after a
// repetition's run and before its close, and names them by layer.
// Counters of replicated components are summed over the components;
// manager counters come from the leader (followers replay the same
// requests and would count them again). base holds, under a ratio's name,
// the count it is a share of.
func readCounters(rt *core.Runtime, run *stats.Run) (c, base map[string]float64) {
	c, base = make(map[string]float64), make(map[string]float64)
	t := run.Totals()

	c["pagecache.hits"] = float64(t.Hits)
	c["pagecache.misses"] = float64(t.Misses)
	c["pagecache.hit_rate"] = rate(float64(t.Hits), float64(t.Hits+t.Misses))
	base["pagecache.hit_rate"] = float64(t.Hits + t.Misses)
	c["pagecache.evictions"] = float64(t.Evictions)
	c["pagecache.dirty_evicts"] = float64(t.DirtyEvicts)
	c["pagecache.prefetch_issued"] = float64(t.PrefetchIssued)
	c["pagecache.prefetch_useful_rate"] = rate(float64(t.PrefetchHits+t.PrefetchLate), float64(t.PrefetchIssued))
	c["pagecache.prefetch_late_rate"] = rate(float64(t.PrefetchLate), float64(t.PrefetchIssued))
	c["pagecache.prefetch_wasted_rate"] = rate(float64(t.PrefetchWasted), float64(t.PrefetchIssued))
	base["pagecache.prefetch_useful_rate"] = float64(t.PrefetchIssued)
	base["pagecache.prefetch_late_rate"] = float64(t.PrefetchIssued)
	base["pagecache.prefetch_wasted_rate"] = float64(t.PrefetchIssued)
	c["pagecache.fault_stall_virt_ns"] = float64(t.FaultStall)
	c["pagecache.diff_bytes"] = float64(t.DiffBytes)
	c["pagecache.invalidations"] = float64(t.Invalidations)
	c["pagecache.partial_invals"] = float64(t.PartialInvals)
	c["pagecache.records_logged"] = float64(t.RecordsLogged)
	c["pagecache.record_bytes"] = float64(t.RecordBytes)
	c["pagecache.updates_applied"] = float64(t.UpdatesApplied)

	c["core.lock_ops"] = float64(t.LockOps)
	c["core.barrier_ops"] = float64(t.BarrierOps)
	c["core.releases"] = float64(t.Releases)
	c["core.msgs_per_release"] = rate(float64(t.MsgsSent), float64(t.Releases))
	base["core.msgs_per_release"] = float64(t.Releases)

	c["scl.msgs_sent"] = float64(t.MsgsSent)
	c["scl.bytes_sent"] = float64(t.BytesSent)
	c["scl.bytes_received"] = float64(t.BytesReceived)

	if f := rt.Fabric(); f != nil {
		c["simnet.msgs"] = float64(f.Messages())
		c["simnet.bytes"] = float64(f.Bytes())
		c["simnet.bytes_per_msg"] = rate(float64(f.Bytes()), float64(f.Messages()))
		base["simnet.bytes_per_msg"] = float64(f.Messages())
	}

	var clock int64
	for _, s := range rt.Servers() {
		st := s.Stats()
		c["memserver.fetches"] += float64(st.Fetches.Load())
		c["memserver.parked_fetches"] += float64(st.ParkedFetches.Load())
		c["memserver.diff_batches"] += float64(st.DiffBatches.Load())
		c["memserver.diff_bytes"] += float64(st.DiffBytes.Load())
		c["memserver.records"] += float64(st.Records.Load())
		c["memserver.bytes_served"] += float64(st.BytesServed.Load())
		c["memserver.pulls"] += float64(st.Pulls.Load())
		c["memserver.split_fetches"] += float64(st.SplitFetches.Load())
		c["memserver.split_batches"] += float64(st.SplitBatches.Load())
		if k := int64(s.Clock()); k > clock {
			clock = k
		}
	}
	c["memserver.parked_rate"] = rate(c["memserver.parked_fetches"], c["memserver.fetches"])
	base["memserver.parked_rate"] = c["memserver.fetches"]
	c["memserver.clock_virt_ns"] = float64(clock)

	tier := rt.TierStats()
	if rt.Config().HotBytes > 0 {
		c["memserver.tier_hot_hit_rate"] = tier.HotHitRate()
		base["memserver.tier_hot_hit_rate"] = float64(tier.HotHits.Load() + tier.Promotions.Load())
		c["memserver.tier_promotions"] = float64(tier.Promotions.Load())
		c["memserver.tier_demotions"] = float64(tier.Demotions.Load())
		c["memserver.tier_compress_ratio"] = rate(float64(tier.ColdBytes.Load()), float64(tier.CompressedBytes.Load()))
		base["memserver.tier_compress_ratio"] = float64(tier.CompressedBytes.Load())
	}
	c["memserver.sealed_pages"] = float64(tier.SealedPages.Load())
	c["memserver.cow_breaks"] = float64(tier.CoWBreaks.Load())

	ms := rt.Manager().Stats()
	c["manager.lock_grants"] = float64(ms.LockGrants.Load())
	c["manager.lock_waits"] = float64(ms.LockWaits.Load())
	c["manager.lock_wait_rate"] = rate(c["manager.lock_waits"], c["manager.lock_grants"])
	base["manager.lock_wait_rate"] = c["manager.lock_grants"]
	c["manager.barrier_rounds"] = float64(ms.BarrierRounds.Load())
	c["manager.notices_stored"] = float64(ms.NoticesStored.Load())
	c["manager.notices_sent"] = float64(ms.NoticesSent.Load())
	c["manager.next_waiters"] = float64(ms.NextWaiters.Load())
	c["manager.handoffs"] = float64(ms.Handoffs.Load())
	c["manager.handoff_rate"] = rate(c["manager.handoffs"], c["manager.lock_grants"])
	base["manager.handoff_rate"] = c["manager.lock_grants"]
	c["manager.clock_virt_ns"] = float64(rt.Manager().Clock())

	if live := rt.ReplLiveness(); live != nil {
		c["replog.entries"] = float64(live.MgrReplEntries.Load())
		c["replog.snapshots"] = float64(live.MgrSnapshots.Load())
		c["replog.elections"] = float64(live.MgrElections.Load())
	}
	return c, base
}

// counterViolations lists the conservation identities the traced
// counters break. They are reported, not enforced: ROADMAP item 2 (one
// stats registry with asserted invariants) uses the list as its target.
func counterViolations(c map[string]float64, hotPages float64) []string {
	var v []string
	if s := c["pagecache.prefetch_useful_rate"] + c["pagecache.prefetch_wasted_rate"]; s > 1 {
		v = append(v, fmt.Sprintf("prefetch useful+wasted rate %.3f > 1 (of %.0f issued)", s, c["pagecache.prefetch_issued"]))
	}
	if c["manager.handoffs"] > c["manager.next_waiters"] {
		v = append(v, fmt.Sprintf("manager handoffs %.0f > next_waiters %.0f", c["manager.handoffs"], c["manager.next_waiters"]))
	}
	if net := c["memserver.tier_promotions"] - c["memserver.tier_demotions"]; net < 0 || (hotPages > 0 && net > hotPages) {
		v = append(v, fmt.Sprintf("tier promotions-demotions = %.0f outside [0, %.0f hot pages]", net, hotPages))
	}
	return v
}
