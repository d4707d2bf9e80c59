// Package stats collects the per-thread and system-wide measurements the
// paper's evaluation reports: compute time, synchronization time, and the
// protocol event counters (faults, prefetch hits, diffs, write notices,
// bytes moved) that explain them.
//
// Accounting follows the paper's methodology: a thread's virtual time is
// split into exactly two buckets. Time spent inside LOCK / UNLOCK /
// BARRIER_WAIT / condition-variable calls is synchronization time;
// everything else — including page faults taken while computing — is
// compute time. (Section III: the fault and fetch costs incurred by
// false sharing show up as *compute* time, while the consistency actions
// performed at synchronization points show up as *synchronization*
// time.)
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/vtime"
)

// Net aggregates transport-robustness events: retry/timeout activity in
// the SCL retry layer, connection failures in the TCP transport, and
// injected faults from the chaos layer. Fields are atomic so one Net can
// be shared by every endpoint of a runtime and read while it runs.
type Net struct {
	Attempts    atomic.Int64 // call/post attempts issued by the retry layer
	Retries     atomic.Int64 // attempts beyond the first
	Timeouts    atomic.Int64 // attempts abandoned by the per-attempt timeout
	Unreachable atomic.Int64 // calls/posts that exhausted the retry budget

	DeadConns      atomic.Int64 // TCP connections evicted after a read/write error
	StrandedCalls  atomic.Int64 // pending calls failed because their connection died
	WriteErrors    atomic.Int64 // frame or reply writes that failed
	StaleResponses atomic.Int64 // responses with no waiting call (late or duplicate)

	InjectedDrops     atomic.Int64 // faultnet: attempts dropped before the send
	InjectedDelays    atomic.Int64 // faultnet: messages delayed
	InjectedDups      atomic.Int64 // faultnet: duplicate responses delivered and discarded
	PartitionRefusals atomic.Int64 // faultnet: attempts refused by an active partition
	InjectedKills     atomic.Int64 // faultnet: nodes crash-killed
	KillRefusals      atomic.Int64 // faultnet: attempts refused because an endpoint is killed
}

// Summary renders the non-zero robustness counters on one line (or
// "no transport failures" when the run was clean).
func (n *Net) Summary() string {
	type item struct {
		name string
		v    int64
	}
	items := []item{
		{"attempts", n.Attempts.Load()},
		{"retries", n.Retries.Load()},
		{"timeouts", n.Timeouts.Load()},
		{"unreachable", n.Unreachable.Load()},
		{"deadConns", n.DeadConns.Load()},
		{"strandedCalls", n.StrandedCalls.Load()},
		{"writeErrors", n.WriteErrors.Load()},
		{"staleResponses", n.StaleResponses.Load()},
		{"drops", n.InjectedDrops.Load()},
		{"delays", n.InjectedDelays.Load()},
		{"dups", n.InjectedDups.Load()},
		{"partitionRefusals", n.PartitionRefusals.Load()},
		{"kills", n.InjectedKills.Load()},
		{"killRefusals", n.KillRefusals.Load()},
	}
	var parts []string
	for _, it := range items {
		if it.v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", it.name, it.v))
		}
	}
	if len(parts) == 0 {
		return "net: no transport failures"
	}
	return "net: " + strings.Join(parts, " ")
}

// Thread accumulates measurements for one compute thread. It is owned by
// the thread's goroutine and must not be shared while the thread runs;
// Snapshot copies it for cross-thread reporting.
type Thread struct {
	ID int

	// ComputeTime and SyncTime partition the thread's virtual run time.
	ComputeTime vtime.Time
	SyncTime    vtime.Time
	// IdleTime is virtual time the thread spent deliberately idle in
	// SleepUntil — an open-loop client waiting for its next scheduled
	// arrival. It is excluded from ComputeTime/SyncTime (and TotalTime)
	// so service metrics are not polluted by intentional slack.
	IdleTime vtime.Time

	// Cache behaviour.
	Hits            int64 // accesses served by a resident, valid line
	Misses          int64 // demand faults (line fetches issued)
	PrefetchHits    int64 // faults satisfied by a completed prefetch
	PrefetchLate    int64 // faults that had to wait for an in-flight prefetch
	PrefetchIssued  int64 // asynchronous prefetch requests issued
	PrefetchWasted  int64 // prefetch results discarded unused (stale, failed, or dropped by a fork)
	PrefetchUnused  int64 // prefetches still pending when the thread retired
	CombinedFetches int64 // demand faults served by a multi-line combined fetch
	CombinedLines   int64 // companion lines revalidated by combined fetches
	PageFills       int64 // misses on absent lines that fetched only the pages the access covered
	SectorFills     int64 // misses that fetched the rest of a page-filled line
	SkippedPages    int64 // invalid pages of a resident line its fault left for a later touch
	FrameFills      int64 // fork pages a miss installed from the thread's own copies of sealed frames
	Evictions       int64 // lines evicted to make room
	DirtyEvicts     int64 // evictions that had to flush a diff first
	Twins           int64 // twin pages created (first write in an interval)
	// FaultStall is the virtual time spent inside demand faults (from
	// fault entry to data installed), the part of compute time that is
	// really the memory system, not arithmetic. It explains where
	// ComputeTime goes on false-sharing-heavy runs.
	FaultStall vtime.Time

	// Consistency traffic.
	DiffsCreated    int64 // page diffs produced at releases/evictions
	DiffBytes       int64 // payload bytes of eagerly shipped diffs
	OwnedClaims     int64 // lazily-owned pages claimed at releases (no bytes shipped)
	RecordsLogged   int64 // fine-grained store records (consistency regions)
	RecordBytes     int64 // payload bytes of those records
	Invalidations   int64 // pages invalidated by incoming write notices
	PartialInvals   int64 // of those, pages only marked partially stale (span extents)
	InvalFlushes    int64 // invalidations of dirty pages that flushed a diff home
	UpdatesApplied  int64 // fine-grained updates applied in place
	NoticesReceived int64 // write notices processed at acquires

	// Communication.
	MsgsSent int64
	// BytesSent is the payload the thread's cache put on the wire: every
	// diff byte shipped to a home (DiffBytes) plus every store-record
	// byte, once for the record's home and once for the manager's write
	// notice. Headers, and retained diffs a home pulls through the cache
	// agent, are not counted. BytesReceived is its mirror: fetched line
	// and page bytes.
	BytesSent     int64
	BytesReceived int64

	// Synchronization operations.
	LockOps    int64
	BarrierOps int64
	CondOps    int64
	Releases   int64 // release points closed (unlock / barrier / cond wait)

	// Allocation.
	ArenaAllocs  int64 // served locally from the thread arena
	SharedAllocs int64 // served by the manager (shared zone / striped)
}

// Snapshot returns a copy of t.
func (t *Thread) Snapshot() Thread { return *t }

// TotalTime is the thread's complete virtual run time.
func (t *Thread) TotalTime() vtime.Time { return t.ComputeTime + t.SyncTime }

// CheckPrefetch reports a retired thread's record whose prefetch
// outcomes do not match its issues: each prefetch the record counted
// issued ends as exactly one hit, late arrival, waste or unused line, so
// PrefetchHits + PrefetchLate + PrefetchWasted + PrefetchUnused ==
// PrefetchIssued.
func (t *Thread) CheckPrefetch() error {
	if n := t.PrefetchHits + t.PrefetchLate + t.PrefetchWasted + t.PrefetchUnused; n != t.PrefetchIssued {
		return fmt.Errorf("stats: thread %d: %d prefetches hit, late, wasted or unused, %d issued", t.ID, n, t.PrefetchIssued)
	}
	return nil
}

// CheckFills reports a record with more sector fills than page fills:
// a sector fill fetches the rest of a line a page fill brought in, at
// most once per page fill.
func (t *Thread) CheckFills() error {
	if t.SectorFills > t.PageFills {
		return fmt.Errorf("stats: thread %d: %d sector fills, %d page fills", t.ID, t.SectorFills, t.PageFills)
	}
	return nil
}

// Run aggregates the per-thread statistics of one experiment run.
type Run struct {
	Threads []Thread
}

// MaxComputeTime reports the longest per-thread compute time; the paper's
// "compute time" plots report the per-thread compute time of the
// slowest thread (per-thread work is symmetric in all benchmarks).
func (r *Run) MaxComputeTime() vtime.Time {
	var m vtime.Time
	for i := range r.Threads {
		m = vtime.Max(m, r.Threads[i].ComputeTime)
	}
	return m
}

// MaxSyncTime reports the longest per-thread synchronization time.
func (r *Run) MaxSyncTime() vtime.Time {
	var m vtime.Time
	for i := range r.Threads {
		m = vtime.Max(m, r.Threads[i].SyncTime)
	}
	return m
}

// MaxTotalTime reports the virtual wall time of the run (slowest thread).
func (r *Run) MaxTotalTime() vtime.Time {
	var m vtime.Time
	for i := range r.Threads {
		m = vtime.Max(m, r.Threads[i].TotalTime())
	}
	return m
}

// MeanComputeTime reports the arithmetic mean of per-thread compute time.
func (r *Run) MeanComputeTime() vtime.Time {
	if len(r.Threads) == 0 {
		return 0
	}
	var s vtime.Time
	for i := range r.Threads {
		s += r.Threads[i].ComputeTime
	}
	return s / vtime.Time(len(r.Threads))
}

// MeanSyncTime reports the arithmetic mean of per-thread sync time.
func (r *Run) MeanSyncTime() vtime.Time {
	if len(r.Threads) == 0 {
		return 0
	}
	var s vtime.Time
	for i := range r.Threads {
		s += r.Threads[i].SyncTime
	}
	return s / vtime.Time(len(r.Threads))
}

// Totals sums the event counters across threads.
func (r *Run) Totals() Thread {
	var sum Thread
	sum.ID = -1
	for i := range r.Threads {
		t := &r.Threads[i]
		sum.Hits += t.Hits
		sum.Misses += t.Misses
		sum.PrefetchHits += t.PrefetchHits
		sum.PrefetchLate += t.PrefetchLate
		sum.PrefetchIssued += t.PrefetchIssued
		sum.PrefetchWasted += t.PrefetchWasted
		sum.PrefetchUnused += t.PrefetchUnused
		sum.CombinedFetches += t.CombinedFetches
		sum.CombinedLines += t.CombinedLines
		sum.PageFills += t.PageFills
		sum.SectorFills += t.SectorFills
		sum.SkippedPages += t.SkippedPages
		sum.FrameFills += t.FrameFills
		sum.Evictions += t.Evictions
		sum.DirtyEvicts += t.DirtyEvicts
		sum.Twins += t.Twins
		sum.FaultStall += t.FaultStall
		sum.IdleTime += t.IdleTime
		sum.DiffsCreated += t.DiffsCreated
		sum.DiffBytes += t.DiffBytes
		sum.OwnedClaims += t.OwnedClaims
		sum.RecordsLogged += t.RecordsLogged
		sum.RecordBytes += t.RecordBytes
		sum.Invalidations += t.Invalidations
		sum.PartialInvals += t.PartialInvals
		sum.InvalFlushes += t.InvalFlushes
		sum.UpdatesApplied += t.UpdatesApplied
		sum.NoticesReceived += t.NoticesReceived
		sum.MsgsSent += t.MsgsSent
		sum.BytesSent += t.BytesSent
		sum.BytesReceived += t.BytesReceived
		sum.LockOps += t.LockOps
		sum.BarrierOps += t.BarrierOps
		sum.CondOps += t.CondOps
		sum.Releases += t.Releases
		sum.ArenaAllocs += t.ArenaAllocs
		sum.SharedAllocs += t.SharedAllocs
	}
	return sum
}

// Summary renders a human-readable multi-line report of the run.
func (r *Run) Summary() string {
	tot := r.Totals()
	var b strings.Builder
	fmt.Fprintf(&b, "threads=%d compute(max)=%v sync(max)=%v total(max)=%v\n",
		len(r.Threads), r.MaxComputeTime(), r.MaxSyncTime(), r.MaxTotalTime())
	fmt.Fprintf(&b, "cache: hits=%d misses=%d prefetchHits=%d prefetchLate=%d evictions=%d (dirty=%d) twins=%d pageFills=%d sectorFills=%d skippedPages=%d frameFills=%d\n",
		tot.Hits, tot.Misses, tot.PrefetchHits, tot.PrefetchLate, tot.Evictions, tot.DirtyEvicts, tot.Twins, tot.PageFills, tot.SectorFills, tot.SkippedPages, tot.FrameFills)
	fmt.Fprintf(&b, "consistency: diffs=%d (%d B eager) owned=%d records=%d (%d B) invalidations=%d (flushed=%d) updates=%d notices=%d\n",
		tot.DiffsCreated, tot.DiffBytes, tot.OwnedClaims, tot.RecordsLogged, tot.RecordBytes,
		tot.Invalidations, tot.InvalFlushes, tot.UpdatesApplied, tot.NoticesReceived)
	fmt.Fprintf(&b, "comm: msgs=%d sent=%d B recv=%d B  sync-ops: locks=%d barriers=%d conds=%d\n",
		tot.MsgsSent, tot.BytesSent, tot.BytesReceived, tot.LockOps, tot.BarrierOps, tot.CondOps)
	b.WriteString(r.ReleaseLine())
	b.WriteByte('\n')
	return b.String()
}

// ReleaseLine renders the release-path and prefetch efficiency
// counters on one line (shared by Summary and the benchmark CLIs).
func (r *Run) ReleaseLine() string {
	tot := r.Totals()
	return fmt.Sprintf("release: releases=%d msgs/rel=%.2f diffB/rel=%.1f  prefetch: issued=%d hit=%.0f%% wasted=%.0f%% combined=%d(+%d lines)",
		tot.Releases, Rate(tot.MsgsSent, tot.Releases), Rate(tot.DiffBytes, tot.Releases),
		tot.PrefetchIssued, 100*Rate(tot.PrefetchHits+tot.PrefetchLate, tot.PrefetchIssued),
		100*Rate(tot.PrefetchWasted, tot.PrefetchIssued), tot.CombinedFetches, tot.CombinedLines)
}

// Rate divides two counters, guarding the empty denominator.
func Rate(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Registry gathers Thread snapshots from concurrently finishing threads.
type Registry struct {
	mu      sync.Mutex
	threads []Thread
}

// Add records a snapshot of t.
func (g *Registry) Add(t *Thread) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.threads = append(g.threads, t.Snapshot())
}

// Run returns the collected snapshots ordered by thread ID.
func (g *Registry) Run() *Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Thread, len(g.threads))
	copy(out, g.threads)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return &Run{Threads: out}
}
