package stats

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Tier aggregates the tiered page store's data-plane events: hot-set
// hits, promotions from and demotions to the compressed cold tier, the
// byte volumes moved, and the snapshot/fork lifecycle (sealed frames,
// refcounts, copy-on-write breaks). Fields are atomic so one Tier can
// be shared by every memory server and shard and read while the system
// runs.
type Tier struct {
	HotHits    atomic.Int64 // page accesses served from the uncompressed hot set
	Promotions atomic.Int64 // pages decompressed cold -> hot on access
	Demotions  atomic.Int64 // pages compressed hot -> cold on budget pressure

	ColdBytes       atomic.Int64 // raw page bytes pushed through the cold tier
	CompressedBytes atomic.Int64 // word-run encoded bytes those pages occupied

	SealedPages  atomic.Int64 // page frames sealed into snapshots
	SnapshotRefs atomic.Int64 // live fork references onto sealed snapshots
	CoWBreaks    atomic.Int64 // fork pages privatized on first write
}

// Add folds another collector's counts into t, so a caller that gives
// each runtime its own Tier can still report one total.
func (t *Tier) Add(o *Tier) {
	t.HotHits.Add(o.HotHits.Load())
	t.Promotions.Add(o.Promotions.Load())
	t.Demotions.Add(o.Demotions.Load())
	t.ColdBytes.Add(o.ColdBytes.Load())
	t.CompressedBytes.Add(o.CompressedBytes.Load())
	t.SealedPages.Add(o.SealedPages.Load())
	t.SnapshotRefs.Add(o.SnapshotRefs.Load())
	t.CoWBreaks.Add(o.CoWBreaks.Load())
}

// Summary renders the non-zero tier counters on one line (or "no tier
// events" when the store never tiered or sealed anything).
func (t *Tier) Summary() string {
	type item struct {
		name string
		v    int64
	}
	items := []item{
		{"hotHits", t.HotHits.Load()},
		{"promotions", t.Promotions.Load()},
		{"demotions", t.Demotions.Load()},
		{"coldBytes", t.ColdBytes.Load()},
		{"compressedBytes", t.CompressedBytes.Load()},
		{"sealedPages", t.SealedPages.Load()},
		{"snapshotRefs", t.SnapshotRefs.Load()},
		{"cowBreaks", t.CoWBreaks.Load()},
	}
	var parts []string
	for _, it := range items {
		if it.v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", it.name, it.v))
		}
	}
	if len(parts) == 0 {
		return "tier: no tier events"
	}
	return "tier: " + strings.Join(parts, " ")
}

// HotHitRate is hot hits over all tier-mediated page accesses.
func (t *Tier) HotHitRate() float64 {
	hits := t.HotHits.Load()
	return Rate(hits, hits+t.Promotions.Load())
}
