package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"

	"repro/internal/apps/forkstorm"
	"repro/internal/apps/kernels"
	"repro/internal/apps/kv"
	"repro/internal/apps/pagerank"
	"repro/internal/core"
	"repro/internal/stats"
)

// This file is the machine-readable face of the micro-benchmark: one
// JSON document (BENCH_micro.json) records the release-path and
// prefetch efficiency of the configurations in table, and
// CheckRegression gates CI on it. Reported times are virtual-model
// times over the sequenced simulated fabric, so the numbers are
// bit-stable across machines — a difference is a code change, not
// noise, which is what lets the gate be exact.

// MicroPoint is one measured micro-benchmark configuration.
type MicroPoint struct {
	// Configuration (the identity CheckRegression matches on).
	P             int    `json:"p"`
	Mode          string `json:"mode"`
	N             int    `json:"n"`
	M             int    `json:"m"`
	S             int    `json:"s"`
	B             int    `json:"b"`
	PrefetchDepth int    `json:"prefetchDepth"`
	// ServerShards is the memory servers' shard count (0 in documents
	// written before sharding existed, equivalent to 1).
	ServerShards int `json:"serverShards,omitempty"`
	// ManagerShards is the manager's sync-home count (0 in documents
	// written before manager sharding existed, equivalent to 1).
	ManagerShards int `json:"managerShards,omitempty"`
	// ManagerReplicas is the consensus-replicated manager group size (0
	// in documents written before replication existed, equivalent to 1).
	ManagerReplicas int `json:"managerReplicas,omitempty"`
	// Spans marks points whose kernel ran on the bulk span accessors.
	Spans bool `json:"spans,omitempty"`
	// WideGsum is the widened global-accumulator slot count (0/1 = the
	// legacy single slot); see kernels.MicroParams.WideGsum.
	WideGsum int `json:"wideGsum,omitempty"`
	// Servers is the memory-server count when it differs from the
	// single-server default (population-sweep points spread the store).
	Servers int `json:"servers,omitempty"`
	// Workload names a serving-scale workload point ("kv", "pagerank",
	// "forkstorm"); empty for the micro kernel. Workload points reuse
	// the parameter fields: kv stores Ops/Keys/Buckets/GetPct in
	// N/M/S/B, pagerank stores Iters/Vertices/AvgDeg in N/M/S,
	// forkstorm stores Forks/ImageBytes/ReadsPerFork/WritesPerFork in
	// N/M/S/B.
	Workload string `json:"workload,omitempty"`
	// HotBytes is the per-server hot-set budget of a tiered point (0 =
	// untiered; untiered points keep their legacy keys).
	HotBytes int64 `json:"hotBytes,omitempty"`
	// ColdPreset names the tiered point's cold-tier cost model.
	ColdPreset string `json:"coldPreset,omitempty"`

	// Virtual times of the slowest thread, in nanoseconds.
	ComputeMaxNs int64 `json:"computeMaxNs"`
	SyncMaxNs    int64 `json:"syncMaxNs"`
	TotalMaxNs   int64 `json:"totalMaxNs"`

	// Whole-fabric traffic (every message of every component).
	FabricMsgs  int64 `json:"fabricMsgs"`
	FabricBytes int64 `json:"fabricBytes"`

	// Release-path efficiency.
	Releases            int64   `json:"releases"`
	MsgsPerRelease      float64 `json:"msgsPerRelease"`
	DiffBytesPerRelease float64 `json:"diffBytesPerRelease"`

	// Prefetch efficiency.
	PrefetchIssued    int64   `json:"prefetchIssued"`
	PrefetchHitRate   float64 `json:"prefetchHitRate"`
	PrefetchWasteRate float64 `json:"prefetchWasteRate"`

	// Manager-replication counters (only set when ManagerReplicas > 1):
	// how many mutations rode the consensus log, and how often the log
	// was compacted into a snapshot.
	MgrReplEntries int64 `json:"mgrReplEntries,omitempty"`
	MgrSnapshots   int64 `json:"mgrSnapshots,omitempty"`
	MgrElections   int64 `json:"mgrElections,omitempty"`

	// Record-plane footprint: consistency-region store records logged
	// and their wire footprint (payload plus the 16-byte per-record
	// marshalling header). Omitted for runs that log no records.
	RecordsLogged int64 `json:"recordsLogged,omitempty"`
	RecordBytes   int64 `json:"recordBytes,omitempty"`

	// Open-loop service latency (workload points only): quantiles of
	// scheduled-arrival-to-completion time in virtual nanoseconds, over
	// Ops completed requests.
	Ops    int64 `json:"ops,omitempty"`
	P50Ns  int64 `json:"p50Ns,omitempty"`
	P99Ns  int64 `json:"p99Ns,omitempty"`
	P999Ns int64 `json:"p999Ns,omitempty"`

	// Tiered-store counters (tiered points only). HotHitRate is the
	// fraction of server page touches served from the hot set.
	HotHitRate float64 `json:"hotHitRate,omitempty"`
	Promotions int64   `json:"promotions,omitempty"`
	Demotions  int64   `json:"demotions,omitempty"`

	// Fork-storm results (forkstorm points only): fork-to-first-op
	// latency quantiles over Forks copy-on-write forks, and the
	// eager-copy cold-start baseline the O(1) fork is judged against.
	Forks       int64 `json:"forks,omitempty"`
	ForkP50Ns   int64 `json:"forkP50Ns,omitempty"`
	ForkP99Ns   int64 `json:"forkP99Ns,omitempty"`
	ForkP999Ns  int64 `json:"forkP999Ns,omitempty"`
	ColdStartNs int64 `json:"coldStartNs,omitempty"`
}

// key is the configuration identity used to pair baseline and current
// points. Shard count 0 (documents from before sharding) normalizes to
// 1 so old baselines keep gating the unsharded points.
func (p MicroPoint) key() string {
	sh := p.ServerShards
	if sh == 0 {
		sh = 1
	}
	mgr := p.ManagerShards
	if mgr == 0 {
		mgr = 1
	}
	rep := p.ManagerReplicas
	if rep == 0 {
		rep = 1
	}
	k := fmt.Sprintf("p%d-%s-N%d-M%d-S%d-B%d-d%d-sh%d-mgr%d-rep%d", p.P, p.Mode, p.N, p.M, p.S, p.B, p.PrefetchDepth, sh, mgr, rep)
	// Span/record-plane variants only suffix the key when set, so legacy
	// documents keep matching legacy points.
	if p.Spans {
		k += "-span"
	}
	if p.WideGsum > 1 {
		k += fmt.Sprintf("-wide%d", p.WideGsum)
	}
	if p.Servers > 1 {
		k += fmt.Sprintf("-srv%d", p.Servers)
	}
	if p.Workload != "" {
		k += "-wl-" + p.Workload
	}
	if p.HotBytes > 0 {
		k += fmt.Sprintf("-hot%d", p.HotBytes)
	}
	return k
}

// MicroBench is the document stored in BENCH_micro.json.
type MicroBench struct {
	Benchmark string       `json:"benchmark"`
	Points    []MicroPoint `json:"points"`
}

// row is one BENCH_micro.json point as the document identifies it: the
// workload, its parameters in the four slots every point records, and
// the topology it runs on. Zero servers is the template's single
// server (the document omits the field there).
type row struct {
	workload string            // "" = the micro kernel; "kv", "pagerank", "forkstorm"
	mode     kernels.AllocMode // micro kernel only
	p        int
	// micro N/M/S/B; kv Ops/Keys/Buckets/GetPct; pagerank
	// Iters/Vertices/AvgDeg; forkstorm
	// Forks/ImageBytes/ReadsPerFork/WritesPerFork.
	n, m, s, b int

	servers, shards, homes, replicas int
	hot                              int64 // per-server hot-set budget; 0 = untiered
	spans                            bool
	wide                             int
}

const (
	strided = kernels.AllocStrided
	local   = kernels.AllocLocal
	random  = kernels.AllocRandom
	// hotBudget squeezes the strided point's working set out of core.
	hotBudget = 96 << 10
)

// table is BENCH_micro.json, in file order. CI measures the rows with
// p <= 256; the P=1024 block costs minutes and is measured on demand.
var table = []row{
	// The paper's Figure 10/11 configuration (16 threads, M=10, S=2),
	// a local-mode control and the random scatter, unsharded.
	{mode: strided, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 1, homes: 1, replicas: 1},
	{mode: local, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 1, homes: 1, replicas: 1},
	{mode: random, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 1, homes: 1, replicas: 1},
	// The shard-sensitive modes on sharded servers, then with sharded
	// manager homes too, then behind the replicated manager's log.
	{mode: strided, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 4, homes: 1, replicas: 1},
	{mode: random, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 4, homes: 1, replicas: 1},
	{mode: strided, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 4, homes: 4, replicas: 1},
	{mode: random, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 4, homes: 4, replicas: 1},
	{mode: strided, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 4, homes: 4, replicas: 3},
	// Span-recast twins, then the record-plane pair on a 64-slot
	// accumulator burst: coalesced element stores, one span record.
	{mode: strided, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 4, homes: 4, replicas: 1, spans: true},
	{mode: random, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 4, homes: 4, replicas: 1, spans: true},
	{mode: strided, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 4, homes: 4, replicas: 1, wide: 64},
	{mode: strided, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 4, homes: 4, replicas: 1, wide: 64, spans: true},
	// Serving-scale workloads on the element and span planes.
	{workload: "kv", p: 16, n: 64, m: 512, s: 64, b: 90, shards: 4, homes: 4, replicas: 1},
	{workload: "pagerank", p: 16, n: 3, m: 192, s: 6, shards: 4, homes: 4, replicas: 1},
	{workload: "kv", p: 16, n: 64, m: 512, s: 64, b: 90, shards: 4, homes: 4, replicas: 1, spans: true},
	{workload: "pagerank", p: 16, n: 3, m: 192, s: 6, shards: 4, homes: 4, replicas: 1, spans: true},
	// The strided point out of core, and 10k copy-on-write forks off
	// one sealed 1 MiB image on the same tiered servers.
	{mode: strided, p: 16, n: 10, m: 10, s: 2, b: 256, shards: 4, homes: 4, replicas: 1, hot: hotBudget},
	{workload: "forkstorm", p: 16, n: 10000, m: 1 << 20, s: 4, b: 1, shards: 4, homes: 4, replicas: 1, hot: hotBudget},
	// Population sweep: a small kernel (the sync plane is what scales)
	// and the KV service on a fixed keyspace, on four servers:
	// unsharded, sharded, replicated; then the kernel out of core.
	{mode: strided, p: 256, n: 3, m: 5, s: 1, b: 64, servers: 4, shards: 1, homes: 4, replicas: 1},
	{workload: "kv", p: 256, n: 8, m: 2048, s: 128, b: 90, servers: 4, shards: 1, homes: 4, replicas: 1, spans: true},
	{mode: strided, p: 256, n: 3, m: 5, s: 1, b: 64, servers: 4, shards: 4, homes: 4, replicas: 1},
	{workload: "kv", p: 256, n: 8, m: 2048, s: 128, b: 90, servers: 4, shards: 4, homes: 4, replicas: 1, spans: true},
	{mode: strided, p: 256, n: 3, m: 5, s: 1, b: 64, servers: 4, shards: 4, homes: 4, replicas: 3},
	{workload: "kv", p: 256, n: 8, m: 2048, s: 128, b: 90, servers: 4, shards: 4, homes: 4, replicas: 3, spans: true},
	{mode: strided, p: 256, n: 3, m: 5, s: 1, b: 64, servers: 4, shards: 4, homes: 4, replicas: 1, hot: hotBudget},
	{mode: strided, p: 1024, n: 3, m: 5, s: 1, b: 64, servers: 4, shards: 1, homes: 4, replicas: 1},
	{workload: "kv", p: 1024, n: 8, m: 2048, s: 128, b: 90, servers: 4, shards: 1, homes: 4, replicas: 1, spans: true},
	{mode: strided, p: 1024, n: 3, m: 5, s: 1, b: 64, servers: 4, shards: 4, homes: 4, replicas: 1},
	{workload: "kv", p: 1024, n: 8, m: 2048, s: 128, b: 90, servers: 4, shards: 4, homes: 4, replicas: 1, spans: true},
	{mode: strided, p: 1024, n: 3, m: 5, s: 1, b: 64, servers: 4, shards: 4, homes: 4, replicas: 3},
	{workload: "kv", p: 1024, n: 8, m: 2048, s: 128, b: 90, servers: 4, shards: 4, homes: 4, replicas: 3, spans: true},
	{mode: strided, p: 1024, n: 3, m: 5, s: 1, b: 64, servers: 4, shards: 4, homes: 4, replicas: 1, hot: hotBudget},
}

// measure boots the template on the row's topology, runs the row's
// workload once and returns the point. Its identity comes from the row;
// every point counts its own tier events.
func (o Options) measure(r row) (MicroPoint, error) {
	rt, err := o.newSamhita(func(c *core.Config) {
		if r.servers > 0 {
			c.Geo.NumServers = r.servers
		}
		c.ServerShards, c.ManagerShards, c.ManagerReplicas = r.shards, r.homes, r.replicas
		c.HotBytes = r.hot
		c.Tier = nil
	})
	if err != nil {
		return MicroPoint{}, err
	}
	defer func() {
		rt.Close()
		if o.Cfg.Tier != nil {
			o.Cfg.Tier.Add(rt.TierStats())
		}
	}()
	pt := MicroPoint{
		Workload: r.workload, P: r.p, N: r.n, M: r.m, S: r.s, B: r.b,
		PrefetchDepth: o.Cfg.PrefetchDepth,
		Servers:       r.servers, ServerShards: r.shards, ManagerShards: r.homes, ManagerReplicas: r.replicas,
		Spans: r.spans, WideGsum: r.wide, HotBytes: r.hot,
	}
	var run *stats.Run
	switch r.workload {
	case "":
		pt.Mode = r.mode.String()
		res, err := kernels.RunMicro(rt, r.p, kernels.MicroParams{N: r.n, M: r.m, S: r.s, B: r.b, Mode: r.mode, UseSpans: r.spans, WideGsum: r.wide})
		if err != nil {
			return pt, err
		}
		run = res.Run
	case "kv":
		pt.Mode = "open"
		res, err := kv.Run(rt, r.p, kv.Params{Ops: r.n, Keys: r.m, Buckets: r.s, GetPct: r.b, UseSpans: r.spans})
		if err != nil {
			return pt, err
		}
		run = res.Run
		pt.Ops, pt.P50Ns, pt.P99Ns, pt.P999Ns = res.Ops, int64(res.P50), int64(res.P99), int64(res.P999)
	case "pagerank":
		pt.Mode = "pull"
		prm := pagerank.Params{Iters: r.n, Vertices: r.m, AvgDeg: r.s, UseSpans: r.spans}
		res, err := pagerank.Run(rt, r.p, prm)
		if err != nil {
			return pt, err
		}
		if _, want := pagerank.Reference(r.p, prm); res.Checksum != want {
			return pt, fmt.Errorf("pagerank checksum %v != sequential reference %v", res.Checksum, want)
		}
		run = res.Run
	case "forkstorm":
		pt.Mode = "storm"
		res, err := forkstorm.Run(rt, r.p, forkstorm.Params{Forks: r.n, ImageBytes: r.m, ReadsPerFork: r.s, WritesPerFork: r.b})
		if err != nil {
			return pt, err
		}
		if res.Errors > 0 {
			return pt, fmt.Errorf("forkstorm: %d fork iterations errored", res.Errors)
		}
		run = res.Run
		pt.Forks, pt.ColdStartNs = res.Forks, int64(res.ColdStartNs)
		pt.ForkP50Ns, pt.ForkP99Ns, pt.ForkP999Ns = int64(res.P50), int64(res.P99), int64(res.P999)
	default:
		return pt, fmt.Errorf("bench: unknown workload %q", r.workload)
	}
	o.aggregate(run)

	tot := run.Totals()
	pt.ComputeMaxNs = int64(run.MaxComputeTime())
	pt.SyncMaxNs = int64(run.MaxSyncTime())
	pt.TotalMaxNs = int64(run.MaxTotalTime())
	pt.Releases = tot.Releases
	pt.MsgsPerRelease = stats.Rate(tot.MsgsSent, tot.Releases)
	pt.DiffBytesPerRelease = stats.Rate(tot.DiffBytes, tot.Releases)
	pt.PrefetchIssued = tot.PrefetchIssued
	pt.PrefetchHitRate = stats.Rate(tot.PrefetchHits+tot.PrefetchLate, tot.PrefetchIssued)
	pt.PrefetchWasteRate = stats.Rate(tot.PrefetchWasted, tot.PrefetchIssued)
	pt.RecordsLogged = tot.RecordsLogged
	pt.RecordBytes = tot.RecordBytes + 16*tot.RecordsLogged
	if fab := rt.Fabric(); fab != nil {
		pt.FabricMsgs, pt.FabricBytes = fab.Messages(), fab.Bytes()
	}
	if live := rt.ReplLiveness(); live != nil {
		pt.MgrReplEntries = live.MgrReplEntries.Load()
		pt.MgrSnapshots = live.MgrSnapshots.Load()
		pt.MgrElections = live.MgrElections.Load()
	}
	if r.hot > 0 {
		ts := rt.TierStats()
		pt.ColdPreset = o.Cfg.ColdPreset
		pt.HotHitRate = ts.HotHitRate()
		pt.Promotions, pt.Demotions = ts.Promotions.Load(), ts.Demotions.Load()
	}
	return pt, nil
}

// MicroBenchSuite measures the table's rows with at most maxP threads,
// in order.
func MicroBenchSuite(o Options, maxP int) (*MicroBench, error) {
	mb := &MicroBench{Benchmark: "samhita-micro"}
	for i, r := range table {
		if r.p > maxP {
			continue
		}
		pt, err := o.measure(r)
		if err != nil {
			return nil, fmt.Errorf("table row %d: %w", i, err)
		}
		mb.Points = append(mb.Points, pt)
	}
	return mb, nil
}

// WriteFile stores the document as indented JSON.
func (mb *MicroBench) WriteFile(path string) error {
	data, err := json.MarshalIndent(mb, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadMicroBench loads a stored document.
func ReadMicroBench(path string) (*MicroBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	mb := &MicroBench{}
	if err := json.Unmarshal(data, mb); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return mb, nil
}

// CheckRegression compares current against baseline point by point,
// matched on configuration. The numbers are virtual-model results over
// the sequenced fabric, so the gate is exact: it returns an error naming
// every point that differs from its baseline in any field, and every
// baseline point with at most maxP threads that current lacks. Current
// points the baseline has never seen pass.
func CheckRegression(baseline, current *MicroBench, maxP int) error {
	cur := make(map[string]MicroPoint, len(current.Points))
	for _, p := range current.Points {
		cur[p.key()] = p
	}
	var bad []string
	for _, b := range baseline.Points {
		c, ok := cur[b.key()]
		switch {
		case !ok && b.P <= maxP:
			bad = append(bad, b.key()+": not measured")
		case ok && c != b:
			bad = append(bad, b.key()+": "+strings.Join(diffFields(b, c), ", "))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("benchmark differs from baseline:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// diffFields names the fields in which cur departs from base.
func diffFields(base, cur MicroPoint) []string {
	var out []string
	vb, vc := reflect.ValueOf(base), reflect.ValueOf(cur)
	for i := 0; i < vb.NumField(); i++ {
		if b, c := vb.Field(i).Interface(), vc.Field(i).Interface(); b != c {
			out = append(out, fmt.Sprintf("%s %v, baseline %v", vb.Type().Field(i).Name, c, b))
		}
	}
	return out
}
