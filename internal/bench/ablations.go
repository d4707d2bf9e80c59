package bench

import (
	"fmt"
	"strings"

	"repro/internal/apps/kernels"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// Ablations isolate the design choices DESIGN.md calls out, beyond the
// paper's own figures: each one runs a workload with a single mechanism
// toggled and reports the same per-thread compute/sync metrics, so the
// contribution of that mechanism is directly visible. Every ablation
// runs the strided micro-benchmark except prefetch, which runs the
// out-of-core STREAM triad.

// AblationResult is one (variant, metric) sample set.
type AblationResult struct {
	Variant string
	Compute float64 // per-thread compute seconds
	Sync    float64 // per-thread sync seconds
	Faults  int64   // demand misses
	Bytes   int64   // bytes received by compute threads
}

// Ablation is a named set of variants.
type Ablation struct {
	ID       string
	Title    string
	Workload string
	Results  []AblationResult
}

// Table renders the ablation as an aligned table.
func (a *Ablation) Table() string {
	rows := [][]string{{"variant", "compute(s)", "sync(s)", "misses", "MB moved"}}
	for _, r := range a.Results {
		rows = append(rows, []string{
			r.Variant,
			fmt.Sprintf("%.4g", r.Compute),
			fmt.Sprintf("%.4g", r.Sync),
			fmt.Sprintf("%d", r.Faults),
			fmt.Sprintf("%.2f", float64(r.Bytes)/1e6),
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\nworkload: %s\n", a.ID, a.Title, a.Workload)
	writeAligned(&sb, rows)
	return sb.String()
}

func sample(variant string, run *stats.Run) AblationResult {
	tot := run.Totals()
	return AblationResult{
		Variant: variant,
		Compute: perThreadCompute(run),
		Sync:    perThreadSync(run),
		Faults:  tot.Misses,
		Bytes:   tot.BytesReceived,
	}
}

// ablationWorkload is the shared configuration: the strided
// micro-benchmark at the mid sweep point, where every mechanism under
// study is active.
func (o Options) ablationWorkload() (kernels.MicroParams, int) {
	return o.microParams(o.MidM, o.MidS, kernels.AllocStrided), o.FixedP
}

func (o Options) runVariant(variant string, prm kernels.MicroParams, p int, overrides ...func(*core.Config)) (AblationResult, error) {
	smh, err := o.newSamhita(overrides...)
	if err != nil {
		return AblationResult{}, err
	}
	defer smh.Close()
	res, err := kernels.RunMicro(smh, p, prm)
	if err != nil {
		return AblationResult{}, err
	}
	return sample(variant, res.Run), nil
}

// AblationPrefetch toggles anticipatory paging (ablation a). The
// workload is the out-of-core STREAM triad, not the micro-benchmark:
// the micro working set is cache-resident after first touch, so the
// sequential streaming pattern — where every line access misses and
// the adjacent line is always next — is where prefetch earns its keep.
func AblationPrefetch(o Options) (*Ablation, error) {
	prm := kernels.StreamParams{Elements: 1 << 17, Iters: 3, Alpha: 3}
	a := &Ablation{
		ID:    "abl-prefetch",
		Title: "Anticipatory paging (adjacent-line prefetch) on/off",
		Workload: fmt.Sprintf("out-of-core stream triad, %d elements x3 arrays, %d passes, 8-line cache",
			prm.Elements, prm.Iters),
	}
	// Two regimes: with few threads the single memory server has
	// headroom and prefetch hides fetch latency; with many threads the
	// server is throughput-saturated and prefetch cannot create
	// bandwidth — both outcomes are the physically right answer.
	for _, p := range []int{2, o.FixedP} {
		for _, on := range []bool{true, false} {
			on := on
			name := fmt.Sprintf("P=%-2d prefetch=off", p)
			if on {
				name = fmt.Sprintf("P=%-2d prefetch=on", p)
			}
			smh, err := o.newSamhita(func(c *core.Config) {
				c.Prefetch = on
				c.CacheLines = 8 // far below the working set: every pass streams
			})
			if err != nil {
				return nil, err
			}
			res, err := kernels.RunStream(smh, p, prm)
			smh.Close()
			if err != nil {
				return nil, err
			}
			a.Results = append(a.Results, sample(name, res.Run))
		}
	}
	return a, nil
}

// AblationLineSize sweeps the cache-line size in pages (ablation b).
func AblationLineSize(o Options) (*Ablation, error) {
	prm, p := o.ablationWorkload()
	a := &Ablation{
		ID:       "abl-linesize",
		Title:    "Cache-line size (pages per line)",
		Workload: fmt.Sprintf("micro strided, N=%d M=%d S=%d B=%d P=%d", prm.N, prm.M, prm.S, prm.B, p),
	}
	for _, lp := range []int{1, 2, 4, 8} {
		lp := lp
		r, err := o.runVariant(fmt.Sprintf("linePages=%d", lp), prm, p,
			func(c *core.Config) { c.Geo.LinePages = lp })
		if err != nil {
			return nil, err
		}
		a.Results = append(a.Results, r)
	}
	return a, nil
}

// AblationStriping compares striped vs single-home page placement with
// several memory servers (ablation c: the hot-spot study).
func AblationStriping(o Options) (*Ablation, error) {
	prm, p := o.ablationWorkload()
	a := &Ablation{
		ID:       "abl-striping",
		Title:    "Striping across memory servers vs single-home hot spot",
		Workload: fmt.Sprintf("micro strided, N=%d M=%d S=%d B=%d P=%d, 4 memory servers", prm.N, prm.M, prm.S, prm.B, p),
	}
	for _, striped := range []bool{true, false} {
		striped := striped
		name := "striped=off (all pages on server 0)"
		if striped {
			name = "striped=on"
		}
		r, err := o.runVariant(name, prm, p, func(c *core.Config) {
			c.Geo.NumServers = 4
			c.Geo.Striped = striped
		})
		if err != nil {
			return nil, err
		}
		a.Results = append(a.Results, r)
	}
	return a, nil
}

// AblationFabric compares the paper's QDR InfiniBand testbed model with
// its future-work PCIe/SCIF target (Section V) and the intra-node
// model (ablation d).
func AblationFabric(o Options) (*Ablation, error) {
	prm, p := o.ablationWorkload()
	a := &Ablation{
		ID:       "abl-fabric",
		Title:    "Interconnect: QDR InfiniBand vs PCIe/SCIF vs intra-node",
		Workload: fmt.Sprintf("micro strided, N=%d M=%d S=%d B=%d P=%d", prm.N, prm.M, prm.S, prm.B, p),
	}
	for _, link := range []vtime.LinkModel{vtime.QDRInfiniBand, vtime.PCIeSCIF, vtime.IntraNode} {
		link := link
		r, err := o.runVariant(link.Name, prm, p, func(c *core.Config) { c.Link = link })
		if err != nil {
			return nil, err
		}
		a.Results = append(a.Results, r)
	}
	return a, nil
}

// AblationShards sweeps the per-server page-shard count (ablation e).
// Strided allocation is the serialization-prone pattern the sharding
// was built for: every thread's rows interleave across servers, so a
// single event loop per server queues all of them behind one calendar.
// Random allocation is the adversarial variant — the fixed permutation
// scatters consecutive rows across shards, maximizing split requests
// and cross-shard join overhead.
func AblationShards(o Options) (*Ablation, error) {
	prm, p := o.ablationWorkload()
	rprm := o.microParams(o.MidM, o.MidS, kernels.AllocRandom)
	a := &Ablation{
		ID:    "abl-shards",
		Title: "Memory-server page shards per server",
		Workload: fmt.Sprintf("micro strided+random, P=%d N=%d M=%d S=%d B=%d",
			p, prm.N, prm.M, prm.S, prm.B),
	}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		for _, v := range []struct {
			mode kernels.AllocMode
			prm  kernels.MicroParams
		}{{kernels.AllocStrided, prm}, {kernels.AllocRandom, rprm}} {
			name := fmt.Sprintf("shards=%d %s", shards, v.mode)
			r, err := o.runVariant(name, v.prm, p,
				func(c *core.Config) { c.ServerShards = shards })
			if err != nil {
				return nil, err
			}
			a.Results = append(a.Results, r)
		}
	}
	return a, nil
}

// AblationRunners maps ablation names to runners.
var AblationRunners = map[string]func(Options) (*Ablation, error){
	"prefetch": AblationPrefetch,
	"linesize": AblationLineSize,
	"striping": AblationStriping,
	"fabric":   AblationFabric,
	"shards":   AblationShards,
}

// AblationNames lists the ablations in a stable order.
func AblationNames() []string {
	return []string{"prefetch", "linesize", "striping", "fabric", "shards"}
}
