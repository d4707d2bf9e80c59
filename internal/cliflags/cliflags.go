// Package cliflags declares, once, the command-line flags that describe
// a Samhita runtime. A command registers the groups it wants on its
// flag set, builds the core.Config it would boot with no flags given,
// and calls Apply: only flags the user actually set override that base,
// so the defaults live in the base (core.DefaultConfig for
// samhita-bench, the per-seed fuzzed config for samhita-conform) and
// nowhere else. The flag defaults registered here are what -help shows
// for the common base.
package cliflags

import (
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/scl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Group selects which flags a command registers.
type Group uint

const (
	// Topology: servers, shards, homes, replicas, tier, prefetch, link.
	Topology Group = 1 << iota
	// OneRun: -transport and -trace bind to a single runtime (a TCP
	// factory owns its sockets, a trace is one file), so only commands
	// that boot one runtime per Apply register them.
	OneRun
	// Faults: seeded drops, delays and duplicate responses.
	Faults
	// Kills: scripted crashes and the warm standbys that survive them.
	Kills
)

// Groups lists every group with the name samhita-info prints for it.
var Groups = []struct {
	Group Group
	Name  string
}{
	{Topology, "topology, tier, prefetch, link"},
	{OneRun, "transport and trace (one runtime per invocation)"},
	{Faults, "fault injection (masked by the retry layer)"},
	{Kills, "kills and warm standbys"},
}

// Flags holds the parsed values; read them after the flag set's Parse.
// The exported ones are what commands branch on themselves.
type Flags struct {
	fs *flag.FlagSet

	servers, serverShards, managerShards, managerReplicas int
	hotBytes                                              int64
	coldPreset, link                                      string
	prefetchDepth                                         int

	transport string
	Trace     string // -trace: where the command writes cfg.Trace

	Faults                          bool // -faults
	faultSeed                       int64
	faultDrop, faultDelay, faultDup float64

	standby               bool
	KillManager           bool // -kill-manager
	killServer, killAfter int
}

// Register declares the flags of the given groups on fs. Declaring a
// group twice panics inside package flag, like any duplicate name.
func Register(fs *flag.FlagSet, groups Group) *Flags {
	f := &Flags{fs: fs, killServer: -1}
	d := core.DefaultConfig()
	if groups&Topology != 0 {
		fs.IntVar(&f.servers, "servers", d.Geo.NumServers, "memory servers")
		fs.IntVar(&f.serverShards, "server-shards", 1, "page shards per memory server")
		fs.IntVar(&f.managerShards, "manager-shards", 1, "synchronization homes inside the manager")
		fs.IntVar(&f.managerReplicas, "manager-replicas", 1, "manager replicas behind the consensus log (1 = unreplicated)")
		fs.Int64Var(&f.hotBytes, "hot-bytes", d.HotBytes, "per-server hot-set budget in bytes; pages past it demote compressed to the cold tier (0 = untiered)")
		fs.StringVar(&f.coldPreset, "cold-preset", vtime.ColdNVMe.Name, "cold-tier cost model: cold-nvme or cold-remote")
		fs.IntVar(&f.prefetchDepth, "prefetch-depth", d.PrefetchDepth, "lines of anticipatory paging per miss (0 = one line ahead)")
		fs.StringVar(&f.link, "link", d.Link.Name, "fabric: qdr-ib, pcie-scif, intra-node")
	}
	if groups&OneRun != 0 {
		fs.StringVar(&f.transport, "transport", "sim", "sim (virtual fabric) or tcp (real loopback sockets)")
		fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON file of the run")
	}
	if groups&Faults != 0 {
		fs.BoolVar(&f.Faults, "faults", false, "inject transport faults (drops, delays, duplicate responses) masked by retries")
		fs.Int64Var(&f.faultSeed, "fault-seed", 1, "fault schedule seed")
		fs.Float64Var(&f.faultDrop, "fault-drop", 0.10, "per-attempt drop probability under -faults")
		fs.Float64Var(&f.faultDelay, "fault-delay", 0.05, "per-attempt delay probability under -faults")
		fs.Float64Var(&f.faultDup, "fault-dup", 0.02, "duplicate-response probability under -faults")
	}
	if groups&Kills != 0 {
		fs.BoolVar(&f.standby, "standby", false, "boot warm-standby memory servers with heartbeat liveness")
		fs.IntVar(&f.killServer, "kill-server", -1, "crash the memory server with this index mid-run; implies -standby, and grows -servers to include the victim")
		fs.BoolVar(&f.KillManager, "kill-manager", false, "crash the manager leader mid-run; needs -manager-replicas > 1 to survive")
		fs.IntVar(&f.killAfter, "kill-after", 30, "send attempts to the victim before a kill fires")
	}
	return f
}

// Chaos reports whether the flags ask for faults or kills: such a run
// leaves the sequenced fabric and may answer requests with errors.
func (f *Flags) Chaos() bool { return f.Faults || f.killServer >= 0 || f.KillManager }

// Apply overrides, on the base configuration and fault schedule the
// caller supplies, only what the set flags name. A base retry policy,
// liveness block, seed or partition list is kept; Apply adds the
// default retry policy and a liveness block only where a flag needs
// one and the base has none. The caller boots a fresh injector per
// runtime from sched when sched.Active().
func (f *Flags) Apply(cfg *core.Config, sched *faultnet.Config) error {
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })

	if set["servers"] {
		cfg.Geo.NumServers = f.servers
	}
	if set["server-shards"] {
		cfg.ServerShards = f.serverShards
	}
	if set["manager-shards"] {
		cfg.ManagerShards = f.managerShards
	}
	if set["manager-replicas"] {
		cfg.ManagerReplicas = f.managerReplicas
	}
	if set["hot-bytes"] {
		cfg.HotBytes = f.hotBytes
	}
	if set["cold-preset"] {
		cfg.ColdPreset = f.coldPreset
	}
	if set["prefetch-depth"] {
		cfg.PrefetchDepth = f.prefetchDepth
	}
	if set["link"] {
		link, ok := vtime.LinkPreset(f.link)
		if !ok {
			return fmt.Errorf("unknown link %q", f.link)
		}
		cfg.Link = link
	}
	if set["transport"] {
		switch f.transport {
		case "sim":
			cfg.Transport = nil
		case "tcp":
			cfg.Transport = scl.NewTCPFactory(cfg.Link)
		default:
			return fmt.Errorf("unknown transport %q", f.transport)
		}
	}
	if set["trace"] {
		cfg.Trace = trace.NewCollector(0)
	}

	if f.Faults {
		sched.DropProb, sched.DelayProb, sched.DupProb = f.faultDrop, f.faultDelay, f.faultDup
	}
	if set["fault-seed"] {
		sched.Seed = f.faultSeed
	}
	if f.killServer >= 0 {
		if f.killServer >= cfg.Geo.NumServers {
			cfg.Geo.NumServers = f.killServer + 1
		}
		sched.Kills = append(sched.Kills, faultnet.Kill{Node: core.ServerNode(f.killServer), After: f.killAfter})
	}
	if f.KillManager {
		// The leader dies once real sync traffic has reached it; with
		// replicas the promoted follower replays the log.
		sched.Kills = append(sched.Kills, faultnet.Kill{Node: core.ManagerNode(), After: f.killAfter})
	}
	if f.standby || f.killServer >= 0 || f.KillManager {
		if cfg.Liveness == nil {
			cfg.Liveness = &core.LivenessConfig{}
		}
		// Warm standbys + heartbeat membership: a killed primary fails
		// over to its standby.
		cfg.Liveness.Standby = cfg.Liveness.Standby || f.standby || f.killServer >= 0
		// A generous lease keeps the manager-failover stall from
		// fencing live threads.
		if f.KillManager && cfg.Liveness.MissedBeats < 25 {
			cfg.Liveness.MissedBeats = 25
		}
	}
	if (sched.Active() || cfg.Liveness != nil) && cfg.Retry == nil {
		pol := scl.DefaultRetryPolicy
		cfg.Retry = &pol
	}
	return nil
}
