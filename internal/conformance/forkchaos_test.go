package conformance

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/forkstorm"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/trace"
)

// forkChaosParams is the storm the snapshot/fork chaos tests drive: a
// 64 KiB sealed image, 24 forks across 8 threads, each verified through
// sealed reads and a private CoW write.
func forkChaosParams() forkstorm.Params {
	return forkstorm.Params{ImageBytes: 64 << 10, Forks: 24, ReadsPerFork: 3, WritesPerFork: 1}
}

// forkChaosConfig is the shared topology: striped small images across
// two tiered memory servers, a sharded replicated manager, and the
// retry policy every chaos test uses.
func forkChaosConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheLines = 256
	cfg.Geo.NumServers = 2
	cfg.ServerShards = 2
	cfg.StripeMin = 4096 // small images still stripe
	cfg.ManagerShards = 2
	cfg.ManagerReplicas = 3
	// A tight hot budget keeps sealed frames moving through the cold
	// tier while the chaos runs, so failover must also carry the tier.
	cfg.HotBytes = 32 << 10
	cfg.Retry = &scl.RetryPolicy{
		MaxAttempts: 10,
		Backoff:     50 * time.Microsecond,
		BackoffCap:  2 * time.Millisecond,
	}
	return cfg
}

// TestForkStormChaosBothKills is the snapshot/fork gauntlet: a memory
// server holding sealed frames AND the manager leader (which owns the
// replicated snapshot/fork allocation state) die while the storm is in
// flight. Warm standby plus the log-replicated manager must mask both:
// every fork is accounted for, every completed fork still reads
// bit-exact sealed values and keeps its private writes, and errors stay
// within the Recover budget — never a sealed-read corruption.
func TestForkStormChaosBothKills(t *testing.T) {
	bounded(t, 30*time.Second, func() { forkStormChaosBothKills(t) })
}

func forkStormChaosBothKills(t *testing.T) {
	goroutines := runtime.NumGoroutine()

	cfg := forkChaosConfig()
	cfg.Liveness = &core.LivenessConfig{
		Standby:        true,
		HeartbeatEvery: 2 * time.Millisecond,
		MissedBeats:    25,
	}
	// Each kill is counted in fork messages, so it lands mid-storm
	// whatever else the run sends: server 0 dies on the ninth ForkMap it
	// is sent, the manager leader on the thirteenth ForkASReq.
	inj := faultnet.New(faultnet.Config{
		Seed: 947,
		Kills: []faultnet.Kill{
			{Node: core.ServerNode(0), After: 8, Kind: proto.KForkMap},
			{Node: core.ManagerNode(), After: 12, Kind: proto.KForkASReq},
		},
	})
	cfg.Faults = inj
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	viols, _, runErr := ForkStormCheck(rt, 8, forkChaosParams(), 0.25)
	if runErr != nil {
		t.Fatalf("double kill leaked to the fork storm: %v", runErr)
	}
	for _, v := range viols {
		t.Errorf("fork contract violated under double kill: %s", v.What)
	}
	if got := rt.NetStats().InjectedKills.Load(); got < 2 {
		t.Fatalf("%d kills fired, want 2 — chaos scenario is vacuous", got)
	}
	// The kills landed while forks were in flight: a client failed over
	// to the standby, and one to the new leader.
	if live := rt.Liveness(); live.Failovers.Load() == 0 || live.MgrFailovers.Load() == 0 {
		t.Fatalf("%d server and %d manager failovers after the kills, want both nonzero — the kills missed the storm",
			live.Failovers.Load(), live.MgrFailovers.Load())
	}
	if err := rt.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitGoroutines(t, goroutines+2)
}

// TestForkStormChaosServerKill crashes only the sealed-frame-holding
// memory server mid-storm; the warm standby received every SealAS and
// ForkMap replica, so forks keep reading bit-exact sealed values across
// the failover. A fork caught mid-handshake by the crash may surface as
// a bounded Recover error; a sealed-read corruption never may.
func TestForkStormChaosServerKill(t *testing.T) {
	bounded(t, 30*time.Second, func() { forkStormChaosServerKill(t) })
}

func forkStormChaosServerKill(t *testing.T) {
	goroutines := runtime.NumGoroutine()

	cfg := forkChaosConfig()
	cfg.ManagerReplicas = 1 // only the server dies here
	// Generous lease: the race detector slows heartbeat goroutines far
	// more than virtual time, and this test is about server failover,
	// not death detection (connection death unsticks the clients).
	cfg.Liveness = &core.LivenessConfig{Standby: true, MissedBeats: 200}
	// Counted in fork messages, as in the double kill: server 0 dies on
	// the ninth ForkMap it is sent, mid-storm.
	inj := faultnet.New(faultnet.Config{
		Seed:  389,
		Kills: []faultnet.Kill{{Node: core.ServerNode(0), After: 8, Kind: proto.KForkMap}},
	})
	cfg.Faults = inj
	cfg.Trace = trace.NewCollector(0)
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	viols, _, runErr := ForkStormCheck(rt, 8, forkChaosParams(), 0.25)
	if runErr != nil {
		t.Fatalf("server kill leaked to the fork storm: %v", runErr)
	}
	for _, v := range viols {
		t.Errorf("fork contract violated across server failover: %s", v.What)
	}
	if rt.NetStats().InjectedKills.Load() == 0 {
		t.Fatal("server never killed — chaos scenario is vacuous")
	}
	// One home died, so one failover; a thread found its fork's ForkMap
	// refused when it joined the ack, and re-issued it to the standby.
	if got := rt.Liveness().Failovers.Load(); got != 1 {
		t.Fatalf("%d failovers to the standby, want the one the kill calls for", got)
	}
	if !slices.ContainsFunc(cfg.Trace.Events(), func(e trace.Event) bool {
		return e.Cat == trace.CatLive && strings.HasPrefix(e.Name, "fork-map re-issued")
	}) {
		t.Fatal("no ForkMap was re-issued at its join — the kill missed the ninth ForkMap")
	}
	if err := rt.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitGoroutines(t, goroutines+2)
}

// TestForkStormEvictionKeepsTheThreadsWrites replays samhita-conform's
// -seed 22 -forkstorm program: two threads on four-line caches with no
// prefetch, so a dirty line evicted during the cold-start copy is
// refetched soon after. Its flush must reach the home before the
// refetch does; a posted flush was overtaken by the refetch's small
// request, and the thread read a zero where it had written.
func TestForkStormEvictionKeepsTheThreadsWrites(t *testing.T) {
	const seed = 22
	cfg := RandomConfig(seed * 31)
	cfg.StripeMin = 4096 // as samhita-conform -forkstorm sets it
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prm := forkstorm.Params{ImageBytes: 64 << 10, Forks: 24, ReadsPerFork: 3, WritesPerFork: 1, Seed: seed + 1}
	viols, _, runErr := ForkStormCheck(rt, Generate(seed).Threads, prm, 0)
	if runErr != nil {
		t.Fatalf("fork storm: %v", runErr)
	}
	for _, v := range viols {
		t.Errorf("fork contract violated: %s", v.What)
	}
	if err := rt.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
