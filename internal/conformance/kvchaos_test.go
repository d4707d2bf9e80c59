package conformance

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/apps/kv"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/scl"
)

// kvChaosParams is the burst the serving-layer chaos tests offer: 8
// clients, 32 requests each, against a 32-bucket store.
func kvChaosParams(seed uint64) kv.Params {
	return kv.Params{Buckets: 32, Keys: 256, Ops: 32, Seed: seed}
}

// TestKVChaosManagerLeaderKill crashes the manager leader in the middle
// of the KV service's request burst: lock acquisitions, allocations and
// write-notice traffic all fail over to a promoted replica while
// clients hold open requests. The service must finish with every acked
// write present exactly once and zero error responses — the
// failover machinery, not the Recover escape hatch, absorbs the crash.
func TestKVChaosManagerLeaderKill(t *testing.T) {
	bounded(t, 30*time.Second, func() { kVChaosManagerLeaderKill(t) })
}

func kVChaosManagerLeaderKill(t *testing.T) {
	goroutines := runtime.NumGoroutine()

	cfg := core.DefaultConfig()
	cfg.ManagerShards = 2
	cfg.ManagerReplicas = 3
	cfg.Liveness = &core.LivenessConfig{
		HeartbeatEvery: 2 * time.Millisecond,
		MissedBeats:    25,
	}
	cfg.Retry = &scl.RetryPolicy{
		MaxAttempts: 8,
		Backoff:     50 * time.Microsecond,
		BackoffCap:  time.Millisecond,
	}
	inj := faultnet.New(faultnet.Config{
		Seed:  271,
		Kills: []faultnet.Kill{{Node: core.ManagerNode(), After: 40}},
	})
	cfg.Faults = inj
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	viols, runErr := KVCheck(rt, 8, kvChaosParams(3), 0)
	if runErr != nil {
		t.Fatalf("manager-leader kill leaked to the KV service: %v", runErr)
	}
	for _, v := range viols {
		t.Errorf("serving contract violated across manager failover: %s", v.What)
	}
	if rt.NetStats().InjectedKills.Load() == 0 {
		t.Fatal("leader never killed — chaos scenario is vacuous")
	}
	if rt.Liveness().MgrFailovers.Load() == 0 {
		t.Error("no manager failover recorded")
	}
	if err := rt.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitGoroutines(t, goroutines+2)
}

// TestKVChaosServerKill crashes the memory server holding the KV
// buckets mid-burst; the warm standby must take over and the service
// must lose no acked write. Like the leader-kill case the error budget
// is zero: primary failover is supposed to be invisible to clients.
func TestKVChaosServerKill(t *testing.T) {
	bounded(t, 30*time.Second, func() { kVChaosServerKill(t) })
}

func kVChaosServerKill(t *testing.T) {
	goroutines := runtime.NumGoroutine()

	cfg := core.DefaultConfig()
	cfg.Geo.NumServers = 2
	cfg.Liveness = &core.LivenessConfig{Standby: true}
	cfg.Retry = &scl.RetryPolicy{
		MaxAttempts: 10,
		Backoff:     50 * time.Microsecond,
		BackoffCap:  2 * time.Millisecond,
	}
	inj := faultnet.New(faultnet.Config{
		Seed:  613,
		Kills: []faultnet.Kill{{Node: core.ServerNode(0), After: 30}},
	})
	cfg.Faults = inj
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	viols, runErr := KVCheck(rt, 8, kvChaosParams(5), 0)
	if runErr != nil {
		t.Fatalf("memory-server kill leaked to the KV service: %v", runErr)
	}
	for _, v := range viols {
		t.Errorf("serving contract violated across server failover: %s", v.What)
	}
	if rt.NetStats().InjectedKills.Load() == 0 {
		t.Fatal("server never killed — chaos scenario is vacuous")
	}
	if rt.Liveness().Failovers.Load() == 0 {
		t.Error("no server failover recorded")
	}
	if err := rt.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitGoroutines(t, goroutines+2)
}

// TestKVChaosBothKills runs the full gauntlet: the bucket-holding
// memory server AND the manager leader die during one burst. Warm
// standby plus log-replicated manager replicas must mask both; the
// acked set stays conserved and error responses stay within the
// Recover budget (faults this violent can surface a small number of
// bounded error responses, never a lost acked write).
func TestKVChaosBothKills(t *testing.T) {
	bounded(t, 30*time.Second, func() { kVChaosBothKills(t) })
}

func kVChaosBothKills(t *testing.T) {
	goroutines := runtime.NumGoroutine()

	cfg := core.DefaultConfig()
	cfg.Geo.NumServers = 2
	cfg.ManagerShards = 2
	cfg.ManagerReplicas = 3
	cfg.Liveness = &core.LivenessConfig{
		Standby:        true,
		HeartbeatEvery: 2 * time.Millisecond,
		MissedBeats:    25,
	}
	cfg.Retry = &scl.RetryPolicy{
		MaxAttempts: 10,
		Backoff:     50 * time.Microsecond,
		BackoffCap:  2 * time.Millisecond,
	}
	inj := faultnet.New(faultnet.Config{
		Seed: 881,
		Kills: []faultnet.Kill{
			{Node: core.ServerNode(0), After: 25},
			{Node: core.ManagerNode(), After: 60},
		},
	})
	cfg.Faults = inj
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	viols, runErr := KVCheck(rt, 8, kvChaosParams(7), 0.10)
	if runErr != nil {
		t.Fatalf("double kill leaked to the KV service: %v", runErr)
	}
	for _, v := range viols {
		t.Errorf("serving contract violated under double kill: %s", v.What)
	}
	if got := rt.NetStats().InjectedKills.Load(); got < 2 {
		t.Fatalf("%d kills fired, want 2 — chaos scenario is vacuous", got)
	}
	if err := rt.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitGoroutines(t, goroutines+2)
}
