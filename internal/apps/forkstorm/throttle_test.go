package forkstorm_test

import (
	"testing"

	"repro/internal/apps/forkstorm"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/vm"
)

// recordingVM keeps the stats of the last run through it: ForkStormCheck
// reports violations only.
type recordingVM struct {
	*core.Runtime
	run *stats.Run
}

func (v *recordingVM) Run(p int, body func(t vm.Thread)) (*stats.Run, error) {
	run, err := v.Runtime.Run(p, body)
	v.run = run
	return run, err
}

// A fork storm reads a few random lines of each fresh fork, so the line
// after a miss is almost never read: the cache's prefetch throttle must
// stop issuing, and the storm must stay correct and deterministic.
func TestForkStormThrottlesPrefetch(t *testing.T) {
	prm := forkstorm.Params{ImageBytes: 1 << 20, Forks: 300}
	storm := func() *stats.Run {
		cfg := core.DefaultConfig()
		cfg.Geo.NumServers = 4
		cfg.ServerShards = 2
		cfg.HotBytes = 32 << 10
		rt, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		v := &recordingVM{Runtime: rt}
		viols, _, err := conformance.ForkStormCheck(v, 2, prm, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, viol := range viols {
			t.Error(viol)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		return v.run
	}
	r1 := storm()
	tot := r1.Totals()
	if tot.Misses == 0 || 10*tot.PrefetchIssued >= tot.Misses {
		t.Fatalf("%d prefetches issued over %d misses, want under 10%%", tot.PrefetchIssued, tot.Misses)
	}
	r2 := storm()
	for i := range r1.Threads {
		if r1.Threads[i] != r2.Threads[i] {
			t.Errorf("thread %d: stats differ across identical runs:\n%+v\n%+v", i, r1.Threads[i], r2.Threads[i])
		}
	}
}
