package conformance

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vm"
)

// A compute thread whose body panics fails the run instead of hanging
// it: the runtime reports the death and the manager reaps the thread as
// it reaps one whose lease ran out, so the peers parked at the barrier
// it never reaches are released or failed with proto.ErrPeerDied, and
// Run returns the panic. Without liveness, with four manager homes, and
// with three manager replicas (the reap rides the replicated log).
func TestPanickingThreadFailsTheRun(t *testing.T) {
	cases := []struct {
		name string
		set  func(*core.Config)
	}{
		{"one home", func(*core.Config) {}},
		{"four homes", func(cfg *core.Config) { cfg.ManagerShards = 4 }},
		{"three replicas", func(cfg *core.Config) {
			cfg.ManagerReplicas = 3
			cfg.Liveness = &core.LivenessConfig{HeartbeatEvery: 2 * time.Millisecond, MissedBeats: 25}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bounded(t, 30*time.Second, func() {
				cfg := core.DefaultConfig()
				tc.set(&cfg)
				rt, err := core.New(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				defer rt.Close()
				const p = 4
				boom := errors.New("boom")
				bar := rt.NewBarrier(p)
				mu := rt.NewMutex()
				_, err = rt.Run(p, func(th vm.Thread) {
					bar.Wait(th)
					if th.ID() == 2 {
						mu.Lock(th) // dies holding the lock too
						panic(fmt.Errorf("thread %d: %w", th.ID(), boom))
					}
					for i := 0; i < 3; i++ {
						bar.Wait(th)
						mu.Lock(th)
						mu.Unlock(th)
					}
				})
				if !errors.Is(err, boom) {
					t.Errorf("Run returned %v, want the panic", err)
				}
			})
		})
	}
}
