package conformance

import (
	"fmt"

	"repro/internal/apps/forkstorm"
	"repro/internal/stats"
	"repro/internal/vm"
)

// ForkStormCheck drives the fork-storm workload on a booted runtime and
// verifies the snapshot/fork chaos contract: the run completes, every
// fork is accounted for (completed plus errored equals the requested
// storm size — none silently dropped), every completed fork read
// bit-exact sealed values and kept its private copy-on-write writes
// (the workload panics on any mismatch, which Recover mode converts
// into a counted error), and errors stay bounded at maxErrorFrac of
// the storm. Faults the retry/failover machinery masks completely cost
// nothing; only forks it could not save count against the cap.
//
// It is shared by the fork chaos conformance tests and
// samhita-conform's -forkstorm mode, and returns the run's stats too.
func ForkStormCheck(v vm.VM, p int, prm forkstorm.Params, maxErrorFrac float64) ([]Violation, *stats.Run, error) {
	prm = prm.WithDefaults()
	prm.Recover = true
	res, err := forkstorm.Run(v, p, prm)
	if err != nil {
		return nil, nil, err
	}
	var viols []Violation
	if got, want := res.Forks+res.Errors, int64(prm.Forks); got != want {
		viols = append(viols, Violation{Thread: -1, What: fmt.Sprintf(
			"fork conservation violated: %d completed + %d errored != %d requested",
			res.Forks, res.Errors, want)})
	}
	if float64(res.Errors) > maxErrorFrac*float64(prm.Forks) {
		viols = append(viols, Violation{Thread: -1, What: fmt.Sprintf(
			"unbounded fork errors: %d of %d forks failed (cap %.0f%%)",
			res.Errors, prm.Forks, maxErrorFrac*100)})
	}
	return viols, res.Run, nil
}
