package main

import (
	"fmt"

	"repro/internal/apps/kv"
	"repro/internal/core"
)

// The open-loop KV workloads report the highest offered rate that still
// meets a latency limit. Rates come from a fixed ladder of per-client
// inter-arrival gaps (ascending rate); with 16 clients the offered rate
// of a rung is 16 / gap.
var gapLadderNs = []int64{20000, 16400, 13500, 11000, 9100, 7400, 6100, 5000}

const (
	ladderClients = 16
	ladderOps     = 1000   // requests per client in one probe
	sloP99Ns      = 50000  // p99 limit, from scheduled arrival
	sloMaxNs      = 200000 // worst request: a growing backlog breaks this first
)

// highestPassing returns the index of the last rung for which ok holds,
// assuming ok is monotone (true up to some rung, false after), or -1
// when even rung 0 fails. It probes by bisection.
func highestPassing(n int, ok func(i int) (bool, error)) (int, error) {
	lo, hi := -1, n // ok holds at lo (or lo == -1), fails at hi (or hi == n)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		pass, err := ok(mid)
		if err != nil {
			return -1, err
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// rateAtSLO probes the ladder on fresh tFull runtimes and returns the
// highest rate in requests per virtual second that meets the limit (0
// when no rung does). The probes are sequenced runs: the answer is exact
// for a seed.
func rateAtSLO(seed uint64, getPct int) (float64, error) {
	rung, err := highestPassing(len(gapLadderNs), func(i int) (bool, error) {
		rt, err := core.New(tFull())
		if err != nil {
			return false, err
		}
		res, err := kv.Run(rt, ladderClients, kvParams(seed, getPct, ladderOps, gapLadderNs[i]))
		if cerr := rt.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return false, fmt.Errorf("rate probe at gap %d ns: %w", gapLadderNs[i], err)
		}
		complete := res.Ops == int64(ladderClients*ladderOps) && res.Errors == 0
		return complete && int64(res.P99) <= sloP99Ns && int64(res.MaxLatency) <= sloMaxNs, nil
	})
	if err != nil || rung < 0 {
		return 0, err
	}
	return float64(ladderClients) * 1e9 / float64(gapLadderNs[rung]), nil
}

// probeRate finds an open-loop KV workload's highest rate within the
// latency limit; other workloads have none.
func (m *measurement) probeRate() error {
	if j, ok := m.job.(*kvJob); ok {
		r, err := rateAtSLO(m.seed, j.prm.GetPct)
		if err != nil {
			return fmt.Errorf("%s: %w", m.w.name, err)
		}
		m.rateAtSLO = r
	}
	return nil
}
