package main

import (
	"errors"
	"testing"
)

func TestHighestPassingAgainstAMonotoneLatency(t *testing.T) {
	// A synthetic service: p99 latency is flat until the knee, then grows
	// without bound. Whatever the knee, bisection must return the last
	// rung under the limit and probe at most ceil(log2(n+1)) rungs.
	for knee := -1; knee < len(gapLadderNs); knee++ {
		probes := 0
		latency := func(i int) int64 {
			if i <= knee {
				return 15000
			}
			return 15000 + 4000000*int64(i-knee)
		}
		got, err := highestPassing(len(gapLadderNs), func(i int) (bool, error) {
			probes++
			return latency(i) <= sloP99Ns, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != knee {
			t.Errorf("knee at rung %d: got %d", knee, got)
		}
		if probes > 4 {
			t.Errorf("knee at rung %d: %d probes for %d rungs", knee, probes, len(gapLadderNs))
		}
	}
}

func TestHighestPassingStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := highestPassing(8, func(int) (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestLadderRatesAscend(t *testing.T) {
	for i := 1; i < len(gapLadderNs); i++ {
		if gapLadderNs[i] >= gapLadderNs[i-1] {
			t.Fatalf("gap %d ns at rung %d does not raise the rate over %d ns", gapLadderNs[i], i, gapLadderNs[i-1])
		}
	}
	if gapLadderNs[0] != kvGapNs {
		t.Fatalf("rung 0 (%d ns) is not the workloads' own gap (%d ns)", gapLadderNs[0], kvGapNs)
	}
}
