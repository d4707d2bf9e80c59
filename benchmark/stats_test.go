package main

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/vtime"
)

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 0, 10},
		{[]float64{10, 20, 30, 40, 50}, 1, 50},
		{[]float64{10, 20, 30, 40, 50}, 0.25, 20},
		{[]float64{10, 20, 30, 40, 50}, 0.9, 46},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	if median(xs) != 2 || xs[0] != 3 {
		t.Errorf("median must not reorder its input: %v", xs)
	}
}

func TestRateGuardsZero(t *testing.T) {
	if rate(5, 0) != 0 || rate(1, 4) != 0.25 {
		t.Fatal("rate")
	}
}

// A kernel's operations are its thread bodies: p50 is the lower median
// of their times and p99 the nearest-rank 99th percentile.
func TestThreadBodiesPercentiles(t *testing.T) {
	for _, c := range []struct{ p, p50, p99 int }{
		{1, 1, 1}, {2, 1, 2}, {16, 8, 16}, {100, 50, 99}, {256, 128, 254},
	} {
		run := &stats.Run{Threads: make([]stats.Thread, c.p)}
		for i := range run.Threads {
			// Thread i takes p-i virtual ns, so the sorted times are 1..p.
			run.Threads[i].ComputeTime = vtime.Time(c.p - i - 1)
			run.Threads[i].SyncTime = 1
		}
		o := threadBodies(run)
		if o.attempted != int64(c.p) || o.samples != uint64(c.p) || o.opP50 != int64(c.p50) || o.opP99 != int64(c.p99) || o.opMax != int64(c.p) {
			t.Errorf("P=%d: attempted %d samples %d p50 %d p99 %d max %d, want p50 %d p99 %d",
				c.p, o.attempted, o.samples, o.opP50, o.opP99, o.opMax, c.p50, c.p99)
		}
	}
}
