package samhita_test

// One testing.B benchmark per result figure of the paper (Figures 3-13)
// plus micro-operation benchmarks for the runtime's primitive costs.
//
// Figure benchmarks run the corresponding experiment at reduced (Quick)
// scale — the full paper-scale sweep is cmd/samhita-bench's job — and
// report the headline virtual-time metric of that figure via
// b.ReportMetric, so `go test -bench=.` shows both the harness's real
// cost and the modelled result it reproduces.

import (
	"testing"

	samhita "repro"
	"repro/internal/apps/kernels"
	"repro/internal/bench"
)

func benchFigure(b *testing.B, id int, metric func(*samhita.Figure) (float64, string)) {
	o := samhita.QuickBench()
	var fig *samhita.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = samhita.RunFigure(id, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	if metric != nil {
		v, unit := metric(fig)
		b.ReportMetric(v, unit)
	}
}

// lastY reports the final point of the named series.
func lastY(fig *samhita.Figure, label string) float64 {
	for _, s := range fig.Series {
		if s.Label == label {
			return s.Points[len(s.Points)-1].Y
		}
	}
	return 0
}

func BenchmarkFig03NormalizedComputeLocal(b *testing.B) {
	benchFigure(b, 3, func(f *samhita.Figure) (float64, string) {
		return lastY(f, "smh, M=10"), "norm-compute"
	})
}

func BenchmarkFig04NormalizedComputeGlobal(b *testing.B) {
	benchFigure(b, 4, func(f *samhita.Figure) (float64, string) {
		return lastY(f, "smh, M=10"), "norm-compute"
	})
}

func BenchmarkFig05NormalizedComputeStrided(b *testing.B) {
	benchFigure(b, 5, func(f *samhita.Figure) (float64, string) {
		return lastY(f, "smh, M=10"), "norm-compute"
	})
}

func BenchmarkFig06ComputeVsCoresLocal(b *testing.B) {
	benchFigure(b, 6, func(f *samhita.Figure) (float64, string) {
		return lastY(f, "S=2") * 1e6, "compute-us"
	})
}

func BenchmarkFig07ComputeVsCoresGlobal(b *testing.B) {
	benchFigure(b, 7, func(f *samhita.Figure) (float64, string) {
		return lastY(f, "S=2") * 1e6, "compute-us"
	})
}

func BenchmarkFig08ComputeVsCoresStrided(b *testing.B) {
	benchFigure(b, 8, func(f *samhita.Figure) (float64, string) {
		return lastY(f, "S=2") * 1e6, "compute-us"
	})
}

func BenchmarkFig09ComputeVsOrdinaryRegion(b *testing.B) {
	benchFigure(b, 9, func(f *samhita.Figure) (float64, string) {
		return lastY(f, "strided") * 1e6, "compute-us"
	})
}

func BenchmarkFig10SyncVsOrdinaryRegion(b *testing.B) {
	benchFigure(b, 10, func(f *samhita.Figure) (float64, string) {
		return lastY(f, "strided") * 1e6, "sync-us"
	})
}

func BenchmarkFig11SyncVsCores(b *testing.B) {
	benchFigure(b, 11, func(f *samhita.Figure) (float64, string) {
		return lastY(f, "smh_local") * 1e6, "sync-us"
	})
}

func BenchmarkFig12JacobiSpeedup(b *testing.B) {
	benchFigure(b, 12, func(f *samhita.Figure) (float64, string) {
		return lastY(f, "samhita"), "speedup"
	})
}

func BenchmarkFig13MDSpeedup(b *testing.B) {
	benchFigure(b, 13, func(f *samhita.Figure) (float64, string) {
		return lastY(f, "samhita"), "speedup"
	})
}

// ---------------------------------------------------------------------
// Ablation benchmarks (the design-choice studies of DESIGN.md §6).

func benchAblation(b *testing.B, name string) {
	o := bench.Quick()
	run := bench.AblationRunners[name]
	var a *bench.Ablation
	var err error
	for i := 0; i < b.N; i++ {
		a, err = run(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(a.Results) > 1 {
		// Report the ratio of the first variant's total time to the
		// last's — the headline effect size of the ablation.
		first := a.Results[0].Compute + a.Results[0].Sync
		last := a.Results[len(a.Results)-1].Compute + a.Results[len(a.Results)-1].Sync
		if last > 0 {
			b.ReportMetric(first/last, "x-vs-baseline")
		}
	}
}

func BenchmarkAblationPrefetch(b *testing.B) { benchAblation(b, "prefetch") }
func BenchmarkAblationLineSize(b *testing.B) { benchAblation(b, "linesize") }
func BenchmarkAblationStriping(b *testing.B) { benchAblation(b, "striping") }
func BenchmarkAblationFabric(b *testing.B)   { benchAblation(b, "fabric") }

// ---------------------------------------------------------------------
// Micro-operation benchmarks: the primitive costs of the runtime.

func BenchmarkOpPageFault(b *testing.B) {
	rt, err := samhita.New(samhita.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	_, err = rt.Run(1, func(t samhita.Thread) {
		// Twice the cache capacity in lines: cycling through them makes
		// every access a genuine miss with eviction, at any b.N.
		nLines := 2 * rt.Config().CacheLines
		a := t.GlobalAlloc(nLines * rt.Config().Geo.LineSize())
		line := samhita.Addr(rt.Config().Geo.LineSize())
		b.ResetTimer()
		start := t.Clock()
		for i := 0; i < b.N; i++ {
			t.ReadFloat64(a + samhita.Addr(i%nLines)*line)
		}
		b.ReportMetric(float64(t.Clock()-start)/float64(b.N), "vns/fault")
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkOpCacheHit(b *testing.B) {
	rt, err := samhita.New(samhita.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	_, err = rt.Run(1, func(t samhita.Thread) {
		a := t.Malloc(4096)
		t.WriteFloat64(a, 1)
		b.ResetTimer()
		start := t.Clock()
		for i := 0; i < b.N; i++ {
			t.ReadFloat64(a)
		}
		b.ReportMetric(float64(t.Clock()-start)/float64(b.N), "vns/hit")
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkOpLockUnlock(b *testing.B) {
	rt, err := samhita.New(samhita.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	mu := rt.NewMutex()
	_, err = rt.Run(1, func(t samhita.Thread) {
		b.ResetTimer()
		start := t.Clock()
		for i := 0; i < b.N; i++ {
			mu.Lock(t)
			mu.Unlock(t)
		}
		b.ReportMetric(float64(t.Clock()-start)/float64(b.N), "vns/lock-pair")
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkOpBarrier8(b *testing.B) {
	rt, err := samhita.New(samhita.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	const p = 8
	bar := rt.NewBarrier(p)
	run, err := rt.Run(p, func(t samhita.Thread) {
		for i := 0; i < b.N; i++ {
			bar.Wait(t)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(run.MaxSyncTime())/float64(b.N), "vns/barrier")
}

func BenchmarkOpDiffRelease(b *testing.B) {
	rt, err := samhita.New(samhita.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	bar := rt.NewBarrier(1)
	_, err = rt.Run(1, func(t samhita.Thread) {
		a := t.Malloc(4096)
		b.ResetTimer()
		start := t.Clock()
		for i := 0; i < b.N; i++ {
			t.WriteFloat64(a, float64(i)) // dirty one page (twin + diff)
			bar.Wait(t)                   // release: diff + notice
		}
		b.ReportMetric(float64(t.Clock()-start)/float64(b.N), "vns/dirty-release")
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkKernelMicroStrided(b *testing.B) {
	rt, err := samhita.New(samhita.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	prm := kernels.MicroParams{N: 2, M: 5, S: 2, B: 128, Mode: kernels.AllocStrided}
	for i := 0; i < b.N; i++ {
		if _, err := kernels.RunMicro(rt, 4, prm); err != nil {
			b.Fatal(err)
		}
	}
}
