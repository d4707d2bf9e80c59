package bench

import (
	"fmt"

	"repro/internal/apps/kernels"
	"repro/internal/stats"
	"repro/internal/vm"
)

// runMicro executes one micro-benchmark configuration on a fresh
// backend instance and returns the run statistics.
func (o Options) runMicroSamhita(p int, prm kernels.MicroParams) (*stats.Run, error) {
	smh, err := o.newSamhita()
	if err != nil {
		return nil, err
	}
	defer smh.Close()
	res, err := kernels.RunMicro(smh, p, prm)
	if err != nil {
		return nil, err
	}
	o.aggregate(res.Run)
	return res.Run, nil
}

// aggregate folds a Samhita run's per-thread counters into the shared
// sweep-wide collector, when one is configured.
func (o Options) aggregate(r *stats.Run) {
	if o.Agg != nil {
		o.Agg.Threads = append(o.Agg.Threads, r.Threads...)
	}
}

func (o Options) runMicroPthreads(p int, prm kernels.MicroParams) (*stats.Run, error) {
	pth := o.newPthreads()
	defer pth.Close()
	res, err := kernels.RunMicro(pth, p, prm)
	if err != nil {
		return nil, err
	}
	return res.Run, nil
}

func (o Options) microParams(m, s int, mode kernels.AllocMode) kernels.MicroParams {
	return kernels.MicroParams{N: o.N, M: m, S: s, B: o.B, Mode: mode}
}

// pthreads1ThreadCompute is the normalization denominator the paper
// uses for Figures 3-5: the equivalent 1-thread Pthreads compute time.
func (o Options) pthreads1ThreadCompute(prm kernels.MicroParams) (float64, error) {
	prm.Mode = kernels.AllocLocal // 1-thread: modes are equivalent
	run, err := o.runMicroPthreads(1, prm)
	if err != nil {
		return 0, err
	}
	return perThreadCompute(run), nil
}

// normalizedComputeFigure builds Figures 3, 4 and 5: normalized compute
// time vs cores for Pthreads (up to 8) and Samhita (up to 32), one
// curve pair per M in the sweep, at the given allocation mode.
func (o Options) normalizedComputeFigure(id int, mode kernels.AllocMode) (*Figure, error) {
	f := &Figure{
		ID:     fmt.Sprintf("fig%02d", id),
		Title:  fmt.Sprintf("Normalized compute time vs. cores, %s allocation", mode),
		XLabel: "cores",
	}
	for _, m := range o.Ms {
		prm := o.microParams(m, o.MidS, mode)
		denom, err := o.pthreads1ThreadCompute(prm)
		if err != nil {
			return nil, err
		}
		pth := Series{Label: fmt.Sprintf("pth, M=%d", m)}
		for _, p := range o.PthCores {
			run, err := o.runMicroPthreads(p, prm)
			if err != nil {
				return nil, err
			}
			pth.Points = append(pth.Points, Point{X: float64(p), Y: perThreadCompute(run) / denom})
		}
		smh := Series{Label: fmt.Sprintf("smh, M=%d", m)}
		for _, p := range o.SmhCores {
			run, err := o.runMicroSamhita(p, prm)
			if err != nil {
				return nil, err
			}
			smh.Points = append(smh.Points, Point{X: float64(p), Y: perThreadCompute(run) / denom})
		}
		f.Series = append(f.Series, pth, smh)
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("N=%d B=%d S=%d; compute time is per thread (max), normalized to the 1-thread pthreads run", o.N, o.B, o.MidS))
	return f, nil
}

// Figure3 — normalized compute time vs cores, local allocation.
func Figure3(o Options) (*Figure, error) {
	return o.normalizedComputeFigure(3, kernels.AllocLocal)
}

// Figure4 — normalized compute time vs cores, global allocation.
func Figure4(o Options) (*Figure, error) {
	return o.normalizedComputeFigure(4, kernels.AllocGlobal)
}

// Figure5 — normalized compute time vs cores, global strided access.
func Figure5(o Options) (*Figure, error) {
	return o.normalizedComputeFigure(5, kernels.AllocStrided)
}

// computeVsCoresFigure builds Figures 6, 7 and 8: Samhita compute time
// (seconds) vs cores, one curve per S, at fixed M.
func (o Options) computeVsCoresFigure(id int, mode kernels.AllocMode) (*Figure, error) {
	f := &Figure{
		ID:     fmt.Sprintf("fig%02d", id),
		Title:  fmt.Sprintf("Compute time vs. cores, %s allocation, varying S", mode),
		XLabel: "cores",
	}
	for _, s := range o.Ss {
		prm := o.microParams(o.MidM, s, mode)
		ser := Series{Label: fmt.Sprintf("S=%d", s)}
		for _, p := range o.SmhCores {
			run, err := o.runMicroSamhita(p, prm)
			if err != nil {
				return nil, err
			}
			ser.Points = append(ser.Points, Point{X: float64(p), Y: perThreadCompute(run)})
		}
		f.Series = append(f.Series, ser)
	}
	f.Notes = append(f.Notes, fmt.Sprintf("Samhita only; N=%d B=%d M=%d", o.N, o.B, o.MidM))
	return f, nil
}

// Figure6 — compute time vs cores for local allocation, S sweep.
func Figure6(o Options) (*Figure, error) {
	return o.computeVsCoresFigure(6, kernels.AllocLocal)
}

// Figure7 — compute time vs cores for global allocation, S sweep.
func Figure7(o Options) (*Figure, error) {
	return o.computeVsCoresFigure(7, kernels.AllocGlobal)
}

// Figure8 — compute time vs cores for global strided access, S sweep.
func Figure8(o Options) (*Figure, error) {
	return o.computeVsCoresFigure(8, kernels.AllocStrided)
}

// vsOrdinaryRegionFigure builds Figures 9 and 10: a metric vs S at the
// fixed thread count, one curve per allocation mode.
func (o Options) vsOrdinaryRegionFigure(id int, metric func(*stats.Run) float64, what string) (*Figure, error) {
	f := &Figure{
		ID:     fmt.Sprintf("fig%02d", id),
		Title:  fmt.Sprintf("%s vs. ordinary region size (S), P=%d", what, o.FixedP),
		XLabel: "rows of data (S)",
	}
	for _, mode := range kernels.AllModes {
		ser := Series{Label: mode.String()}
		for _, s := range o.Ss {
			run, err := o.runMicroSamhita(o.FixedP, o.microParams(o.MidM, s, mode))
			if err != nil {
				return nil, err
			}
			ser.Points = append(ser.Points, Point{X: float64(s), Y: metric(run)})
		}
		f.Series = append(f.Series, ser)
	}
	f.Notes = append(f.Notes, fmt.Sprintf("Samhita only; N=%d B=%d M=%d P=%d", o.N, o.B, o.MidM, o.FixedP))
	return f, nil
}

// Figure9 — compute time vs S at P=16 for the three modes.
func Figure9(o Options) (*Figure, error) {
	return o.vsOrdinaryRegionFigure(9, perThreadCompute, "Compute time")
}

// Figure10 — synchronization time vs S at P=16 for the three modes.
func Figure10(o Options) (*Figure, error) {
	return o.vsOrdinaryRegionFigure(10, perThreadSync, "Synchronization time")
}

// Figure11 — synchronization time (log scale in the paper) vs cores for
// Pthreads and Samhita under the three modes, M and S fixed.
func Figure11(o Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig11",
		Title:  "Synchronization time vs. cores (log scale), pthreads vs samhita",
		XLabel: "cores",
	}
	for _, mode := range kernels.AllModes {
		prm := o.microParams(o.MidM, o.MidS, mode)
		pth := Series{Label: "pth_" + mode.String()}
		for _, p := range o.PthCores {
			run, err := o.runMicroPthreads(p, prm)
			if err != nil {
				return nil, err
			}
			pth.Points = append(pth.Points, Point{X: float64(p), Y: perThreadSync(run)})
		}
		smh := Series{Label: "smh_" + mode.String()}
		for _, p := range o.SmhCores {
			run, err := o.runMicroSamhita(p, prm)
			if err != nil {
				return nil, err
			}
			smh.Points = append(smh.Points, Point{X: float64(p), Y: perThreadSync(run)})
		}
		f.Series = append(f.Series, pth, smh)
	}
	f.Notes = append(f.Notes, fmt.Sprintf("N=%d B=%d M=%d S=%d; plot on a log axis", o.N, o.B, o.MidM, o.MidS))
	return f, nil
}

// speedupFigure builds Figures 12 and 13: strong-scaling speedup of
// both backends relative to the 1-core Pthreads total time.
func (o Options) speedupFigure(id int, name string,
	run func(v vm.VM, p int) (*stats.Run, error)) (*Figure, error) {
	f := &Figure{
		ID:     fmt.Sprintf("fig%02d", id),
		Title:  fmt.Sprintf("%s speedup vs. cores (relative to 1-core pthreads)", name),
		XLabel: "cores",
	}
	pthVM := o.newPthreads()
	base, err := run(pthVM, 1)
	pthVM.Close()
	if err != nil {
		return nil, err
	}
	baseT := seconds(base.MaxTotalTime())

	pth := Series{Label: "pthreads"}
	for _, p := range o.PthCores {
		v := o.newPthreads()
		r, err := run(v, p)
		v.Close()
		if err != nil {
			return nil, err
		}
		pth.Points = append(pth.Points, Point{X: float64(p), Y: baseT / seconds(r.MaxTotalTime())})
	}
	smh := Series{Label: "samhita"}
	for _, p := range o.SmhCores {
		v, err := o.newSamhita()
		if err != nil {
			return nil, err
		}
		r, err := run(v, p)
		v.Close()
		if err != nil {
			return nil, err
		}
		o.aggregate(r)
		smh.Points = append(smh.Points, Point{X: float64(p), Y: baseT / seconds(r.MaxTotalTime())})
	}
	f.Series = append(f.Series, pth, smh)
	return f, nil
}

// Figure12 — Jacobi strong-scaling speedup.
func Figure12(o Options) (*Figure, error) {
	prm := kernels.JacobiParams{N: o.JacobiN, Iters: o.JacobiIters}
	f, err := o.speedupFigure(12, "Jacobi", func(v vm.VM, p int) (*stats.Run, error) {
		res, err := kernels.RunJacobi(v, p, prm)
		if err != nil {
			return nil, err
		}
		return res.Run, nil
	})
	if err != nil {
		return nil, err
	}
	f.Notes = append(f.Notes, fmt.Sprintf("grid %dx%d, %d sweeps, 1 mutex + 3 barriers per iteration", o.JacobiN, o.JacobiN, o.JacobiIters))
	return f, nil
}

// Figure13 — molecular dynamics strong-scaling speedup.
func Figure13(o Options) (*Figure, error) {
	prm := kernels.MDParams{NParticles: o.MDParticles, Steps: o.MDSteps, Dt: 1e-4, Mass: 1}
	f, err := o.speedupFigure(13, "Molecular dynamics", func(v vm.VM, p int) (*stats.Run, error) {
		res, err := kernels.RunMD(v, p, prm)
		if err != nil {
			return nil, err
		}
		return res.Run, nil
	})
	if err != nil {
		return nil, err
	}
	f.Notes = append(f.Notes, fmt.Sprintf("%d particles, %d velocity-Verlet steps, O(n) work per particle", o.MDParticles, o.MDSteps))
	return f, nil
}

// Figures maps figure numbers to their runners.
var Figures = map[int]func(Options) (*Figure, error){
	3: Figure3, 4: Figure4, 5: Figure5,
	6: Figure6, 7: Figure7, 8: Figure8,
	9: Figure9, 10: Figure10, 11: Figure11,
	12: Figure12, 13: Figure13,
}

// FigureIDs lists the available figure numbers in order.
func FigureIDs() []int {
	return []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
}

// Run executes one figure by number.
func Run(id int, o Options) (*Figure, error) {
	fn, ok := Figures[id]
	if !ok {
		return nil, fmt.Errorf("bench: no figure %d (have 3-13)", id)
	}
	return fn(o)
}
