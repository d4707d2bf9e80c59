package bench

import (
	"fmt"

	"repro/internal/apps/kernels"
	"repro/internal/core"
	"repro/internal/vm"
)

// ScenarioHeterogeneous is the experiment the paper motivates but could
// not yet run (the MIC port was in progress, Section V): the Figure-1
// node itself. Compute threads execute on a Xeon-Phi-class coprocessor
// — many cores, each ~4x slower than a host core — with the manager and
// memory server on the host, across a PCIe/SCIF-class SCL. The question
// the architecture poses: at how many coprocessor cores does virtual
// shared memory on the card overtake 8 fast host cores with hardware
// coherence?
//
// Both application kernels run unmodified on both sides — the paper's
// programmability argument — and the output is speedup relative to the
// 1-core host baseline, so the host curve tops out at 8 and the
// coprocessor curve crosses it (or fails to) purely on the merits of
// the DSM.
func ScenarioHeterogeneous(o Options) (*Figure, error) {
	f := &Figure{
		ID:     "scn-hetero",
		Title:  "Figure-1 scenario: host cores (pthreads) vs coprocessor cores (Samhita over PCIe/SCIF)",
		XLabel: "cores",
	}
	phiCores := []int{1, 8, 16, 32, 60}

	type kernelSpec struct {
		name string
		run  func(v vm.VM, p int) (float64, error) // returns total seconds
	}
	jac := kernels.JacobiParams{N: o.JacobiN, Iters: o.JacobiIters}
	md := kernels.MDParams{NParticles: o.MDParticles, Steps: o.MDSteps, Dt: 1e-4, Mass: 1}
	// mdBig is the workload class the architecture is aimed at: enough
	// compute per synchronization that 60 slow cores overtake 8 fast
	// ones despite the DSM.
	mdBig := kernels.MDParams{NParticles: 3 * o.MDParticles, Steps: o.MDSteps, Dt: 1e-4, Mass: 1}
	mdRunner := func(prm kernels.MDParams) func(v vm.VM, p int) (float64, error) {
		return func(v vm.VM, p int) (float64, error) {
			res, err := kernels.RunMD(v, p, prm)
			if err != nil {
				return 0, err
			}
			return seconds(res.Run.MaxTotalTime()), nil
		}
	}
	specs := []kernelSpec{
		{"jacobi", func(v vm.VM, p int) (float64, error) {
			res, err := kernels.RunJacobi(v, p, jac)
			if err != nil {
				return 0, err
			}
			return seconds(res.Run.MaxTotalTime()), nil
		}},
		{"md", mdRunner(md)},
		{"mdbig", mdRunner(mdBig)},
	}

	for _, spec := range specs {
		pth := o.newPthreads()
		base, err := spec.run(pth, 1)
		pth.Close()
		if err != nil {
			return nil, fmt.Errorf("scenario %s host baseline: %w", spec.name, err)
		}

		host := Series{Label: "host_" + spec.name}
		for _, p := range o.PthCores {
			v := o.newPthreads()
			tt, err := spec.run(v, p)
			v.Close()
			if err != nil {
				return nil, err
			}
			host.Points = append(host.Points, Point{X: float64(p), Y: base / tt})
		}

		phi := Series{Label: "phi_" + spec.name}
		for _, p := range phiCores {
			rt, err := o.newSamhita(func(c *core.Config) {
				het := core.HeterogeneousConfig()
				c.Link, c.CPU, c.ThreadsPerNode, c.CacheLines = het.Link, het.CPU, het.ThreadsPerNode, het.CacheLines
			})
			if err != nil {
				return nil, err
			}
			tt, err := spec.run(rt, p)
			rt.Close()
			if err != nil {
				return nil, fmt.Errorf("scenario %s phi p=%d: %w", spec.name, p, err)
			}
			phi.Points = append(phi.Points, Point{X: float64(p), Y: base / tt})
		}
		f.Series = append(f.Series, host, phi)
	}
	f.Notes = append(f.Notes,
		"beyond-paper projection: coprocessor cores are ~4x slower (vtime.XeonPhiCPU), fabric is PCIe/SCIF",
		fmt.Sprintf("jacobi %dx%d x%d sweeps; md %d particles x%d steps", o.JacobiN, o.JacobiN, o.JacobiIters, o.MDParticles, o.MDSteps))
	return f, nil
}
