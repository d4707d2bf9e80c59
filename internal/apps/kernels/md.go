package kernels

import (
	"math"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/vm"
)

// MDParams parameterizes the molecular dynamics kernel (Section III,
// Figure 13): a simple n-body simulation integrated with the velocity
// Verlet method, modelled on the OmpSCR md code. Computing the forces
// on one particle reads every other particle's position, so the work
// per particle is O(n) — the computational intensity that lets the
// paper's Samhita runs scale to 32 cores.
type MDParams struct {
	// NParticles is the number of particles.
	NParticles int
	// Steps is the number of Verlet time steps.
	Steps int
	// Dt is the integration step.
	Dt float64
	// Mass is the particle mass.
	Mass float64
}

// DefaultMDParams sizes the simulation for quick runs.
func DefaultMDParams() MDParams {
	return MDParams{NParticles: 256, Steps: 5, Dt: 1e-4, Mass: 1.0}
}

// MDResult reports the outcome.
type MDResult struct {
	// Potential and Kinetic are the mutex-protected energy accumulators
	// after the final step.
	Potential float64
	Kinetic   float64
	// Checksum sums the final positions for cross-backend verification.
	Checksum float64
	// Run carries per-thread measurements.
	Run *stats.Run
}

const mdDims = 3

// RunMD executes the kernel on p threads.
//
// Layout: position, velocity, acceleration and force arrays of
// NParticles x 3 doubles live in one large shared allocation. Particles
// are block-partitioned. Each step: (1) update owned positions,
// velocities and accelerations from the previous forces — barrier —
// (2) compute forces on owned particles reading all positions, and add
// the step's potential and kinetic contributions to globals under a
// mutex — barrier — (3) proceed to the next step after a third barrier,
// matching the paper's three barrier operations per outer iteration.
//
// The interparticle potential is the OmpSCR md one: v(d) = sin^2(min(d,
// pi/2)), giving bounded forces without cutoff logic.
func RunMD(v vm.VM, p int, prm MDParams) (*MDResult, error) {
	if prm.NParticles == 0 {
		prm = DefaultMDParams()
	}
	n := prm.NParticles
	vecBytes := n * mdDims * 8

	mu := v.NewMutex()
	bar := v.NewBarrier(p)
	var base, energyBase atomic.Uint64
	var out MDResult

	run, err := v.Run(p, func(t vm.Thread) {
		if t.ID() == 0 {
			base.Store(uint64(t.GlobalAlloc(4 * vecBytes)))
			energyBase.Store(uint64(t.GlobalAlloc(16)))
		}
		bar.Wait(t)
		b := vm.Addr(base.Load())
		pos := b
		vel := b + vm.Addr(vecBytes)
		acc := b + vm.Addr(2*vecBytes)
		force := b + vm.Addr(3*vecBytes)
		energy := vm.F64{Base: vm.Addr(energyBase.Load())} // [potential, kinetic]

		lo, hi := blockRange(n, p, t.ID())
		own := hi - lo
		coordAddr := func(arr vm.Addr, i int) vm.Addr { return arr + vm.Addr(i*mdDims*8) }

		// Deterministic initial positions on a jittered lattice;
		// velocities and accelerations start at zero.
		initBuf := newRowBuf(mdDims)
		coords := make([]float64, mdDims)
		for i := lo; i < hi; i++ {
			lcg := uint64(i)*6364136223846793005 + 1442695040888963407
			for d := 0; d < mdDims; d++ {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				coords[d] = float64(i%17)*0.5 + float64(d) + float64(lcg>>40)*1e-6
			}
			initBuf.store(t, coordAddr(pos, i), coords)
		}
		// Touch the owned slices of the other arrays too, so the timed
		// region starts warm (see the Jacobi kernel).
		zero := make([]float64, own*mdDims)
		warm := newRowBuf(own * mdDims)
		for _, arr := range []vm.Addr{vel, acc, force} {
			warm.store(t, coordAddr(arr, lo), zero)
		}
		bar.Wait(t)
		t.ResetMeasurement()

		// Scratch copies of whole arrays for the force pass.
		allPos := newRowBuf(n * mdDims)
		ownBuf := newRowBuf(own * mdDims)
		velBuf := newRowBuf(own * mdDims)
		accBuf := newRowBuf(own * mdDims)
		forceBuf := newRowBuf(own * mdDims)

		for step := 0; step < prm.Steps; step++ {
			if step > 0 {
				// (1) Velocity Verlet update of owned particles.
				ps := ownBuf.load(t, coordAddr(pos, lo), own*mdDims)
				vs := velBuf.load(t, coordAddr(vel, lo), own*mdDims)
				as := accBuf.load(t, coordAddr(acc, lo), own*mdDims)
				fs := forceBuf.load(t, coordAddr(force, lo), own*mdDims)
				for i := range ps {
					f := fs[i]
					ps[i] += prm.Dt*vs[i] + 0.5*prm.Dt*prm.Dt*as[i]
					vs[i] += 0.5 * prm.Dt * (f/prm.Mass + as[i])
					as[i] = f / prm.Mass
				}
				t.Compute(12 * own * mdDims)
				ownBuf.store(t, coordAddr(pos, lo), ps)
				velBuf.store(t, coordAddr(vel, lo), vs)
				accBuf.store(t, coordAddr(acc, lo), as)
			}
			bar.Wait(t)

			// (2) Force computation: O(n) per owned particle.
			all := allPos.load(t, pos, n*mdDims)
			fs := make([]float64, own*mdDims)
			localPot := 0.0
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					var d2 float64
					var delta [mdDims]float64
					for d := 0; d < mdDims; d++ {
						delta[d] = all[i*mdDims+d] - all[j*mdDims+d]
						d2 += delta[d] * delta[d]
					}
					dist := math.Sqrt(d2)
					dTrunc := dist
					if dTrunc > math.Pi/2 {
						dTrunc = math.Pi / 2
					}
					sin, cos := math.Sincos(dTrunc)
					localPot += 0.5 * sin * sin
					dv := -2 * sin * cos // d/dx of sin^2 at the truncated distance
					for d := 0; d < mdDims; d++ {
						fs[(i-lo)*mdDims+d] -= delta[d] / dist * dv
					}
				}
			}
			t.Compute(14 * own * n)
			ownBuf.store(t, coordAddr(force, lo), fs)

			// Kinetic energy of owned particles.
			vs := velBuf.load(t, coordAddr(vel, lo), own*mdDims)
			localKin := 0.0
			for _, vv := range vs {
				localKin += vv * vv
			}
			localKin *= 0.5 * prm.Mass
			t.Compute(2*own*mdDims + 1)

			// The energy accumulators integrate over all steps; every
			// thread adds exactly once per step under the mutex.
			mu.Lock(t)
			energy.Add(t, 0, localPot)
			energy.Add(t, 1, localKin)
			mu.Unlock(t)
			bar.Wait(t)
			bar.Wait(t) // third barrier of the step (velocity half-kick sync)
		}
		t.StopMeasurement()

		if t.ID() == 0 {
			out.Potential = energy.At(t, 0)
			out.Kinetic = energy.At(t, 1)
			sum := 0.0
			all := allPos.load(t, pos, n*mdDims)
			for _, x := range all {
				sum += x
			}
			out.Checksum = sum
		}
	})
	if err != nil {
		return nil, err
	}
	out.Run = run
	return &out, nil
}
