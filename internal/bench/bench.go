// Package bench regenerates every result figure of the paper's
// evaluation (Figures 3-13; Figure 1 is architecture, Figure 2 is the
// micro-benchmark source reproduced in package kernels). Each FigureN
// function runs the corresponding experiment — the same workload, the
// same parameter sweep, both backends where the paper plots both — and
// returns the series the paper's plot carries, renderable as an aligned
// text table or CSV.
//
// Absolute numbers come from the virtual-time cost model, not the
// authors' 2008-era testbed, so they are not expected to match the
// paper digit for digit; the *shapes* — who wins, by what factor, where
// curves cross — are what EXPERIMENTS.md records and checks.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/pthreads"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/vtime"
)

// Options scales the experiments. The zero value plus WithDefaults runs
// the paper's full parameters; Quick returns a configuration small
// enough for unit tests and testing.B benchmarks.
type Options struct {
	// N and B are the micro-benchmark's fixed outer-iteration count and
	// row length (the paper uses N=10, B=256 throughout).
	N, B int
	// Ms is the inner-iteration sweep for Figures 3-5 (paper: 1,10,100).
	Ms []int
	// Ss is the rows-per-thread sweep for Figures 6-10 (paper: 1,2,4,8).
	Ss []int
	// MidM and MidS are the fixed values used when the other parameter
	// sweeps (paper: M=10, S=2).
	MidM, MidS int
	// SmhCores is the Samhita thread-count sweep (paper: up to 32, 8 per
	// node).
	SmhCores []int
	// PthCores is the Pthreads sweep (paper: up to 8, one node).
	PthCores []int
	// FixedP is the thread count for the S sweeps (paper: 16).
	FixedP int
	// JacobiN/JacobiIters size Figure 12.
	JacobiN, JacobiIters int
	// MDParticles/MDSteps size Figure 13.
	MDParticles, MDSteps int
	// Cfg is the template every Samhita runtime the experiments boot is
	// copied from; an experiment varies it per runtime through
	// newSamhita's overrides. Net, Tier and Liveness.Live set here are
	// shared by those runtimes and so accumulate across a whole sweep.
	// The zero value means core.DefaultConfig (see WithDefaults).
	Cfg core.Config
	// Faults, when Active, is the fault schedule: every runtime gets a
	// fresh injector built from it, since an injector binds to one
	// fabric. Set Cfg.Retry as well or the faults surface as errors.
	Faults faultnet.Config
	// Agg, when non-nil, accumulates the per-thread counters of every
	// Samhita run an experiment boots, so samhita-bench can report one
	// release-path/prefetch efficiency summary at the end.
	Agg *stats.Run
}

// WithDefaults fills unset fields with the paper's parameters.
func (o Options) WithDefaults() Options {
	if o.N == 0 {
		o.N = 10
	}
	if o.B == 0 {
		o.B = 256
	}
	if len(o.Ms) == 0 {
		o.Ms = []int{1, 10, 100}
	}
	if len(o.Ss) == 0 {
		o.Ss = []int{1, 2, 4, 8}
	}
	if o.MidM == 0 {
		o.MidM = 10
	}
	if o.MidS == 0 {
		o.MidS = 2
	}
	if len(o.SmhCores) == 0 {
		o.SmhCores = []int{1, 2, 4, 8, 16, 24, 32}
	}
	if len(o.PthCores) == 0 {
		o.PthCores = []int{1, 2, 4, 8}
	}
	if o.FixedP == 0 {
		o.FixedP = 16
	}
	if o.JacobiN == 0 {
		o.JacobiN = 1024
	}
	if o.JacobiIters == 0 {
		o.JacobiIters = 10
	}
	if o.MDParticles == 0 {
		o.MDParticles = 1024
	}
	if o.MDSteps == 0 {
		o.MDSteps = 5
	}
	if o.Cfg.Geo.PageSize == 0 {
		o.Cfg = core.DefaultConfig()
	}
	return o
}

// Quick returns options small enough for tests and testing.B.
func Quick() Options {
	o := Options{
		N: 3, B: 64,
		Ms:   []int{1, 10},
		Ss:   []int{1, 2},
		MidM: 5, MidS: 2,
		SmhCores: []int{1, 2, 4},
		PthCores: []int{1, 2, 4},
		FixedP:   4,
		JacobiN:  64, JacobiIters: 3,
		MDParticles: 64, MDSteps: 3,
	}.WithDefaults()
	o.Cfg.CacheLines = 256
	return o
}

// newSamhita boots a Samhita runtime from a copy of the template.
func (o Options) newSamhita(overrides ...func(*core.Config)) (*core.Runtime, error) {
	cfg := o.Cfg
	for _, f := range overrides {
		f(&cfg)
	}
	if o.Faults.Active() {
		cfg.Faults = faultnet.New(o.Faults)
	}
	return core.New(cfg)
}

// newPthreads builds the baseline (capped at 8 cores like the paper's
// node, unless the sweep needs fewer).
func (o Options) newPthreads() vm.VM {
	max := 8
	for _, c := range o.PthCores {
		if c > max {
			max = c
		}
	}
	return pthreads.New(pthreads.Config{MaxCores: max, MemBytes: 256 << 20})
}

// ---------------------------------------------------------------------
// Figure data model.

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled curve.
type Series struct {
	Label  string
	Points []Point
}

// Figure is the data behind one paper figure.
type Figure struct {
	ID     string // "fig03" ... "fig13"
	Title  string
	XLabel string
	Series []Series
	Notes  []string
}

// Table renders the figure as an aligned text table: one row per x
// value, one column per series — the same rows/points the paper's plot
// carries.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	xs := f.xValues()

	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			if y, ok := s.at(x); ok {
				row = append(row, fmt.Sprintf("%.4g", y))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	writeAligned(&b, rows)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as x,series1,series2,... lines.
func (f *Figure) CSV() string {
	var b strings.Builder
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Label)
	}
	b.WriteString(strings.Join(cols, ","))
	b.WriteByte('\n')
	for _, x := range f.xValues() {
		fields := []string{trimFloat(x)}
		for _, s := range f.Series {
			if y, ok := s.at(x); ok {
				fields = append(fields, fmt.Sprintf("%g", y))
			} else {
				fields = append(fields, "")
			}
		}
		b.WriteString(strings.Join(fields, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func (f *Figure) xValues() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func (s *Series) at(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

func writeAligned(b *strings.Builder, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
}

// seconds converts virtual time to float seconds for plotting.
func seconds(t vtime.Time) float64 { return t.Seconds() }

// perThreadCompute is the compute-time metric the paper plots: the
// per-thread compute time of the (symmetric) run, taken as the maximum
// across threads.
func perThreadCompute(r *stats.Run) float64 { return seconds(r.MaxComputeTime()) }

// perThreadSync is the synchronization-time metric.
func perThreadSync(r *stats.Run) float64 { return seconds(r.MaxSyncTime()) }
