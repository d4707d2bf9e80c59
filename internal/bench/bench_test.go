package bench

import (
	"strings"
	"testing"
)

func TestQuickOptionsValid(t *testing.T) {
	o := Quick()
	if o.N == 0 || o.B == 0 || len(o.SmhCores) == 0 || o.Cfg.Link.Name == "" {
		t.Fatalf("Quick() left fields unset: %+v", o)
	}
}

func TestWithDefaultsMatchesPaperParameters(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.N != 10 || o.B != 256 {
		t.Errorf("N=%d B=%d, want the paper's 10/256", o.N, o.B)
	}
	if len(o.Ms) != 3 || o.Ms[2] != 100 {
		t.Errorf("Ms=%v", o.Ms)
	}
	if len(o.Ss) != 4 || o.Ss[3] != 8 {
		t.Errorf("Ss=%v", o.Ss)
	}
	if o.FixedP != 16 {
		t.Errorf("FixedP=%d", o.FixedP)
	}
	if max := o.SmhCores[len(o.SmhCores)-1]; max != 32 {
		t.Errorf("samhita sweep tops out at %d, want 32", max)
	}
	if max := o.PthCores[len(o.PthCores)-1]; max != 8 {
		t.Errorf("pthreads sweep tops out at %d, want 8", max)
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	if _, err := Run(2, Quick()); err == nil {
		t.Fatal("figure 2 accepted (it is source code, not a result)")
	}
	if _, err := Run(14, Quick()); err == nil {
		t.Fatal("figure 14 accepted")
	}
}

func TestFigureIDsAllRegistered(t *testing.T) {
	for _, id := range FigureIDs() {
		if Figures[id] == nil {
			t.Errorf("figure %d not registered", id)
		}
	}
	if len(FigureIDs()) != 11 {
		t.Errorf("expected 11 result figures, have %d", len(FigureIDs()))
	}
}

// TestEveryFigureRunsQuick executes all 11 figures at test scale and
// sanity-checks the output tables. This is the integration test for the
// whole reproduction pipeline.
func TestEveryFigureRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}
	o := Quick()
	for _, id := range FigureIDs() {
		id := id
		t.Run(trimFloat(float64(id)), func(t *testing.T) {
			t.Parallel()
			f, err := Run(id, o)
			if err != nil {
				t.Fatalf("figure %d: %v", id, err)
			}
			if len(f.Series) == 0 {
				t.Fatalf("figure %d has no series", id)
			}
			for _, s := range f.Series {
				if len(s.Points) == 0 {
					t.Errorf("figure %d series %q empty", id, s.Label)
				}
				for _, p := range s.Points {
					if p.Y < 0 {
						t.Errorf("figure %d series %q has negative y at x=%v", id, s.Label, p.X)
					}
				}
			}
			tbl := f.Table()
			if !strings.Contains(tbl, f.XLabel) {
				t.Errorf("table missing x label:\n%s", tbl)
			}
			csv := f.CSV()
			if len(strings.Split(strings.TrimSpace(csv), "\n")) < 2 {
				t.Errorf("csv too short:\n%s", csv)
			}
		})
	}
}

func TestFigureShapesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks in -short mode")
	}
	o := Quick()

	t.Run("fig3-normalization", func(t *testing.T) {
		f, err := Figure3(o)
		if err != nil {
			t.Fatal(err)
		}
		// The pthreads 1-core point of each M is the normalization unit.
		for _, s := range f.Series {
			if !strings.HasPrefix(s.Label, "pth") {
				continue
			}
			if y, ok := s.at(1); !ok || y < 0.99 || y > 1.01 {
				t.Errorf("series %q at 1 core = %v, want 1.0", s.Label, y)
			}
		}
	})

	t.Run("fig11-samhita-sync-exceeds-pthreads", func(t *testing.T) {
		f, err := Figure11(o)
		if err != nil {
			t.Fatal(err)
		}
		var pth, smh float64
		for _, s := range f.Series {
			if s.Label == "pth_local" {
				pth, _ = s.at(float64(o.PthCores[len(o.PthCores)-1]))
			}
			if s.Label == "smh_local" {
				smh, _ = s.at(float64(o.PthCores[len(o.PthCores)-1]))
			}
		}
		if smh <= pth {
			t.Errorf("samhita sync (%v) should exceed pthreads sync (%v): consistency ops are not free", smh, pth)
		}
	})

	t.Run("fig12-speedup-positive", func(t *testing.T) {
		f, err := Figure12(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range f.Series {
			one, ok := s.at(1)
			if !ok {
				t.Fatalf("series %q missing 1-core point", s.Label)
			}
			top, _ := s.at(float64(o.SmhCores[len(o.SmhCores)-1]))
			if s.Label == "pthreads" && (one < 0.99 || one > 1.01) {
				t.Errorf("pthreads 1-core speedup = %v, want 1", one)
			}
			_ = top
		}
	})
}

func TestAblationsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	o := Quick()
	for _, name := range AblationNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a, err := AblationRunners[name](o)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Results) < 2 {
				t.Fatalf("ablation %s has %d variants", name, len(a.Results))
			}
			tbl := a.Table()
			if !strings.Contains(tbl, "variant") {
				t.Errorf("ablation table malformed:\n%s", tbl)
			}
		})
	}
}

func TestAblationFabricOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric ablation in -short mode")
	}
	a, err := AblationFabric(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Total (compute+sync) time must strictly improve as the fabric gets
	// faster: IB -> PCIe/SCIF -> intra-node. This is the paper's
	// Section V argument for the SCIF port.
	var ib, pcie, intra float64
	for _, r := range a.Results {
		switch r.Variant {
		case "qdr-ib":
			ib = r.Compute + r.Sync
		case "pcie-scif":
			pcie = r.Compute + r.Sync
		case "intra-node":
			intra = r.Compute + r.Sync
		}
	}
	if !(ib > pcie && pcie > intra) {
		t.Errorf("fabric ordering violated: ib=%v pcie=%v intra=%v", ib, pcie, intra)
	}
}

func TestScenarioHeterogeneousQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario in -short mode")
	}
	o := Quick()
	f, err := ScenarioHeterogeneous(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 6 {
		t.Fatalf("series = %d, want 6 (host/phi x jacobi/md/mdbig)", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			t.Errorf("series %q empty", s.Label)
		}
	}
	// Host baselines normalize to 1 at one core.
	for _, s := range f.Series {
		if len(s.Label) > 5 && s.Label[:5] == "host_" {
			if y, ok := s.at(1); !ok || y < 0.99 || y > 1.01 {
				t.Errorf("%s at 1 core = %v", s.Label, y)
			}
		}
	}
	// A coprocessor core is slower than a host core.
	for _, s := range f.Series {
		if len(s.Label) > 4 && s.Label[:4] == "phi_" {
			if y, ok := s.at(1); ok && y >= 1 {
				t.Errorf("%s at 1 core = %v, should be below the host core", s.Label, y)
			}
		}
	}
}
