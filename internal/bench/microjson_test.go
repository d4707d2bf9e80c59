package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestMicroBenchFileRoundTrip(t *testing.T) {
	in := &MicroBench{
		Benchmark: "samhita-micro",
		Points: []MicroPoint{{
			P: 16, Mode: "strided", N: 10, M: 10, S: 2, B: 256,
			SyncMaxNs: 1_500_000, FabricMsgs: 1800, Releases: 320,
			MsgsPerRelease: 3.5,
		}},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMicroBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != 1 || out.Points[0] != in.Points[0] {
		t.Fatalf("round trip mismatch: %+v vs %+v", out.Points, in.Points)
	}
}

// The gate is exact: any field of a matched point that differs fails,
// in either direction, and so does a baseline point the run should have
// measured but did not.
func TestCheckRegression(t *testing.T) {
	micro := MicroPoint{
		P: 16, Mode: "strided", N: 10, M: 10, S: 2, B: 256,
		SyncMaxNs: 1_000_000, FabricMsgs: 1000, MsgsPerRelease: 3.5,
	}
	kvPt := MicroPoint{
		Workload: "kv", P: 16, Mode: "open", N: 64, M: 512, S: 64, B: 90,
		SyncMaxNs: 1_000_000, P99Ns: 10_000,
	}
	big := micro
	big.P = 1024
	base := &MicroBench{Points: []MicroPoint{micro, kvPt, big}}
	with := func(i int, edit func(*MicroPoint)) *MicroBench {
		pts := []MicroPoint{micro, kvPt}
		edit(&pts[i])
		return &MicroBench{Points: pts}
	}
	for _, tc := range []struct {
		name    string
		current *MicroBench
		maxP    int
		want    []string // substrings of the error; none = must pass
	}{
		{"identical", with(0, func(*MicroPoint) {}), 256, nil},
		{"sync-one-ns-slower", with(0, func(p *MicroPoint) { p.SyncMaxNs++ }), 256,
			[]string{micro.key(), "SyncMaxNs 1000001, baseline 1000000"}},
		{"rate-differs", with(0, func(p *MicroPoint) { p.MsgsPerRelease = 3.25 }), 256,
			[]string{"MsgsPerRelease 3.25, baseline 3.5"}},
		{"p99-faster", with(1, func(p *MicroPoint) { p.P99Ns = 9_000 }), 256,
			[]string{kvPt.key(), "P99Ns 9000, baseline 10000"}},
		{"not-measured", &MicroBench{Points: []MicroPoint{micro}}, 256,
			[]string{kvPt.key() + ": not measured"}},
		{"above-max-p-not-expected", with(0, func(*MicroPoint) {}), 256, nil},
		{"above-max-p-expected", with(0, func(*MicroPoint) {}), 1024,
			[]string{big.key() + ": not measured"}},
		{"unseen-point", &MicroBench{Points: []MicroPoint{micro, kvPt, {P: 8, Mode: "local"}}}, 256, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckRegression(base, tc.current, tc.maxP)
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("gate failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("gate passed")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error lacks %q:\n%v", w, err)
				}
			}
		})
	}
}

// measure on the sequenced simulated fabric is bit-stable: a table row
// measured twice gives the same point, latency quantiles included, and
// that point is the one BENCH_micro.json records at the row's position.
// That is what justifies an exact gate on the stored baseline.
func TestMeasureDeterministic(t *testing.T) {
	recorded, err := ReadMicroBench("../../BENCH_micro.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded.Points) != len(table) {
		t.Fatalf("BENCH_micro.json has %d points, the table %d rows", len(recorded.Points), len(table))
	}
	o := Options{}.WithDefaults()
	for name, i := range map[string]int{"micro": 0, "kv": 13} {
		t.Run(name, func(t *testing.T) {
			a, err := o.measure(table[i])
			if err != nil {
				t.Fatal(err)
			}
			b, err := o.measure(table[i])
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("measurements differ:\n a: %+v\n b: %+v", a, b)
			}
			if a != recorded.Points[i] {
				t.Fatalf("row %d departs from BENCH_micro.json: %s", i, strings.Join(diffFields(recorded.Points[i], a), ", "))
			}
		})
	}
}

// Workload, sweep-server and span markers are part of the point
// identity: a kv point must never be compared against the micro point
// with coincidentally equal parameters, and the pre-workload baseline
// keys must be unchanged so old documents keep gating.
func TestMicroPointKeyIdentity(t *testing.T) {
	micro := MicroPoint{P: 16, Mode: "strided", N: 10, M: 10, S: 2, B: 256}
	if got, want := micro.key(), "p16-strided-N10-M10-S2-B256-d0-sh1-mgr1-rep1"; got != want {
		t.Errorf("legacy key changed: %q, want %q", got, want)
	}
	kvPt := micro
	kvPt.Workload = "kv"
	if kvPt.key() == micro.key() {
		t.Error("kv point key collides with micro point key")
	}
	srv := micro
	srv.Servers = 4
	if srv.key() == micro.key() {
		t.Error("multi-server point key collides with single-server key")
	}
	if !strings.HasSuffix(kvPt.key(), "-wl-kv") {
		t.Errorf("workload key missing suffix: %q", kvPt.key())
	}
}
