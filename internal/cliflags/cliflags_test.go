package cliflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/scl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

const every = Topology | OneRun | Faults | Kills

// parse registers every group on one flag set (a name declared twice
// panics inside package flag, which is the duplicate check) and parses
// args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, every)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

// Each flag, set alone, changes exactly what its case names on
// core.DefaultConfig() and an empty schedule; everything else stays as
// the base had it. A flag without a case fails the test.
func TestEveryFlagRoundTrips(t *testing.T) {
	type edit func(*core.Config, *faultnet.Config)
	retry := func(c *core.Config) {
		pol := scl.DefaultRetryPolicy
		c.Retry = &pol
	}
	cases := []struct {
		args string
		want edit
	}{
		{"", func(*core.Config, *faultnet.Config) {}},
		{"-servers 3", func(c *core.Config, _ *faultnet.Config) { c.Geo.NumServers = 3 }},
		{"-server-shards 4", func(c *core.Config, _ *faultnet.Config) { c.ServerShards = 4 }},
		{"-manager-shards 2", func(c *core.Config, _ *faultnet.Config) { c.ManagerShards = 2 }},
		{"-manager-replicas 3", func(c *core.Config, _ *faultnet.Config) { c.ManagerReplicas = 3 }},
		{"-hot-bytes 98304", func(c *core.Config, _ *faultnet.Config) { c.HotBytes = 98304 }},
		{"-cold-preset cold-remote", func(c *core.Config, _ *faultnet.Config) { c.ColdPreset = "cold-remote" }},
		{"-prefetch-depth 2", func(c *core.Config, _ *faultnet.Config) { c.PrefetchDepth = 2 }},
		{"-link pcie-scif", func(c *core.Config, _ *faultnet.Config) { c.Link = vtime.PCIeSCIF }},
		{"-transport tcp", func(c *core.Config, _ *faultnet.Config) { c.Transport = scl.NewTCPFactory(c.Link) }},
		{"-trace out.json", func(c *core.Config, _ *faultnet.Config) { c.Trace = trace.NewCollector(0) }},
		{"-faults", func(c *core.Config, s *faultnet.Config) {
			s.DropProb, s.DelayProb, s.DupProb = 0.10, 0.05, 0.02
			retry(c)
		}},
		{"-faults -fault-drop 0.5", func(c *core.Config, s *faultnet.Config) {
			s.DropProb, s.DelayProb, s.DupProb = 0.5, 0.05, 0.02
			retry(c)
		}},
		{"-faults -fault-delay 0.5", func(c *core.Config, s *faultnet.Config) {
			s.DropProb, s.DelayProb, s.DupProb = 0.10, 0.5, 0.02
			retry(c)
		}},
		{"-faults -fault-dup 0.5", func(c *core.Config, s *faultnet.Config) {
			s.DropProb, s.DelayProb, s.DupProb = 0.10, 0.05, 0.5
			retry(c)
		}},
		{"-fault-seed 9", func(_ *core.Config, s *faultnet.Config) { s.Seed = 9 }},
		{"-fault-drop 0.5", func(*core.Config, *faultnet.Config) {}}, // inert without -faults
		{"-standby", func(c *core.Config, _ *faultnet.Config) {
			c.Liveness = &core.LivenessConfig{Standby: true}
			retry(c)
		}},
		{"-kill-server 2 -kill-after 7", func(c *core.Config, s *faultnet.Config) {
			c.Geo.NumServers = 3
			s.Kills = []faultnet.Kill{{Node: core.ServerNode(2), After: 7}}
			c.Liveness = &core.LivenessConfig{Standby: true}
			retry(c)
		}},
		{"-kill-manager", func(c *core.Config, s *faultnet.Config) {
			s.Kills = []faultnet.Kill{{Node: core.ManagerNode(), After: 30}}
			c.Liveness = &core.LivenessConfig{MissedBeats: 25}
			retry(c)
		}},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			f := parse(t, strings.Fields(tc.args)...)
			f.fs.Visit(func(fl *flag.Flag) { covered[fl.Name] = true })
			got, gotSched := core.DefaultConfig(), faultnet.Config{}
			if err := f.Apply(&got, &gotSched); err != nil {
				t.Fatal(err)
			}
			want, wantSched := core.DefaultConfig(), faultnet.Config{}
			tc.want(&want, &wantSched)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("config:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(gotSched, wantSched) {
				t.Errorf("schedule:\n got %+v\nwant %+v", gotSched, wantSched)
			}
		})
	}
	parse(t).fs.VisitAll(func(fl *flag.Flag) {
		if !covered[fl.Name] {
			t.Errorf("flag -%s has no round-trip case", fl.Name)
		}
	})
}

// A base's own retry policy, liveness block and schedule survive Apply:
// this is how samhita-conform keeps its 10-attempt policy and scripted
// partition.
func TestApplyKeepsTheBase(t *testing.T) {
	f := parse(t, "-faults", "-kill-manager")
	pol := scl.RetryPolicy{MaxAttempts: 10}
	cfg := core.DefaultConfig()
	cfg.Retry = &pol
	cfg.Liveness = &core.LivenessConfig{MissedBeats: 200}
	sched := faultnet.Config{Seed: 77, Partitions: []faultnet.Partition{{Node: 10, After: 20, Len: 5}}}
	if err := f.Apply(&cfg, &sched); err != nil {
		t.Fatal(err)
	}
	if cfg.Retry != &pol || cfg.Liveness.MissedBeats != 200 || cfg.Liveness.Standby {
		t.Errorf("base overridden: retry %+v liveness %+v", cfg.Retry, cfg.Liveness)
	}
	if sched.Seed != 77 || len(sched.Partitions) != 1 || sched.DropProb != 0.10 || len(sched.Kills) != 1 {
		t.Errorf("schedule %+v", sched)
	}
}

func TestApplyRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{{"-link", "carrier-pigeon"}, {"-transport", "udp"}} {
		cfg, sched := core.DefaultConfig(), faultnet.Config{}
		if err := parse(t, args...).Apply(&cfg, &sched); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
