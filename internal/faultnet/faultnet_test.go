package faultnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

var testModel = vtime.LinkModel{
	Name:         "test",
	Latency:      1000,
	BytesPerSec:  1e9,
	SendOverhead: 50,
	ServiceTime:  100,
}

// echoEndpoint is a loopback-free fake: Call succeeds immediately, Post
// succeeds immediately. It records how many sends reached it.
type echoEndpoint struct {
	mu    sync.Mutex
	calls int
	posts int
}

func (f *echoEndpoint) ID() scl.NodeID { return 1 }

func (f *echoEndpoint) Call(dst scl.NodeID, req proto.Msg, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	var p scl.Pending
	f.Start(dst, req, at, &p)
	return p.Wait(resp)
}

func (f *echoEndpoint) Start(dst scl.NodeID, req proto.Msg, at vtime.Time, p *scl.Pending) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	var answer proto.Msg
	if req.Kind() == proto.KAllocReq {
		answer = &proto.AllocResp{Addr: 7}
	}
	p.Settle(answer, at+100, nil)
}

func (f *echoEndpoint) Post(dst scl.NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error) {
	f.mu.Lock()
	f.posts++
	f.mu.Unlock()
	return at + 10, nil
}

func (f *echoEndpoint) Recv() (scl.Request, bool) { return scl.Request{}, false }
func (f *echoEndpoint) Close()                    {}

// schedule runs n Call verdicts against a fresh injector and returns
// which attempts were dropped.
func schedule(seed int64, n int) []bool {
	in := New(Config{Seed: seed, DropProb: 0.3})
	ep := in.Wrap(&echoEndpoint{}).(*endpoint)
	out := make([]bool, n)
	for i := range out {
		v := ep.in.before(ep.ID(), 2, 0)
		out[i] = v.drop
	}
	return out
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := schedule(42, 200)
	b := schedule(42, 200)
	c := schedule(43, 200)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different fault schedules")
	}
	if !diff {
		t.Error("different seeds produced identical schedules (suspicious)")
	}
}

func TestDropsSurfaceTransientAndAreMaskedByRetry(t *testing.T) {
	inner := &echoEndpoint{}
	in := New(Config{Seed: 1, DropProb: 0.4})
	nst := new(stats.Net)
	in.SetNetStats(nst)
	ep := scl.WithRetry(in.Wrap(inner),
		scl.RetryPolicy{MaxAttempts: 64, Backoff: time.Microsecond}, nst)

	for i := 0; i < 100; i++ {
		var resp proto.AllocResp
		if _, err := ep.Call(2, &proto.AllocReq{Size: 1}, &resp, 0); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Addr != 7 {
			t.Fatalf("call %d: Addr = %d", i, resp.Addr)
		}
	}
	if nst.InjectedDrops.Load() == 0 {
		t.Error("DropProb 0.4 over 100 calls injected nothing")
	}
	if nst.Retries.Load() == 0 {
		t.Error("drops did not cause retries")
	}
	if inner.calls >= 100+int(nst.InjectedDrops.Load()) {
		t.Errorf("inner saw %d calls; drops must be pre-send (each dropped attempt must NOT reach the peer)", inner.calls)
	}
}

func TestDropWithoutRetryIsTransientError(t *testing.T) {
	in := New(Config{Seed: 0, DropProb: 1.0})
	ep := in.Wrap(&echoEndpoint{})
	var resp proto.AllocResp
	_, err := ep.Call(2, &proto.AllocReq{}, &resp, 0)
	if err == nil {
		t.Fatal("DropProb 1.0 call succeeded")
	}
	if !scl.IsTransient(err) {
		t.Errorf("injected drop is not transient: %v", err)
	}
	if _, err := ep.Post(2, &proto.Shutdown{}, 0); err == nil {
		t.Error("DropProb 1.0 post succeeded")
	}
}

func TestPartitionWindowRefusesThenHeals(t *testing.T) {
	inner := &echoEndpoint{}
	in := New(Config{Seed: 0, Partitions: []Partition{{Node: 2, After: 3, Len: 4}}})
	ep := in.Wrap(inner)

	var refusals []int
	for i := 0; i < 12; i++ {
		var resp proto.AllocResp
		_, err := ep.Call(2, &proto.AllocReq{}, &resp, 0)
		if err != nil {
			if !scl.IsTransient(err) {
				t.Fatalf("attempt %d: partition error not transient: %v", i, err)
			}
			refusals = append(refusals, i)
		}
	}
	want := []int{3, 4, 5, 6} // After 3 attempts, refuse 4, then heal
	if len(refusals) != len(want) {
		t.Fatalf("refused attempts %v, want %v", refusals, want)
	}
	for i := range want {
		if refusals[i] != want[i] {
			t.Fatalf("refused attempts %v, want %v", refusals, want)
		}
	}
	if got := in.NetStats().PartitionRefusals.Load(); got != 4 {
		t.Errorf("PartitionRefusals = %d", got)
	}
	// Other destinations are unaffected.
	var resp proto.AllocResp
	if _, err := ep.Call(3, &proto.AllocReq{}, &resp, 0); err != nil {
		t.Errorf("partition leaked to node 3: %v", err)
	}
}

func TestDelaysAndDupsCountedAndHarmless(t *testing.T) {
	inner := &echoEndpoint{}
	in := New(Config{Seed: 5, DelayProb: 0.5, MaxDelay: 50 * time.Microsecond, DupProb: 0.5})
	tr := trace.NewCollector(0)
	in.SetTrace(tr)
	ep := in.Wrap(inner)

	for i := 0; i < 50; i++ {
		var resp proto.AllocResp
		if _, err := ep.Call(2, &proto.AllocReq{}, &resp, 0); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if in.NetStats().InjectedDelays.Load() == 0 {
		t.Error("no delays injected at p=0.5 over 50 calls")
	}
	if in.NetStats().InjectedDups.Load() == 0 {
		t.Error("no duplicate responses injected at p=0.5 over 50 calls")
	}
	if tr.Len() == 0 {
		t.Error("fault events not traced")
	}
	for _, ev := range tr.Events() {
		if ev.Cat != trace.CatNet {
			t.Errorf("fault event in category %q", ev.Cat)
		}
	}
}

// TestChaosOverSimFabric drives a real request/response exchange over
// the simulated fabric with drops and delays, the retry layer masking
// every fault: all calls must complete with correct payloads.
func TestChaosOverSimFabric(t *testing.T) {
	fab := simnet.NewFabric(testModel)
	srv := scl.NewSimEndpoint(fab, 2)
	defer srv.Close()
	go func() {
		for {
			req, ok := srv.Recv()
			if !ok {
				return
			}
			var ar proto.AllocReq
			if err := req.Decode(&ar); err != nil {
				return
			}
			req.Reply(&proto.AllocResp{Addr: ar.Size}, req.Arrive()+req.Svc())
		}
	}()

	in := New(Config{
		Seed:       99,
		DropProb:   0.2,
		DelayProb:  0.2,
		MaxDelay:   20 * time.Microsecond,
		DupProb:    0.1,
		Partitions: []Partition{{Node: 2, After: 10, Len: 5}},
	})
	nst := new(stats.Net)
	in.SetNetStats(nst)
	cli := scl.WithRetry(in.Wrap(scl.NewSimEndpoint(fab, 1)),
		scl.RetryPolicy{MaxAttempts: 64, Backoff: 10 * time.Microsecond}, nst)
	defer cli.Close()

	at := vtime.Time(0)
	for i := 0; i < 60; i++ {
		var resp proto.AllocResp
		doneAt, err := cli.Call(2, &proto.AllocReq{Size: uint64(i)}, &resp, at)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Addr != uint64(i) {
			t.Fatalf("call %d: Addr = %d", i, resp.Addr)
		}
		at = doneAt
	}
	if nst.InjectedDrops.Load() == 0 || nst.PartitionRefusals.Load() == 0 {
		t.Errorf("chaos run injected too little: drops=%d refusals=%d",
			nst.InjectedDrops.Load(), nst.PartitionRefusals.Load())
	}
}

func TestUnreachableSurfacesWhenPartitionOutlastsRetries(t *testing.T) {
	in := New(Config{Seed: 0, Partitions: []Partition{{Node: 2, After: 0, Len: 1 << 30}}})
	nst := new(stats.Net)
	in.SetNetStats(nst)
	ep := scl.WithRetry(in.Wrap(&echoEndpoint{}),
		scl.RetryPolicy{MaxAttempts: 4, Backoff: time.Microsecond}, nst)
	var resp proto.AllocResp
	_, err := ep.Call(2, &proto.AllocReq{}, &resp, 0)
	if !errors.Is(err, scl.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if got := nst.PartitionRefusals.Load(); got != 4 {
		t.Errorf("PartitionRefusals = %d, want 4", got)
	}
}
