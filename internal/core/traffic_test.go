package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps/kernels"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/vtime"
)

const trafficGolden = "testdata/traffic.golden"

// trafficTap is a Transport whose endpoints count every message a
// compute thread sends (the requests it posts or calls with) and every
// one it is handed (the answers its calls get back, the grants and
// trains it receives), by kind. It is wrapped around the thread
// endpoints only, so a peer-to-peer grant is counted once sent and once
// handed.
type trafficTap struct {
	Transport
	mu           sync.Mutex
	sent, handed map[proto.Kind]int
	handedBytes  map[proto.Kind]int
	// pageDataBytes counts the lock-carried bytes (LockGrant.PageData) of
	// every LockGrant handed.
	pageDataBytes int
}

func (g *trafficTap) NewEndpoint(id scl.NodeID) (scl.Endpoint, error) {
	ep, err := g.Transport.NewEndpoint(id)
	if err != nil {
		return nil, err
	}
	return &trafficEndpoint{Endpoint: ep, tap: g}, nil
}

func (g *trafficTap) send(k proto.Kind) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sent == nil {
		g.sent = make(map[proto.Kind]int)
	}
	g.sent[k]++
}

func (g *trafficTap) hand(k proto.Kind, bytes, pageData int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.handed == nil {
		g.handed, g.handedBytes = make(map[proto.Kind]int), make(map[proto.Kind]int)
	}
	g.handed[k]++
	g.handedBytes[k] += bytes
	g.pageDataBytes += pageData
}

type trafficEndpoint struct {
	scl.Endpoint
	tap *trafficTap
}

func (e *trafficEndpoint) Post(dst scl.NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error) {
	e.tap.send(m.Kind())
	return e.Endpoint.Post(dst, m, at)
}

func (e *trafficEndpoint) Call(dst scl.NodeID, req, resp proto.Msg, at vtime.Time) (vtime.Time, error) {
	e.tap.send(req.Kind())
	t, err := e.Endpoint.Call(dst, req, resp, at)
	if err == nil {
		e.tap.hand(resp.Kind(), proto.Size(resp), 0)
	}
	return t, err
}

func (e *trafficEndpoint) Recv() (scl.Request, bool) {
	r, ok := e.Endpoint.Recv()
	if !ok {
		return r, ok
	}
	pageData := 0
	if r.Kind() == proto.KLockGrant {
		var g proto.LockGrant
		if err := proto.Decode(&g, r.Body()); err == nil {
			for _, pp := range g.PageData {
				pageData += len(pp.Data)
			}
		}
	}
	e.tap.hand(r.Kind(), r.BodyLen(), pageData)
	return r, ok
}

// perPassage are the synchronization messages a thread sends, or is
// answered with, once per lock or barrier passage whatever the
// population.
var perPassage = []proto.Kind{proto.KLockReq, proto.KUnlockReq, proto.KBarrierReq}

// sizedKinds are the messages whose mean size traffic.golden pins: the
// ones that carry notice lists to an acquirer.
var sizedKinds = []proto.Kind{proto.KLockGrant, proto.KNextWaiter, proto.KBarrierResp}

// The strided kernel's traffic, read off the thread endpoints at three
// populations with the P=256 micro point's parameters (4 servers, 4
// homes). Messages are O(1) per passage (Golab's remote-reference
// measure): a thread sends the same number of lock, unlock and barrier
// requests, and is answered and granted as often, at P=16, 64 and 256;
// it is handed at most one LockGrant and one NextWaiter per lock
// passage. What grows with P is bytes: testdata/traffic.golden pins the
// mean body of every LockGrant and NextWaiter a thread is handed and
// every BarrierResp it gets back, and the mean bytes of the lock-carried
// pages (LockGrant.PageData) over every LockGrant, so a change to what an
// acquirer is carried shows up as a diff of it.
func TestStridedTrafficGolden(t *testing.T) {
	var golden strings.Builder
	var base map[proto.Kind]float64
	for _, p := range []int{16, 64, 256} {
		cfg := DefaultConfig()
		cfg.Geo.NumServers = 4
		cfg.ManagerShards = 4
		rt := newRuntime(t, cfg)
		tap := &trafficTap{Transport: rt.transport}
		rt.transport = tap
		if _, err := kernels.RunMicro(rt, p, kernels.MicroParams{N: 3, M: 5, S: 1, B: 64, Mode: kernels.AllocStrided}); err != nil {
			t.Fatal(err)
		}
		perThread := func(n int) float64 { return float64(n) / float64(p) }
		counts := make(map[proto.Kind]float64)
		for _, k := range perPassage {
			counts[k] = perThread(tap.sent[k])
		}
		counts[proto.KLockResp] = perThread(tap.handed[proto.KLockResp])
		counts[proto.KBarrierResp] = perThread(tap.handed[proto.KBarrierResp])
		if base == nil {
			base = counts
		}
		for k, n := range counts {
			if n == 0 || n != base[k] {
				t.Errorf("P=%d: %.3f %v per thread, %.3f at P=16", p, n, k, base[k])
			}
		}
		passages := tap.sent[proto.KLockReq]
		for _, k := range []proto.Kind{proto.KLockGrant, proto.KNextWaiter} {
			if n := tap.handed[k]; n > passages {
				t.Errorf("P=%d: threads were handed %d %v messages over %d lock passages", p, n, k, passages)
			}
		}
		for _, k := range sizedKinds {
			n := tap.handed[k]
			if n == 0 {
				t.Fatalf("P=%d: no %v reached a thread", p, k)
			}
			fmt.Fprintf(&golden, "P=%d %v mean bytes %d\n", p, k, tap.handedBytes[k]/n)
		}
		fmt.Fprintf(&golden, "P=%d %v page-data mean bytes %d\n", p, proto.KLockGrant, tap.pageDataBytes/tap.handed[proto.KLockGrant])
	}
	compareGolden(t, trafficGolden, golden.String())
}
