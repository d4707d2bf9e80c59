package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/vm"
	"repro/internal/vtime"
)

var updateConvoy = flag.Bool("update", false, "rewrite testdata/convoy.golden and testdata/client.golden from the current code")

const convoyGolden = "testdata/convoy.golden"

// grantTap is a Transport whose endpoints record the body of every
// LockGrant they post: the peer-to-peer hops of a handoff convoy, in
// lock order (each hop's post happens before its receiver's).
type grantTap struct {
	Transport
	mu     sync.Mutex
	grants [][]byte
}

func (g *grantTap) NewEndpoint(id scl.NodeID) (scl.Endpoint, error) {
	ep, err := g.Transport.NewEndpoint(id)
	if err != nil {
		return nil, err
	}
	return &tapEndpoint{Endpoint: ep, tap: g}, nil
}

type tapEndpoint struct {
	scl.Endpoint
	tap *grantTap
}

func (e *tapEndpoint) Post(dst scl.NodeID, m proto.Msg, at vtime.Time) (vtime.Time, error) {
	if m.Kind() == proto.KLockGrant {
		e.tap.mu.Lock()
		e.tap.grants = append(e.tap.grants, proto.Encode(m))
		e.tap.mu.Unlock()
	}
	return e.Endpoint.Post(dst, m, at)
}

// Every hop of a handoff convoy forwards the announcement train it was
// handed. testdata/convoy.golden holds the LockGrant body of every hop
// of one contended run, written by the handoff path that decoded each
// train into structs and re-encoded the tail; whatever forwards trains
// now must put the same bytes on the wire. The run is sequenced, so the
// hops and their bodies repeat exactly.
func TestConvoyGrantBodiesGolden(t *testing.T) {
	const (
		p     = 8
		iters = 3
	)
	cfg := DefaultConfig()
	cfg.ManagerShards = 4
	rt := newRuntime(t, cfg)
	// Thread endpoints are created by Run; the manager and the servers
	// already hold theirs, untapped.
	tap := &grantTap{Transport: rt.transport}
	rt.transport = tap

	mu := rt.NewMutex()
	bar := rt.NewBarrier(p)
	var base atomic.Uint64
	if _, err := rt.Run(p, func(th vm.Thread) {
		if th.ID() == 0 {
			base.Store(uint64(th.GlobalAlloc(4096 + p*8)))
		}
		bar.Wait(th)
		counter := vm.Addr(base.Load())
		slot := counter + 4096 + vm.Addr(th.ID()*8)
		for i := 0; i < iters; i++ {
			// An ordinary-region store before the acquire and two region
			// stores inside it: the closing interval names a page and
			// carries records.
			th.WriteInt64(slot, int64(i+1))
			mu.Lock(th)
			v := th.ReadInt64(counter) + 1
			th.WriteInt64(counter, v)
			th.WriteInt64(counter+8, v*3)
			mu.Unlock(th)
		}
		bar.Wait(th)
		if got, want := th.ReadInt64(counter), int64(p*iters); got != want {
			t.Errorf("thread %d: counter = %d, want %d", th.ID(), got, want)
		}
	}); err != nil {
		t.Fatal(err)
	}

	longest := 0
	var got strings.Builder
	for i, body := range tap.grants {
		var g proto.LockGrant
		if err := proto.Decode(&g, body); err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		if n := g.Train.Len(); n > longest {
			longest = n
		}
		fmt.Fprintf(&got, "hop %d: %x\n", i, body)
	}
	if longest < 3 {
		t.Fatalf("longest forwarded train has %d entries over %d hops; the run exercises no convoy", longest, len(tap.grants))
	}
	if *updateConvoy {
		if err := os.WriteFile(convoyGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(convoyGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
