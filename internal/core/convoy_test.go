package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps/kernels"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/vm"
	"repro/internal/vtime"
)

var updateConvoy = flag.Bool("update", false, "rewrite testdata/convoy.golden, testdata/convoy_hops.golden and testdata/client.golden from the current code")

const (
	convoyGolden = "testdata/convoy.golden"
	// hopsGolden pins the same hops with the train left out: what each
	// receiver is granted, whatever form the train behind it takes.
	hopsGolden = "testdata/convoy_hops.golden"
)

// grantTap is a Transport whose endpoints record the body of every
// LockGrant they post, its sender and its receiver: the peer-to-peer
// hops of a handoff convoy, in lock order (each hop's post happens
// before its receiver's).
type grantTap struct {
	Transport
	mu         sync.Mutex
	grants     [][]byte
	srcs, dsts []scl.NodeID
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
		e.tap.srcs = append(e.tap.srcs, e.ID())
		e.tap.dsts = append(e.tap.dsts, dst)
		e.tap.mu.Unlock()
	}
	return e.Endpoint.Post(dst, m, at)
}

// oldHop is a LockGrant in the layout grants had before their receiver's
// backlog moved into the train: Notices, the receiver's backlog, ahead of
// Inline, and an empty train. convoy_hops.golden is written in it.
type oldHop struct {
	Lock            uint32
	Gen, Seq        uint64
	Notices, Inline []proto.Notice
	PageData        []proto.PagePayload
	Code            uint16
}

func (*oldHop) Kind() proto.Kind { return proto.KLockGrant }

func (m *oldHop) Walk(c *proto.Codec) {
	c.U32(&m.Lock)
	c.U64(&m.Gen)
	c.U64(&m.Seq)
	proto.Notices(c, &m.Notices)
	proto.Notices(c, &m.Inline)
	var train uint64 // no entries
	c.U64(&train)
	proto.List(c, &m.PageData, func(c *proto.Codec, p *proto.PagePayload) {
		c.U64(&p.Page)
		c.Payload(&p.Data)
	})
	c.U16(&m.Code)
}

// hopOf is what g hands its receiver, in oldHop's layout: the backlog at
// the head of its train, its Inline intervals and its pages.
func hopOf(g *proto.LockGrant) *oldHop {
	own, _ := g.Train.Head()
	return &oldHop{
		Lock: g.Lock, Gen: g.Gen, Seq: g.Seq,
		Notices: own.Notices.Notices(), Inline: g.Inline.Notices(),
		PageData: g.PageData, Code: g.Code,
	}
}

// Every hop of a handoff convoy forwards the announcement train it was
// handed. testdata/convoy.golden holds the LockGrant body of every hop
// of one contended run. testdata/convoy_hops.golden holds every hop's
// receiver and what the hop hands it, with the train behind it left out
// (hopOf), written before trains shared one backlog: a change to how
// trains travel may move convoy.golden, never convoy_hops.golden. The
// run is sequenced, so the hops and their bodies repeat exactly.
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
	var bodies, hops strings.Builder
	for i, body := range tap.grants {
		var g proto.LockGrant
		if err := proto.Decode(&g, body); err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		if n := g.Train.Len(); n > longest {
			longest = n
		}
		fmt.Fprintf(&bodies, "hop %d: %x\n", i, body)
		fmt.Fprintf(&hops, "hop %d to %d: %x\n", i, tap.dsts[i], proto.Encode(hopOf(&g)))
	}
	if longest < 3 {
		t.Fatalf("longest forwarded train has %d entries over %d hops; the run exercises no convoy", longest, len(tap.grants))
	}
	compareGolden(t, convoyGolden, bodies.String())
	compareGolden(t, hopsGolden, hops.String())
}

// compareGolden fails at the first line of got that differs from the
// file at path, or rewrites the file under -update.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateConvoy {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, g, w)
		}
	}
}

// noticeBytes reports what g's Train adds to the grant's body (the
// receiver's backlog and the waiters behind it), and the encoded size of
// the longest backlog among its entries.
func noticeBytes(g *proto.LockGrant, body []byte) (train, longest int) {
	without := *g
	without.Train = proto.Train{}
	empty := len(proto.Encode(&proto.LockGrant{}))
	train = len(body) - len(proto.Encode(&without)) + 1 // the empty train's count byte
	for tr := g.Train; tr.Len() > 0; {
		head, rest := tr.Head()
		longest = max(longest, len(proto.Encode(&proto.LockGrant{Inline: head.Notices}))-empty+1)
		tr = rest
	}
	return train, longest
}

// Every backlog of a train ends at the same anchor, so a grant need not
// carry more notice bytes than its train's longest backlog, however many
// waiters it names: a convoy of k waiters must not forward k backlogs at
// every hop, and a grant must not carry its receiver's backlog beside the
// train it heads. On the sequenced micro-benchmark at P=64, every
// peer-forwarded grant's notice bytes are at most the longest backlog in
// its train plus 16 bytes per entry.
func TestConvoyTrainBytesBudget(t *testing.T) {
	const p, perEntry = 64, 16
	cfg := DefaultConfig()
	cfg.Geo.NumServers = 4
	cfg.ManagerShards = 4
	rt := newRuntime(t, cfg)
	tap := &grantTap{Transport: rt.transport}
	rt.transport = tap
	if _, err := kernels.RunMicro(rt, p, kernels.MicroParams{N: 3, M: 5, S: 1, B: 64, Mode: kernels.AllocStrided}); err != nil {
		t.Fatal(err)
	}
	convoys := 0
	for i, body := range tap.grants {
		var g proto.LockGrant
		if err := proto.Decode(&g, body); err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		n := g.Train.Len()
		if n > 2 {
			convoys++
		}
		notices, longest := noticeBytes(&g, body)
		if notices > longest+perEntry*n {
			t.Fatalf("hop %d carries %d notice bytes in a %d-entry train; its longest backlog is %d bytes, so the budget is %d",
				i, notices, n, longest, longest+perEntry*n)
		}
	}
	if convoys == 0 {
		t.Fatalf("none of %d peer-forwarded grants carries a train of two or more waiters behind its receiver", len(tap.grants))
	}
}
