package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

// agentOn builds a thread's cache and its agent with no fabric: a step's
// only inputs are the request and the thread's state, and what it queues
// waits in the agent's outbox. The thread's ledger is a tally.
func agentOn() *agent {
	rt := &Runtime{cfg: testConfig(), gate: new(tallyGate)}
	rt.cfg.fillDefaults()
	th := &Thread{rt: rt, writer: 1, clock: vtime.NewClock(0)}
	th.initCache()
	return &agent{t: th}
}

// tallyGate counts the tokens issued and given up.
type tallyGate struct{ resumed, paused int }

func (g *tallyGate) Resume() { g.resumed++ }
func (g *tallyGate) Pause()  { g.paused++ }

var _ simnet.Gate = (*tallyGate)(nil)

// agentCall is one request to the agent: m arriving at at (arrival plus
// service), answerable unless oneWay.
type agentCall struct {
	kind   proto.Kind
	body   []byte
	at     vtime.Time
	oneWay bool
}

func callOf(m proto.Msg, at vtime.Time, oneWay bool) agentCall {
	return agentCall{m.Kind(), proto.Encode(m), at, oneWay}
}

// request makes the request c arrives as; its answer, rendered, goes to
// answered.
func (c agentCall) request(answered func(string)) scl.Request {
	var reply func(uint16, []byte, vtime.Time)
	if !c.oneWay {
		reply = func(kind uint16, body []byte, at vtime.Time) { answered(render(proto.Kind(kind), body, at)) }
	}
	return scl.NewRequest(200, c.kind, c.body, reply).At(c.at, 0)
}

// render describes one answer, decoded.
func render(kind proto.Kind, body []byte, at vtime.Time) string {
	m := proto.New(kind)
	if err := proto.Decode(m, body); err != nil {
		return fmt.Sprintf("undecodable %v: %v", kind, err)
	}
	if r, ok := m.(*proto.DiffPullResp); ok {
		var b strings.Builder
		for _, d := range r.Diffs {
			fmt.Fprintf(&b, " page %d: %d bytes in %d runs", d.Page, d.PayloadBytes(), len(d.Runs))
		}
		return fmt.Sprintf("%v at %d:%s", kind, at, b.String())
	}
	return fmt.Sprintf("%v at %d: %+v", kind, at, m)
}

func TestAgentStepTable(t *testing.T) {
	const page = layout.PageID(3)
	cpu := vtime.DefaultCPU
	if cpu.CopyTime(1024) == 0 {
		t.Fatal("copying a KiB is free; the pricing row cannot see copy time")
	}
	for _, tc := range []struct {
		name  string
		setup func(a *agent)
		calls []agentCall
		want  []string // the answers sent and the grants handed over, after each step in turn
		check func(t *testing.T, a *agent)
	}{
		{
			name: "a pull is priced from its own arrival plus copy time",
			setup: func(a *agent) {
				cur, twin := make([]byte, 4096), make([]byte, 4096)
				for i := 1024; i < 2048; i++ {
					cur[i] = 1
				}
				a.t.cache.Owned().PutDiff(page, cur, twin)
			},
			calls: []agentCall{
				callOf(&proto.DiffPullReq{Pages: []uint64{uint64(page)}}, 1000, false),
				callOf(&proto.DiffPullReq{Pages: []uint64{uint64(page)}}, 400, false),
			},
			want: []string{
				fmt.Sprintf("diff-pull-resp at %d: page 3: 1024 bytes in 1 runs", 1000+cpu.CopyTime(1024)),
				// Taken by the first pull: the second, virtually earlier,
				// is answered from its own arrival, not after the first.
				"diff-pull-resp at 400:",
			},
		},
		{
			name:  "an undecodable pull is answered with an error",
			calls: []agentCall{{proto.KDiffPullReq, []byte{0xff, 0xff, 0xff}, 700, false}},
			want:  []string{"error at 700: &{Code:0 Text:proto: truncated message}"},
		},
		{
			name: "a newer announcement installs, an older one is ignored",
			calls: []agentCall{
				callOf(&proto.NextWaiter{Lock: 7, Gen: 5, Seq: 11}, 100, true),
				callOf(&proto.NextWaiter{Lock: 7, Gen: 4, Seq: 12}, 200, true),
				callOf(&proto.NextWaiter{Lock: 7, Gen: 6, Seq: 13}, 300, true),
				callOf(&proto.NextWaiter{Lock: 7, Gen: 5, Seq: 14}, 400, true),
			},
			check: func(t *testing.T, a *agent) {
				if ss := a.t.ho.succ[7]; ss == nil || ss.gen != 6 || ss.seq != 13 {
					t.Errorf("lock 7's train is %+v, want gen 6 seq 13", ss)
				}
			},
		},
		{
			// The box keeps it, and no token floats: the waiter that comes
			// later never parks.
			name: "a grant that arrives before the park is stashed",
			calls: []agentCall{
				callOf(&proto.LockGrant{Lock: 9, Gen: 2, Seq: 4}, 900, true),
			},
			want: []string{"grant lock 9 gen 2 at 900, 0 tokens issued"},
			check: func(t *testing.T, a *agent) {
				if gm := a.t.awaitGrant(9); gm.g.Gen != 2 || gm.at != 900 {
					t.Errorf("the waiter took %+v, want gen 2 at 900", gm)
				}
				if g := a.t.rt.gate.(*tallyGate); g.paused != 0 {
					t.Errorf("the waiter gave up %d tokens for a grant it had", g.paused)
				}
			},
		},
		{
			name: "a grant that arrives after the park wakes the waiter",
			setup: func(a *agent) {
				a.t.ho.mu.Lock()
				b := a.t.grantBox(9)
				a.t.ho.mu.Unlock()
				b.h.Park()
			},
			calls: []agentCall{
				callOf(&proto.LockGrant{Lock: 9, Gen: 2, Seq: 4}, 900, true),
			},
			want: []string{"grant lock 9 gen 2 at 900, 1 tokens issued"},
		},
		{
			name: "an unexpected kind is answered with an error, or dropped if one-way",
			calls: []agentCall{
				callOf(&proto.Ping{}, 50, false),
				callOf(&proto.Ping{}, 60, true),
			},
			want: []string{"error at 50: &{Code:0 Text:core: agent got unexpected ping}"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := agentOn()
			if tc.setup != nil {
				tc.setup(a)
			}
			var got []string
			answered := func(s string) { got = append(got, s) }
			for _, c := range tc.calls {
				req := c.request(answered)
				a.step(&req)
				a.out.Flush()
				for lock, b := range a.t.ho.grants {
					if len(b.ch) > 0 {
						gm := <-b.ch
						b.ch <- gm
						got = append(got, fmt.Sprintf("grant lock %d gen %d at %d, %d tokens issued", lock, gm.g.Gen, gm.at, a.t.rt.gate.(*tallyGate).resumed))
					}
				}
			}
			if len(got) != len(tc.want) {
				t.Fatalf("effects:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("effect %d:\n got %s\nwant %s", i, got[i], tc.want[i])
				}
			}
			if tc.check != nil {
				tc.check(t, a)
			}
		})
	}
}
