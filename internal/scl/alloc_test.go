//go:build !race

package scl

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/simnet"
	"repro/internal/vtime"
)

// A simulated receive is a value: answering a call through a SimEndpoint,
// Recv then ReplyBody, allocates the fabric's Message and nothing else
// when the answer's body is the responder's own.
func TestSimRecvReplyAllocs(t *testing.T) {
	f := simnet.NewFabric(testModel)
	srv, cli := NewSimEndpoint(f, 1), NewSimEndpoint(f, 2)
	answer := []byte{1, 2, 3}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			req, ok := srv.Recv()
			if !ok {
				return
			}
			req.ReplyBody(proto.KAck, answer, req.Arrive()+req.Svc())
		}
	}()
	body := make([]byte, 16)
	var at vtime.Time
	var err error
	call := func() { _, _, at, err = cli.port.Call(1, uint16(proto.KPing), body, at) }
	for i := 0; i < 64; i++ { // fill the fabric's pool of reply channels
		call()
	}
	got := testing.AllocsPerRun(200, call)
	cli.Close()
	srv.Close()
	<-done
	if err != nil || got > 1 {
		t.Fatalf("a call answered through Recv and ReplyBody allocates %v objects (err %v), want at most 1", got, err)
	}
}
