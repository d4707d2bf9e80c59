//go:build !race

package manager

import (
	"runtime"
	"testing"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/scl"
	"repro/internal/vtime"
)

// A request decodes into the manager's scratch, and an acquire's answer
// is encoded straight from the notice directory. Through a fake endpoint
// that keeps nothing, a step of a LockReq therefore allocates its encoded
// answer and nothing else: no LockReq, no copy of the backlog (the
// releaser's own last notice, since it quotes horizon 0). A step of an
// UnlockReq allocates at most the directory's array for the notice it
// stores, which slides as the directory prunes, and no UnlockReq.
func TestStepAllocatesNoMessage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := New(nil, layout.DefaultGeometry())
	m.now = stepEpoch
	step := func(msg proto.Msg) func() {
		req := scl.NewRequest(11, msg.Kind(), proto.Encode(msg), func(uint16, []byte, vtime.Time) {}).At(1<<20, 0)
		return func() {
			c := req
			m.step(&c)
			m.out.Flush()
		}
	}
	lock := step(&proto.LockReq{Lock: 3, Thread: 1})
	unlock := step(&proto.UnlockReq{Lock: 3, Thread: 1, Interval: 1})
	for i := 0; i < 16; i++ {
		lock()
		unlock()
	}
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	const runs = 200
	var locks, unlocks uint64
	for i := 0; i < runs; i++ {
		at := mallocs()
		lock()
		mid := mallocs()
		unlock()
		locks, unlocks = locks+mid-at, unlocks+mallocs()-mid
	}
	// Whole objects per step, as testing.AllocsPerRun counts them: the
	// collector may allocate the odd object of its own meanwhile.
	if got := locks / runs; got > 1 {
		t.Errorf("a LockReq step allocates %d objects, want at most 1 (its answer)", got)
	}
	if got := unlocks / runs; got > 1 {
		t.Errorf("an UnlockReq step allocates %d objects, want at most 1 (the directory's array)", got)
	}
}
