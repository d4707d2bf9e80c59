package manager

import (
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/layout"
	"repro/internal/proto"
)

// testdata/effects.golden pins everything a manager externalises over a
// scripted run of every client-plane request kind: each reply and each
// post as "dst kind at hex(body)", grouped by destination node in the
// order that node was sent them. (Order across nodes is not recorded:
// Shutdown fails the parked waiters of several locks in map order.) The
// file was written by the manager as it stood before its transitions
// queued their effects, driven through a sequenced fabric (commit 564a933
// has that driver); the same script now runs fabric-free through step and
// must reproduce it byte for byte.

const effectsGoldenPath = "testdata/effects.golden"

// effectsScript is the run. Thread t lives at node 10+t; node 19 is a
// controller that holds no synchronization state. With two homes, locks
// 2, 3, 4 and condition 8 are homed at shard 0 and locks 1, barriers 9,
// 11 and conditions 10, 13 at shard 1.
type effectsScript struct {
	e        *stepEnv
	interval map[uint32]uint64
}

// call delivers a request of thread t's and returns the body of its
// answer, nil when the call parks.
func (s *effectsScript) call(t uint32, m proto.Msg) []byte {
	return s.e.replies[s.e.send(10+t, m.Kind(), proto.Encode(m), false)].body
}

func (s *effectsScript) post(t uint32, m proto.Msg) {
	s.e.send(10+t, m.Kind(), proto.Encode(m), true)
}

// next closes thread t's current interval.
func (s *effectsScript) next(t uint32) uint64 {
	s.interval[t]++
	return s.interval[t]
}

func (s *effectsScript) lock(t, lock uint32, lastSeen uint64) {
	s.call(t, &proto.LockReq{Lock: lock, Thread: t, LastSeen: lastSeen})
}

func (s *effectsScript) unlock(t, lock, handedOff uint32, pages []uint64, records []proto.StoreRecord) *proto.UnlockReq {
	return &proto.UnlockReq{Lock: lock, Thread: t, Interval: s.next(t), Pages: pages, Records: records, HandedOff: handedOff}
}

func effectsRecords(seed byte) []proto.StoreRecord {
	return []proto.StoreRecord{
		{Addr: uint64(SharedZoneBase) + 8*uint64(seed), Data: []byte{seed, seed + 1, seed + 2}},
		{Addr: uint64(SharedZoneBase) + 4096, Data: []byte{0xff}},
	}
}

func (s *effectsScript) run(t *testing.T) {
	for th := uint32(1); th <= 4; th++ {
		s.call(th, &proto.RegisterReq{Thread: th})
	}

	// Lock 1: an uncontended acquire, two detached waiters, a handoff down
	// the announced train, a central release to a detached waiter, and a
	// one-way unlock.
	s.lock(1, 1, 0)
	s.lock(2, 1, 0)
	s.lock(3, 1, 0)
	s.call(1, s.unlock(1, 1, 2, []uint64{4, 5}, nil))
	s.call(2, s.unlock(2, 1, 0, nil, effectsRecords(1)))
	s.post(3, s.unlock(3, 1, 0, []uint64{6, proto.PackSpanExtent(16, 8)}, effectsRecords(2)))

	// Lock 2: three detached waiters behind the holder, so the central
	// grant to the first carries the other two as a train.
	s.lock(1, 2, 2)
	s.lock(2, 2, 1)
	s.lock(3, 2, 0)
	s.lock(4, 2, 0)
	s.call(1, s.unlock(1, 2, 0, []uint64{7}, nil))
	s.call(2, s.unlock(2, 2, 3, nil, nil))
	s.call(3, s.unlock(3, 2, 4, nil, effectsRecords(3)))
	s.post(4, s.unlock(4, 2, 0, []uint64{8}, nil))

	// A four-way barrier: three arrivals park, the fourth releases all.
	for th := uint32(1); th <= 4; th++ {
		br := &proto.BarrierReq{Barrier: 9, Count: 4, Thread: th, LastSeen: uint64(th), Interval: s.next(th), Pages: []uint64{20 + uint64(th)}}
		if th == 3 {
			br.Records = effectsRecords(4)
		}
		s.call(th, br)
	}

	// Condition 8 under lock 1, at different homes: the signalled waiter
	// queues behind the signaller, ahead of a detached waiter, and is
	// granted at the signaller's unlock.
	s.lock(1, 1, 8)
	s.call(1, &proto.CondWaitReq{Cond: 8, Lock: 1, Thread: 1, LastSeen: 8, Interval: s.next(1), Pages: []uint64{12}})
	s.lock(2, 1, 8)
	s.call(2, &proto.CondSignalReq{Cond: 8, Thread: 2})
	s.lock(3, 1, 8)
	s.call(2, s.unlock(2, 1, 0, []uint64{13}, nil))
	s.call(1, s.unlock(1, 1, 3, nil, effectsRecords(5)))
	s.call(3, s.unlock(3, 1, 0, nil, nil))

	// Condition 10 under lock 2: a broadcast wakes two waiters; the lock
	// is free, so the first is granted at once and the second queues.
	s.lock(1, 2, 12)
	s.call(1, &proto.CondWaitReq{Cond: 10, Lock: 2, Thread: 1, LastSeen: 12, Interval: s.next(1)})
	s.lock(3, 2, 12)
	s.call(3, &proto.CondWaitReq{Cond: 10, Lock: 2, Thread: 3, LastSeen: 12, Interval: s.next(3), Records: effectsRecords(6)})
	s.call(2, &proto.CondSignalReq{Cond: 10, Thread: 2, Broadcast: true})
	s.call(1, s.unlock(1, 2, 0, []uint64{14}, nil))
	s.call(3, s.unlock(3, 2, 0, nil, nil))

	// Allocation: each strategy and an unknown one, a free, a free outside
	// every zone, then snapshot, fork, the two-phase free of the fork and
	// the free of the original that releases the snapshot.
	addr := func(body []byte) uint64 {
		var resp proto.AllocResp
		if err := proto.Decode(&resp, body); err != nil {
			t.Fatalf("alloc answered % x: %v", body, err)
		}
		return resp.Addr
	}
	geo := layout.DefaultGeometry()
	s.call(1, &proto.AllocReq{Thread: 1, Size: 256 << 10, Align: 16, Strategy: proto.AllocArenaChunk, Seq: 1})
	shared := addr(s.call(1, &proto.AllocReq{Thread: 1, Size: 100, Align: 64, Strategy: proto.AllocShared, Seq: 2}))
	striped := addr(s.call(1, &proto.AllocReq{Thread: 1, Size: 4 * uint64(geo.PageSize), Strategy: proto.AllocStriped, Seq: 3}))
	s.call(1, &proto.AllocReq{Thread: 1, Size: 64, Strategy: 9, Seq: 4})
	s.call(1, &proto.FreeReq{Thread: 1, Addr: shared, Seq: 5})
	s.call(1, &proto.FreeReq{Thread: 1, Addr: 64})
	var snap proto.SnapshotASResp
	if err := proto.Decode(&snap, s.call(2, &proto.SnapshotASReq{Thread: 2, Base: striped, NPages: 4, Seq: 1})); err != nil {
		t.Fatal(err)
	}
	var fork proto.ForkASResp
	if err := proto.Decode(&fork, s.call(2, &proto.ForkASReq{Thread: 2, Snap: snap.Snap, Seq: 2})); err != nil {
		t.Fatal(err)
	}
	s.call(2, &proto.FreeReq{Thread: 2, Addr: fork.Base, Seq: 3})
	s.call(2, &proto.FreeReq{Thread: 2, Addr: fork.Base, Seq: 4, Unmapped: true})
	s.call(1, &proto.FreeReq{Thread: 1, Addr: striped, Seq: 6})

	// A kind that is no message, and a lock request cut short.
	s.e.send(19, proto.Kind(0x7fff), nil, false)
	s.e.send(19, proto.KLockReq, []byte{0x80}, false)

	// Shutdown with a detached lock waiter, a barrier arrival and a
	// condition waiter parked.
	s.lock(1, 3, 0)
	s.lock(2, 3, 0)
	s.lock(4, 4, 16)
	s.call(4, &proto.CondWaitReq{Cond: 13, Lock: 4, Thread: 4, LastSeen: 16, Interval: s.next(4), Pages: []uint64{15}})
	s.call(3, &proto.BarrierReq{Barrier: 11, Count: 2, Thread: 3, LastSeen: 16, Interval: s.next(3)})
	s.e.send(19, proto.KShutdown, nil, false)
}

// formatEffects renders the recorded sends, one line each, grouped by
// destination in ascending node order. Within a group the order is the
// slice's.
func formatEffects(sends []flushed) string {
	lines := slices.Clone(sends)
	slices.SortStableFunc(lines, func(a, b flushed) int { return int(a.node) - int(b.node) })
	var sb strings.Builder
	for _, l := range lines {
		body := "-"
		if len(l.body) > 0 {
			body = hex.EncodeToString(l.body)
		}
		fmt.Fprintf(&sb, "%d %v %d %s\n", l.node, l.kind, l.at, body)
	}
	return sb.String()
}

// runEffects runs the script on a fresh two-home manager, calling
// afterStep, if set, after every step, and renders what it sent.
func runEffects(t *testing.T, afterStep func(*Manager)) string {
	e := newStepEnv(t, 2, 0, nil)
	e.mgr.SetSequenced(true)
	e.afterStep = afterStep
	(&effectsScript{e: e, interval: make(map[uint32]uint64)}).run(t)
	return formatEffects(e.sends)
}

func TestEffectsGolden(t *testing.T) {
	got := runEffects(t, nil)

	if *update {
		if err := os.WriteFile(effectsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(effectsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("the manager's sends differ from %s:\n%s", effectsGoldenPath, diffLines(string(want), got))
	}
}

// diffLines reports the first line at which two texts differ.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, gl, wl)
		}
	}
	return "no difference"
}

// A handler keeps fields or slices of the message it serves, never the
// message, which is the manager's scratch (decodeReq). Garbage written
// over every scratch message after every step must therefore change
// nothing the manager sends.
func TestScratchKeepsNothing(t *testing.T) {
	got := runEffects(t, func(m *Manager) { poison(reflect.ValueOf(&m.scratch).Elem()) })
	want, err := os.ReadFile(effectsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("with its scratch poisoned after every step, the manager's sends differ from %s:\n%s", effectsGoldenPath, diffLines(string(want), got))
	}
}

// poison overwrites v and all it holds with garbage: every number all
// ones, every flag set, every list one poisoned element long.
func poison(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			poison(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		poison(v.Index(0))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(^uint64(0))
	}
}
