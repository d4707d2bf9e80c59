package manager

import (
	"bytes"
	"testing"

	"repro/internal/proto"
)

// Two-phase fork free at the snapState level: phase one drops the fork
// entry and its snapshot reference (releasing the snapshot only when
// the handle is already gone), and freeing the original image drops
// exactly one handle reference per snapshot even if the address is
// recycled and freed again.
func TestSnapStateForkFreeAndOriginFree(t *testing.T) {
	ss := newSnapState()
	ss.nextSnap = 1
	ss.snaps[1] = &snapInfo{origBase: 0x1000, npages: 4, refs: 1}

	// Two forks of snapshot 1.
	ss.snaps[1].refs += 2
	ss.forks[0x2000] = 1
	ss.forks[0x3000] = 1

	resp := ss.forkFree(0x2000, 1)
	if !resp.Fork || resp.Snap != 1 || resp.NPages != 4 {
		t.Fatalf("forkFree resp = %+v, want Fork snap 1 npages 4", resp)
	}
	if len(resp.Release) != 0 {
		t.Fatalf("first fork free released %v, want nothing (handle + one fork remain)", resp.Release)
	}
	if _, ok := ss.forks[0x2000]; ok {
		t.Fatal("fork entry survived phase one")
	}

	// Freeing the original image drops the handle ref; the remaining
	// fork still pins the record.
	release, npages := ss.originFreed(0x1000)
	if len(release) != 0 || npages != 0 {
		t.Fatalf("originFreed with a live fork released %v, want nothing", release)
	}
	if ss.snaps[1] == nil || !ss.snaps[1].handleGone || ss.snaps[1].refs != 1 {
		t.Fatalf("snapInfo after origin free = %+v, want handleGone refs=1", ss.snaps[1])
	}
	// A recycled allocation at the same base must not drop the handle
	// again (that would release frames under the live fork).
	if release, _ := ss.originFreed(0x1000); len(release) != 0 {
		t.Fatalf("second origin free released %v, want nothing (handle already gone)", release)
	}
	if ss.snaps[1] == nil {
		t.Fatal("double origin free released the record under a live fork")
	}

	// The last fork free releases the record and names it for the homes.
	resp = ss.forkFree(0x3000, 1)
	if len(resp.Release) != 1 || resp.Release[0] != 1 {
		t.Fatalf("last fork free released %v, want [1]", resp.Release)
	}
	if _, ok := ss.snaps[1]; ok {
		t.Fatal("snapshot record survived refcount zero")
	}
}

// A snapshot with no forks is released by the origin free alone.
func TestSnapStateOriginFreeReleasesForklessSnapshot(t *testing.T) {
	ss := newSnapState()
	ss.snaps[3] = &snapInfo{origBase: 0x5000, npages: 7, refs: 1}
	ss.snaps[4] = &snapInfo{origBase: 0x9000, npages: 2, refs: 1}
	release, npages := ss.originFreed(0x5000)
	if len(release) != 1 || release[0] != 3 || npages != 7 {
		t.Fatalf("originFreed = %v/%d, want [3]/7", release, npages)
	}
	if _, ok := ss.snaps[4]; !ok {
		t.Fatal("unrelated snapshot released")
	}
}

// The replicated-state encoding round-trips the table, handleGone
// included.
func TestSnapStateEncodeRoundTrip(t *testing.T) {
	ss := newSnapState()
	ss.nextSnap = 9
	ss.snaps[2] = &snapInfo{origBase: 0x1000, npages: 4, refs: 2, handleGone: true}
	ss.forks[0x2000] = 2

	enc := proto.Marshal(func(c *proto.Codec) { walkSnapState(c, ss) })

	got := newSnapState()
	if err := proto.Unmarshal(enc, func(c *proto.Codec) { walkSnapState(c, got) }); err != nil {
		t.Fatalf("decode: %v", err)
	}
	si := got.snaps[2]
	if si == nil || si.origBase != 0x1000 || si.npages != 4 || si.refs != 2 || !si.handleGone {
		t.Fatalf("decoded snapInfo = %+v", si)
	}
	if got.forks[0x2000] != 2 {
		t.Fatalf("decoded forks = %v", got.forks)
	}

	if again := proto.Marshal(func(c *proto.Codec) { walkSnapState(c, got) }); !bytes.Equal(enc, again) {
		t.Fatal("snapState encoding does not round-trip byte-identically")
	}
}
