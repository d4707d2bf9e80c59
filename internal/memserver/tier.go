package memserver

import (
	"encoding/binary"
	"sort"

	"repro/internal/layout"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// ---------------------------------------------------------------------------
// Word-run page codec.
//
// Pages in the cold tier (and sealed snapshot frames) are stored under a
// word-run encoding that reuses the diffPage observation: DSM pages are
// dominated by long runs of zero words. The stream is a sequence of
// varint-headed runs over 8-byte words — header h encodes kind = h&1 and
// length n = h>>1 words; kind 0 is a zero run (no payload), kind 1 is a
// literal run followed by n*8 raw bytes. Any non-word tail of the page is
// appended raw. An all-zero page encodes to ~2 bytes.
// ---------------------------------------------------------------------------

func putUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

// compressPage encodes page into the word-run format, appending to dst
// (which may be nil) and returning the result.
func compressPage(dst, page []byte) []byte {
	words := len(page) / 8
	i := 0
	for i < words {
		if binary.LittleEndian.Uint64(page[i*8:]) == 0 {
			j := i + 1
			for j < words && binary.LittleEndian.Uint64(page[j*8:]) == 0 {
				j++
			}
			dst = putUvarint(dst, uint64(j-i)<<1)
			i = j
			continue
		}
		j := i + 1
		for j < words && binary.LittleEndian.Uint64(page[j*8:]) != 0 {
			j++
		}
		dst = putUvarint(dst, uint64(j-i)<<1|1)
		dst = append(dst, page[i*8:j*8]...)
		i = j
	}
	dst = append(dst, page[words*8:]...)
	return dst
}

// decompressPage decodes a word-run stream into page, which must be the
// original page length. A nil blob is the implicit all-zero frame. The
// destination is fully overwritten (zero runs clear it), so a dirty
// scratch buffer is fine.
func decompressPage(page, blob []byte) {
	words := len(page) / 8
	w := 0
	off := 0
	for w < words {
		h, n := binary.Uvarint(blob[off:])
		if n <= 0 {
			break // truncated — treat the rest as zero
		}
		off += n
		run := int(h >> 1)
		if run > words-w {
			run = words - w
		}
		if h&1 == 0 {
			clear(page[w*8 : (w+run)*8])
		} else {
			// Bound the literal payload by what the blob actually holds so
			// a truncated or corrupt stream degrades to zero fill (like the
			// truncated-header case) instead of panicking.
			end := off + run*8
			if end > len(blob) {
				end = len(blob)
			}
			n := copy(page[w*8:(w+run)*8], blob[off:end])
			off = end
			if n < run*8 {
				clear(page[w*8+n : (w+run)*8])
			}
		}
		w += run
	}
	clear(page[w*8 : words*8])
	tail := page[words*8:]
	n := copy(tail, blob[off:])
	clear(tail[n:])
}

// ---------------------------------------------------------------------------
// tierStore: per-shard two-tier page store.
//
// The hot set is the shard's ordinary pages map, tracked here by an
// intrusive LRU list with a byte budget; pages past the budget are
// demoted — word-run compressed into the cold map and removed from the
// pages map. Demotion is deferred: operations run against the hot set
// unconstrained and enforce() trims back to budget when the operation
// completes, so a page can never be demoted out from under a two-phase
// apply. Every tier move accrues virtual time into sh.pending (the
// configured TierModel's latency + bandwidth), which the enclosing
// operation drains into its work term.
// ---------------------------------------------------------------------------

type tierStore struct {
	budget   int64
	model    vtime.TierModel
	st       *stats.Tier
	hotBytes int64
	cold     map[layout.PageID][]byte
	nodes    map[layout.PageID]*tierNode
	head     *tierNode // least recently used
	tail     *tierNode // most recently used
}

type tierNode struct {
	p          layout.PageID
	prev, next *tierNode
}

func newTierStore(budget int64, model vtime.TierModel, st *stats.Tier) *tierStore {
	return &tierStore{
		budget: budget,
		model:  model,
		st:     st,
		cold:   make(map[layout.PageID][]byte),
		nodes:  make(map[layout.PageID]*tierNode),
	}
}

func (t *tierStore) unlink(n *tierNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (t *tierStore) pushMRU(n *tierNode) {
	n.prev = t.tail
	if t.tail != nil {
		t.tail.next = n
	} else {
		t.head = n
	}
	t.tail = n
}

// touch marks an already-hot page most recently used.
func (t *tierStore) touch(p layout.PageID) {
	n, ok := t.nodes[p]
	if !ok {
		return
	}
	if t.tail != n {
		t.unlink(n)
		t.pushMRU(n)
	}
}

// noteHot registers a newly materialized hot page.
func (t *tierStore) noteHot(sh *shard, p layout.PageID) {
	if _, ok := t.nodes[p]; ok {
		return
	}
	n := &tierNode{p: p}
	t.nodes[p] = n
	t.pushMRU(n)
	t.hotBytes += int64(sh.srv.geo.PageSize)
}

// promote moves a cold page back into the hot set, returning it, or nil
// if the page is not in the cold tier.
func (t *tierStore) promote(sh *shard, p layout.PageID) []byte {
	blob, ok := t.cold[p]
	if !ok {
		return nil
	}
	delete(t.cold, p)
	b := make([]byte, sh.srv.geo.PageSize)
	decompressPage(b, blob)
	sh.pages[p] = b
	t.noteHot(sh, p)
	sh.pending += t.model.MoveTime(len(blob))
	t.st.Promotions.Add(1)
	t.st.ColdBytes.Add(-int64(len(b)))
	t.st.CompressedBytes.Add(-int64(len(blob)))
	return b
}

// forget removes a hot page's LRU bookkeeping (the caller deletes the
// page itself from sh.pages). Used when a dead fork's private pages are
// discarded rather than demoted.
func (t *tierStore) forget(sh *shard, p layout.PageID) {
	n, ok := t.nodes[p]
	if !ok {
		return
	}
	t.unlink(n)
	delete(t.nodes, p)
	t.hotBytes -= int64(sh.srv.geo.PageSize)
}

// dropCold discards a cold-tier blob without promoting it.
func (t *tierStore) dropCold(sh *shard, p layout.PageID) {
	blob, ok := t.cold[p]
	if !ok {
		return
	}
	delete(t.cold, p)
	t.st.ColdDrops.Add(1)
	t.st.ColdBytes.Add(-int64(sh.srv.geo.PageSize))
	t.st.CompressedBytes.Add(-int64(len(blob)))
}

// enforce demotes least-recently-used pages until the hot set fits the
// budget again. Called at the end of each shard operation.
func (t *tierStore) enforce(sh *shard) {
	for t.hotBytes > t.budget && t.head != nil {
		n := t.head
		t.unlink(n)
		delete(t.nodes, n.p)
		b := sh.pages[n.p]
		delete(sh.pages, n.p)
		t.hotBytes -= int64(sh.srv.geo.PageSize)
		blob := compressPage(nil, b)
		t.cold[n.p] = blob
		sh.pending += t.model.MoveTime(len(blob))
		t.st.Demotions.Add(1)
		t.st.ColdBytes.Add(int64(len(b)))
		t.st.CompressedBytes.Add(int64(len(blob)))
	}
}

// ---------------------------------------------------------------------------
// snapStore: server-level sealed snapshot frames and fork mappings.
//
// Sealed frames are keyed by the original page id and shared by every
// fork of the snapshot; a fork costs one range entry here plus a manager
// allocation — no page copies. Frames live at server (not shard) level
// because ShardOf is not congruent between an original page and its
// image in a fork range, so a shard serving a forked page may need a
// frame another shard sealed.
// ---------------------------------------------------------------------------

type snapStore struct {
	snaps map[uint64]map[layout.PageID][]byte // snap id -> orig page -> frame
	forks []forkRange                         // sorted by base page
}

type forkRange struct {
	base   layout.PageID // first page of the fork's range
	orig   layout.PageID // first page of the snapshotted range
	npages uint64
	snap   uint64
}

func newSnapStore() *snapStore {
	return &snapStore{snaps: make(map[uint64]map[layout.PageID][]byte)}
}

// ensure creates the frame map for a snapshot so that "sealed with zero
// frames" is distinguishable from "never sealed here".
func (ss *snapStore) ensure(snap uint64) map[layout.PageID][]byte {
	m := ss.snaps[snap]
	if m == nil {
		m = make(map[layout.PageID][]byte)
		ss.snaps[snap] = m
	}
	return m
}

// store records one sealed frame (blob nil means explicit zero; zero
// pages are normally just omitted).
func (ss *snapStore) store(snap uint64, p layout.PageID, blob []byte) {
	ss.snaps[snap][p] = blob
}

// register adds (or idempotently re-adds) a fork range mapping and
// returns the net change in registered ranges. Any existing range
// overlapping the new one is stale — the manager only reissues striped
// space after the old fork was unmapped here, so a survivor means a
// lost unmap — and is dropped so a dead fork can never shadow the new
// range's pages (lookup resolves through the single greatest-base
// entry and relies on ranges being disjoint).
func (ss *snapStore) register(fr forkRange) int {
	end := fr.base + layout.PageID(fr.npages)
	kept := ss.forks[:0]
	removed := 0
	for _, old := range ss.forks {
		if old.base < end && fr.base < old.base+layout.PageID(old.npages) {
			removed++
			continue
		}
		kept = append(kept, old)
	}
	ss.forks = kept
	i := sort.Search(len(ss.forks), func(i int) bool { return ss.forks[i].base >= fr.base })
	ss.forks = append(ss.forks, forkRange{})
	copy(ss.forks[i+1:], ss.forks[i:])
	ss.forks[i] = fr
	return 1 - removed
}

// unregister removes the fork range rooted at base, reporting whether
// one was registered.
func (ss *snapStore) unregister(base layout.PageID) bool {
	i := sort.Search(len(ss.forks), func(i int) bool { return ss.forks[i].base >= base })
	if i >= len(ss.forks) || ss.forks[i].base != base {
		return false
	}
	ss.forks = append(ss.forks[:i], ss.forks[i+1:]...)
	return true
}

// release drops a snapshot's sealed frames once the manager's refcount
// reaches zero, returning how many frames were held. Fork ranges still
// pointing at the snapshot (none should exist — the manager releases
// only after every fork is gone) are dropped defensively so lookup can
// never resolve through a released snapshot.
func (ss *snapStore) release(snap uint64) int {
	frames, ok := ss.snaps[snap]
	if !ok {
		return 0
	}
	delete(ss.snaps, snap)
	kept := ss.forks[:0]
	for _, fr := range ss.forks {
		if fr.snap != snap {
			kept = append(kept, fr)
		}
	}
	ss.forks = kept
	return len(frames)
}

// lookup resolves page p through the fork table: if p falls inside a
// registered fork range it returns the sealed frame for the congruent
// original page (nil frame = zero page) and ok=true.
func (ss *snapStore) lookup(p layout.PageID) (blob []byte, ok bool) {
	i := sort.Search(len(ss.forks), func(i int) bool { return ss.forks[i].base > p })
	if i == 0 {
		return nil, false
	}
	fr := ss.forks[i-1]
	off := uint64(p - fr.base)
	if off >= fr.npages {
		return nil, false
	}
	frames, sealed := ss.snaps[fr.snap]
	if !sealed {
		return nil, false
	}
	return frames[fr.orig+layout.PageID(off)], true
}
