package pagecache

import (
	"sync"

	"repro/internal/layout"
	"repro/internal/proto"
)

// OwnedStore retains the release-time diffs of lazily-owned pages — the
// single-writer optimization. A page that no other thread has touched
// costs its writer nothing at a release beyond the local diff: the
// bytes stay here, the home only records an ownership claim, and when
// some other thread eventually fetches the page the home pulls the
// retained diff on demand. For a workload like Jacobi, where each
// thread rewrites its whole block every iteration but only block
// boundaries are ever shared, this removes almost all release-time data
// movement — which is what lets the system scale past the memory
// server's ingest bandwidth.
//
// The store is shared between the owning thread (which deposits diffs
// at releases and withdraws them at evictions) and the thread's cache
// agent goroutine (which serves DiffPull requests from homes while the
// thread computes), so it is mutex-guarded.
//
// Diffs for one page accumulate across releases; they are kept as a
// byte overlay plus a dirty mask so that successive intervals merge and
// a pull returns one minimal run set.
type OwnedStore struct {
	mu       sync.Mutex
	pageSize int
	pages    map[layout.PageID]*ownedPage
}

type ownedPage struct {
	data []byte
	mask []bool
}

// NewOwnedStore creates a store for pages of the given size.
func NewOwnedStore(pageSize int) *OwnedStore {
	return &OwnedStore{pageSize: pageSize, pages: make(map[layout.PageID]*ownedPage)}
}

// PutDiff merges the bytes of cur that differ from twin straight into
// the page's retained overlay, and reports whether any did. It is the
// release path of a lazily-owned page: no run list is built, and once
// the page has an overlay nothing is allocated. The overlay is created
// on the first real difference only, so a silent store leaves no trace.
func (s *OwnedStore) PutDiff(p layout.PageID, cur, twin []byte) bool {
	i, j := nextRun(cur, twin, 0)
	if i >= len(cur) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.overlayLocked(p)
	for ; i < len(cur); i, j = nextRun(cur, twin, j) {
		copy(op.data[i:j], cur[i:j])
		for k := i; k < j; k++ {
			op.mask[k] = true
		}
	}
	return true
}

func (s *OwnedStore) overlayLocked(p layout.PageID) *ownedPage {
	op, ok := s.pages[p]
	if !ok {
		op = &ownedPage{data: make([]byte, s.pageSize), mask: make([]bool, s.pageSize)}
		s.pages[p] = op
	}
	return op
}

// Take removes and returns the retained diff of one page, or nil if the
// store holds nothing for it.
func (s *OwnedStore) Take(p layout.PageID) []proto.DiffRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.takeLocked(p)
}

// nextMasked finds the first maximal run of set mask entries at or after
// from: mask[i:j]; i == len(mask) when there is none.
func nextMasked(mask []bool, from int) (i, j int) {
	i = from
	for i < len(mask) && !mask[i] {
		i++
	}
	j = i
	for j < len(mask) && mask[j] {
		j++
	}
	return i, j
}

// takeLocked builds the run list the way diffPage does: one run slice
// and one data arena.
func (s *OwnedStore) takeLocked(p layout.PageID) []proto.DiffRun {
	op, ok := s.pages[p]
	if !ok {
		return nil
	}
	delete(s.pages, p)
	return collectRuns(op.data, func(from int) (int, int) { return nextMasked(op.mask, from) })
}

// TakeMany removes and returns the retained diffs for the listed pages;
// pages with no retained data are omitted from the result.
func (s *OwnedStore) TakeMany(pages []uint64) []proto.PageDiff {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []proto.PageDiff
	for _, pu := range pages {
		if runs := s.takeLocked(layout.PageID(pu)); runs != nil {
			out = append(out, proto.PageDiff{Page: pu, Runs: runs})
		}
	}
	return out
}

// DrainAll removes and returns everything — used for the final flush
// when a thread retires, so homes become self-sufficient.
func (s *OwnedStore) DrainAll() []proto.PageDiff {
	s.mu.Lock()
	pages := make([]uint64, 0, len(s.pages))
	for p := range s.pages {
		pages = append(pages, uint64(p))
	}
	s.mu.Unlock()
	return s.TakeMany(pages)
}

// Len reports the number of pages with retained diffs.
func (s *OwnedStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// PayloadBytes reports the total retained dirty bytes (for stats).
func (s *OwnedStore) PayloadBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, op := range s.pages {
		for _, m := range op.mask {
			if m {
				n++
			}
		}
	}
	return n
}
