package pagecache

import (
	"repro/internal/layout"
	"repro/internal/proto"
)

// Reference implementations the production data plane is held to.

// diffPageGeneric is the byte-wise differ diffPage must match run for
// run: one allocation per run, no word tricks.
func diffPageGeneric(page uint64, cur, twin []byte) proto.PageDiff {
	d := proto.PageDiff{Page: page}
	i := 0
	for i < len(cur) {
		if cur[i] == twin[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(cur) && cur[j] != twin[j] {
			j++
		}
		d.Runs = append(d.Runs, proto.DiffRun{
			Off:  uint32(i),
			Data: append([]byte(nil), cur[i:j]...),
		})
		i = j
	}
	return d
}

// Put merges the runs of an already-built diff into the page's retained
// overlay — what a release did before PutDiff merged straight from the
// page, and what PutDiff's overlay must equal.
func (s *OwnedStore) Put(p layout.PageID, runs []proto.DiffRun) {
	if len(runs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.overlayLocked(p)
	for _, run := range runs {
		copy(op.data[run.Off:], run.Data)
		for i := 0; i < len(run.Data); i++ {
			op.mask[int(run.Off)+i] = true
		}
	}
}
