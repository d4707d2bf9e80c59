package pagecache

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/layout"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// The two consumers of the run scanner — the arena diffPage and the
// diff-into-overlay OwnedStore.PutDiff — against the byte-wise oracle,
// plus the allocation budgets of the data plane.

// randomEdit changes cur in place in one of the shapes a release sees.
func randomEdit(rng *rand.Rand, cur []byte) {
	size := len(cur)
	switch rng.Intn(6) {
	case 0: // sparse single-byte flips
		for i := 0; i < rng.Intn(10); i++ {
			cur[rng.Intn(size)] ^= byte(1 + rng.Intn(255))
		}
	case 1: // one dense run
		lo := rng.Intn(size)
		hi := lo + 1 + rng.Intn(size-lo)
		rng.Read(cur[lo:hi])
	case 2: // everything changed
		for i := range cur {
			cur[i] ^= 0xFF
		}
	case 3: // nothing changed
	case 4: // rewritten values that keep one byte: a run list's worst case
		keep := rng.Intn(8)
		for i := range cur {
			if i%8 != keep {
				cur[i] ^= 0x5A
			}
		}
	case 5: // runs ending on every offset mod 8
		for at := 0; at+24 <= size; at += 24 {
			for i := at; i < at+1+(at/24)%16; i++ {
				cur[i] ^= 0x33
			}
		}
	}
}

func sameRuns(a, b []proto.DiffRun) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Off != b[i].Off || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// checkDiffPage holds diffPage to the oracle run for run, and to the
// arena rule: every run's Data is clipped to its length, so appending to
// one run leaves its neighbours alone.
func checkDiffPage(cur, twin []byte) bool {
	got, want := diffPage(3, cur, twin), diffPageGeneric(3, cur, twin)
	if got.Page != 3 || !sameRuns(got.Runs, want.Runs) {
		return false
	}
	for i := range got.Runs {
		if cap(got.Runs[i].Data) != len(got.Runs[i].Data) {
			return false
		}
		got.Runs[i].Data = append(got.Runs[i].Data, 0xEE)
	}
	for i := range got.Runs {
		n := len(want.Runs[i].Data)
		if !bytes.Equal(got.Runs[i].Data[:n], want.Runs[i].Data) {
			return false
		}
	}
	return true
}

// Property: for every size (including sizes not divisible by 8) and
// change pattern, the arena diffPage equals the byte-wise reference.
func TestDiffPageMatchesGeneric(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(600) // deliberately not 8-aligned
		twin := make([]byte, size)
		rng.Read(twin)
		cur := append([]byte(nil), twin...)
		randomEdit(rng, cur)
		return checkDiffPage(cur, twin)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Pinpoint the word-scan edge cases: runs starting/ending mid-word, at
// word boundaries, and in the sub-word tail — through both consumers.
func TestRunScannerEdges(t *testing.T) {
	size := 64
	for lo := 0; lo < size; lo++ {
		for n := 1; n <= 17 && lo+n <= size; n++ {
			twin := make([]byte, size)
			cur := make([]byte, size)
			for i := lo; i < lo+n; i++ {
				cur[i] = 0xAB
			}
			d := diffPage(0, cur, twin)
			if len(d.Runs) != 1 || int(d.Runs[0].Off) != lo || len(d.Runs[0].Data) != n {
				t.Fatalf("lo=%d n=%d: got runs %+v", lo, n, d.Runs)
			}
			s := NewOwnedStore(size)
			if !s.PutDiff(1, cur, twin) {
				t.Fatalf("lo=%d n=%d: PutDiff saw no change", lo, n)
			}
			if got := s.Take(1); !sameRuns(got, d.Runs) {
				t.Fatalf("lo=%d n=%d: overlay runs %+v", lo, n, got)
			}
		}
	}
}

// Property: over several intervals on one page, the overlay PutDiff
// builds straight from (cur, twin) is the overlay Put builds from the
// oracle's run list — same bytes, same mask, same Take — and an
// interval of silent stores creates nothing.
func TestPutDiffMatchesPutOfGeneric(t *testing.T) {
	const pageSize = 512
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		direct, viaRuns := NewOwnedStore(pageSize), NewOwnedStore(pageSize)
		cur := make([]byte, pageSize)
		rng.Read(cur)
		for interval := 0; interval < 1+rng.Intn(5); interval++ {
			twin := append([]byte(nil), cur...)
			randomEdit(rng, cur)
			want := diffPageGeneric(7, cur, twin).Runs
			if changed := direct.PutDiff(7, cur, twin); changed != (len(want) > 0) {
				return false
			}
			viaRuns.Put(7, want)
			a, b := direct.pages[7], viaRuns.pages[7]
			if (a == nil) != (b == nil) {
				return false // an overlay exists only after a real difference
			}
			if a != nil && (!bytes.Equal(a.data, b.data) || !slices.Equal(a.mask, b.mask)) {
				return false
			}
		}
		return sameRuns(direct.Take(7), viaRuns.Take(7))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDiff feeds arbitrary page pairs to both consumers.
func FuzzDiff(f *testing.F) {
	f.Add([]byte("abcdefgh12345678"), []byte("abcdefgh12345678"))
	f.Add([]byte("abcdefgh12345678x"), []byte("abcdEfgh1234567_y"))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 0}, 9), bytes.Repeat([]byte{9, 9, 9, 9, 9, 9, 9, 0}, 9))
	f.Fuzz(func(t *testing.T, cur, twin []byte) {
		if len(twin) < len(cur) {
			cur = cur[:len(twin)]
		}
		twin = twin[:len(cur)]
		if len(cur) == 0 {
			return
		}
		if !checkDiffPage(cur, twin) {
			t.Fatalf("diffPage differs from the oracle on cur=%x twin=%x", cur, twin)
		}
		direct, viaRuns := NewOwnedStore(len(cur)), NewOwnedStore(len(cur))
		direct.PutDiff(1, cur, twin)
		viaRuns.Put(1, diffPageGeneric(1, cur, twin).Runs)
		if !sameRuns(direct.Take(1), viaRuns.Take(1)) {
			t.Fatalf("PutDiff differs from Put(oracle) on cur=%x twin=%x", cur, twin)
		}
	})
}

// Prior owned runs travel in front of a new arena-backed diff.
func TestPriorOwnedRunsTravelWithArenaDiff(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, _ := newCache(t, geo, be)
	if err := c.Write(8, []byte{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	c.CollectRelease() // unshared: retained under an ownership claim
	if c.Owned().Len() != 1 {
		t.Fatalf("owned pages = %d, want 1", c.Owned().Len())
	}
	foreign := []proto.Notice{{Tag: proto.IntervalTag{Writer: 2, Interval: 1}, Pages: []uint64{0}}}
	if err := c.ApplyNotices(foreign); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(100, []byte{7, 8}, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(200, []byte{9}, false); err != nil {
		t.Fatal(err)
	}
	rs := c.CollectRelease()
	var runs []proto.DiffRun
	for _, b := range rs.ByHome {
		for _, d := range b.Diffs {
			runs = append(runs, d.Runs...)
		}
	}
	want := []proto.DiffRun{{Off: 8, Data: []byte{1, 2, 3}}, {Off: 100, Data: []byte{7, 8}}, {Off: 200, Data: []byte{9}}}
	if !sameRuns(runs, want) {
		t.Fatalf("shipped runs %+v, want %+v", runs, want)
	}
}

// ---------------------------------------------------------------------
// Allocation budgets.

// Re-releasing a page whose overlay already exists allocates nothing,
// however many runs changed.
func TestPutDiffSteadyStateAllocatesNothing(t *testing.T) {
	a, b := benchFloatPages()
	s := NewOwnedStore(len(a))
	s.PutDiff(1, a, b)
	if n := testing.AllocsPerRun(100, func() { s.PutDiff(1, b, a) }); n != 0 {
		t.Fatalf("PutDiff into an existing overlay: %v allocations, want 0", n)
	}
}

// A shipped diff is the run list plus one arena, whatever the run count.
func TestDiffPageAllocationBudget(t *testing.T) {
	sparseCur, sparseTwin := benchSparsePage()
	denseCur, denseTwin := benchFloatPages()
	for _, tc := range []struct {
		name      string
		cur, twin []byte
	}{{"sparse", sparseCur, sparseTwin}, {"512 runs", denseCur, denseTwin}} {
		if n := testing.AllocsPerRun(100, func() { diffPage(0, tc.cur, tc.twin) }); n > 2 {
			t.Errorf("%s: diffPage made %v allocations, want <= 2", tc.name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { diffPage(0, denseCur, denseCur) }); n != 0 {
		t.Errorf("silent page: diffPage made %v allocations, want 0", n)
	}
}

// Twins are recycled: in steady state an interval's first write to a
// page takes its twin from the free list.
func TestTwinsAreRecycled(t *testing.T) {
	c := benchCache(0)
	a, b := benchFloatPages()
	imgs := [2][]byte{a, b}
	i := 0
	step := func() {
		if err := c.WriteSpan(0, imgs[i&1], false); err != nil {
			t.Fatal(err)
		}
		i++
		c.CollectRelease()
	}
	step()
	twin := &c.freeTwins[0][0]
	step()
	if len(c.freeTwins) != 1 || &c.freeTwins[0][0] != twin {
		t.Fatalf("twin was not recycled: free list %d", len(c.freeTwins))
	}
}

// adoptBackend hands out a fresh line per fetch and remembers it.
type adoptBackend struct {
	freshBackend
	last []byte
}

func (b *adoptBackend) FetchLine(line layout.LineID, needs []proto.PageNeed, at vtime.Time) ([]byte, vtime.Time, error) {
	data, at, err := b.freshBackend.FetchLine(line, needs, at)
	b.last = data
	return data, at, err
}

// A demand fault of a new line adopts the fetched buffer: the client
// allocates no line-sized buffer of its own.
func TestFaultAdoptsFetchedLine(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := &adoptBackend{freshBackend: freshBackend{geo}}
	c, _, _ := newCache(t, geo, be, func(cfg *Config) { cfg.PrefetchDepth = 0; cfg.CapacityLines = 8 })
	var buf [8]byte
	if err := c.Read(0, buf[:]); err != nil {
		t.Fatal(err)
	}
	if got := c.lines[0].data; unsafe.SliceData(got) != unsafe.SliceData(be.last) || len(got) != geo.LineSize() {
		t.Fatal("the resident line is not the fetched buffer")
	}
	if cap(c.lines[0].data) != geo.LineSize() {
		t.Fatalf("adopted line has cap %d, want %d", cap(c.lines[0].data), geo.LineSize())
	}

	// Byte budget over many faults (with eviction): the backend's own
	// line per fault, and well under a second one.
	const faults = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for l := 1; l <= faults; l++ {
		if err := c.Read(layout.Addr(l*geo.LineSize()), buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perFault := (after.TotalAlloc - before.TotalAlloc) / faults; perFault >= uint64(2*geo.LineSize()) {
		t.Fatalf("%d bytes allocated per fault: the client still allocates a line of %d", perFault, geo.LineSize())
	}
}

// A release with one dirty shared page and one region store: BytesSent
// is the diff payload plus the record payload once per destination
// (its home and the manager's notice).
func TestBytesSentCountsDiffAndRecordPayload(t *testing.T) {
	geo := layout.DefaultGeometry()
	be := newFakeBackend(geo)
	c, _, st := newCache(t, geo, be)
	foreign := []proto.Notice{{Tag: proto.IntervalTag{Writer: 2, Interval: 1}, Pages: []uint64{0}}}
	if err := c.ApplyNotices(foreign); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(16, []byte{1, 2, 3, 4, 5}, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(layout.Addr(geo.PageSize+8), []byte{6, 7, 8}, true); err != nil {
		t.Fatal(err)
	}
	rs := c.CollectRelease()
	if st.DiffBytes != 5 || proto.RecordBytes(rs.Records) != 3 {
		t.Fatalf("DiffBytes=%d record bytes=%d, want 5 and 3", st.DiffBytes, proto.RecordBytes(rs.Records))
	}
	if want := st.DiffBytes + 2*st.RecordBytes; st.BytesSent != want {
		t.Fatalf("BytesSent = %d, want DiffBytes + 2*RecordBytes = %d", st.BytesSent, want)
	}
}
