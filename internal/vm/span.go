package vm

// Bulk span operations over the typed array views. These are the
// kernel-facing face of the bulk-access data plane: element loops that
// previously paid one accessor round (and, on Samhita, one potential
// false-sharing refetch) per element instead move whole spans through
// one ReadFloat64s/WriteFloat64s call.

// ReadSlice bulk-loads elements [lo, lo+len(dst)) into dst.
func (a F64) ReadSlice(t Thread, lo int, dst []float64) {
	if len(dst) == 0 {
		return
	}
	t.ReadFloat64s(a.Addr(lo), dst)
}

// WriteSlice bulk-stores src into elements [lo, lo+len(src)).
func (a F64) WriteSlice(t Thread, lo int, src []float64) {
	if len(src) == 0 {
		return
	}
	t.WriteFloat64s(a.Addr(lo), src)
}

// F64Span is a checked-out window of an F64 array: Slice bulk-reads the
// window once into an owned buffer, the kernel indexes V with ordinary
// Go loads and stores (no per-element accessor cost), and Close bulk
// write-backs the buffer and invalidates the view. A read-only caller
// uses Discard instead and the write-back is skipped entirely.
//
// The view is a private copy, not an alias of cache memory: concurrent
// modifications of the same elements by other threads are not reflected
// until the span is re-checked-out, and Close overwrites the full
// window — the usual single-writer discipline for a span (each thread
// checking out its own disjoint window) makes that a non-issue.
type F64Span struct {
	t   Thread
	arr F64
	lo  int
	// V is the window's elements; V[i] is array element lo+i.
	V []float64
}

// Slice checks out elements [lo, hi) as a span view. The window is
// faulted in by one bulk read; until Close, V is ordinary memory.
func (a F64) Slice(t Thread, lo, hi int) *F64Span {
	s := &F64Span{t: t, arr: a, lo: lo, V: make([]float64, hi-lo)}
	a.ReadSlice(t, lo, s.V)
	return s
}

// Close bulk-writes the window back and invalidates the view.
func (s *F64Span) Close() {
	s.arr.WriteSlice(s.t, s.lo, s.V)
	s.V = nil
}

// Discard invalidates the view without writing back (read-only use).
func (s *F64Span) Discard() { s.V = nil }
