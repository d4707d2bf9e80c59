package vm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloat64Codec(t *testing.T) {
	cases := []float64{0, 1, -1, math.Pi, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	b := make([]byte, 8)
	for _, v := range cases {
		PutFloat64(b, v)
		if got := GetFloat64(b); got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	// NaN round-trips bit-exactly.
	PutFloat64(b, math.NaN())
	if !math.IsNaN(GetFloat64(b)) {
		t.Error("NaN lost")
	}
}

func TestInt64Codec(t *testing.T) {
	b := make([]byte, 8)
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		PutInt64(b, v)
		if got := GetInt64(b); got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestCodecProperty(t *testing.T) {
	b := make([]byte, 8)
	f := func(bits uint64) bool {
		v := math.Float64frombits(bits)
		PutFloat64(b, v)
		return math.Float64bits(GetFloat64(b)) == bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(v int64) bool {
		PutInt64(b, v)
		return GetInt64(b) == v
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArrayViewAddressing(t *testing.T) {
	a := F64{Base: 1000}
	if a.Addr(0) != 1000 || a.Addr(3) != 1024 {
		t.Errorf("F64 addressing: %d %d", a.Addr(0), a.Addr(3))
	}
	i := I64{Base: 16}
	if i.Addr(2) != 32 {
		t.Errorf("I64 addressing: %d", i.Addr(2))
	}
}

// fakeThread implements just enough of Thread for view tests.
type fakeThread struct {
	Thread // panic on anything unimplemented
	mem    map[Addr][8]byte
}

func (f *fakeThread) ReadFloat64(a Addr) float64 {
	b := f.mem[a]
	return GetFloat64(b[:])
}

func (f *fakeThread) WriteFloat64(a Addr, v float64) {
	var b [8]byte
	PutFloat64(b[:], v)
	f.mem[a] = b
}

func (f *fakeThread) ReadInt64(a Addr) int64 {
	b := f.mem[a]
	return GetInt64(b[:])
}

func (f *fakeThread) WriteInt64(a Addr, v int64) {
	var b [8]byte
	PutInt64(b[:], v)
	f.mem[a] = b
}

func (f *fakeThread) ReadFloat64s(a Addr, dst []float64) {
	for i := range dst {
		dst[i] = f.ReadFloat64(a + Addr(8*i))
	}
}

func (f *fakeThread) WriteFloat64s(a Addr, src []float64) {
	for i, v := range src {
		f.WriteFloat64(a+Addr(8*i), v)
	}
}

func (f *fakeThread) AddFloat64(a Addr, v float64) float64 {
	sum := f.ReadFloat64(a) + v
	f.WriteFloat64(a, sum)
	return sum
}

func (f *fakeThread) AddInt64(a Addr, v int64) int64 {
	sum := f.ReadInt64(a) + v
	f.WriteInt64(a, sum)
	return sum
}

func (f *fakeThread) Compute(int) {}

func TestViewsThroughThread(t *testing.T) {
	ft := &fakeThread{mem: make(map[Addr][8]byte)}
	arr := F64{Base: 0}
	arr.Set(ft, 3, 2.5)
	if got := arr.At(ft, 3); got != 2.5 {
		t.Errorf("F64 At = %v", got)
	}
	arr.Add(ft, 3, 1.5)
	if got := arr.At(ft, 3); got != 4.0 {
		t.Errorf("F64 Add = %v", got)
	}
	iv := I64{Base: 4096}
	iv.Set(ft, 1, -9)
	if got := iv.At(ft, 1); got != -9 {
		t.Errorf("I64 At = %v", got)
	}
	iv.Add(ft, 1, 4)
	if got := iv.At(ft, 1); got != -5 {
		t.Errorf("I64 Add = %v", got)
	}
}

func TestSpanViewsThroughThread(t *testing.T) {
	ft := &fakeThread{mem: make(map[Addr][8]byte)}
	arr := F64{Base: 0}
	for i := 0; i < 8; i++ {
		arr.Set(ft, i, float64(i))
	}

	s := arr.Slice(ft, 2, 6)
	for i := range s.V {
		if s.V[i] != float64(i+2) {
			t.Fatalf("span checkout [%d] = %v", i, s.V[i])
		}
		s.V[i] *= 2
	}
	s.Close()
	for i := 0; i < 8; i++ {
		want := float64(i)
		if i >= 2 && i < 6 {
			want *= 2
		}
		if got := arr.At(ft, i); got != want {
			t.Errorf("after Close, [%d] = %v, want %v", i, got, want)
		}
	}

	r := arr.Slice(ft, 0, 4)
	r.Discard()
	if r.V != nil {
		t.Error("Discard left the view live")
	}
}
