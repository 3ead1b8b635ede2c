package tensor

import (
	"bytes"
	"testing"
	"testing/quick"

	"ssdtrain/internal/units"
)

func TestDTypeSizes(t *testing.T) {
	cases := map[DType]int{FP16: 2, BF16: 2, FP32: 4, INT32: 4, INT64: 8, BOOL: 1}
	for d, want := range cases {
		if d.Size() != want {
			t.Errorf("%v.Size() = %d, want %d", d, d.Size(), want)
		}
	}
	if FP16.String() != "fp16" || BOOL.String() != "bool" {
		t.Errorf("dtype names wrong")
	}
}

func TestShapeBasics(t *testing.T) {
	s := NewShape(2, 3, 4)
	if s.NumElems() != 24 || s.Rank() != 3 {
		t.Errorf("elems=%d rank=%d", s.NumElems(), s.Rank())
	}
	if !s.Equal(NewShape(2, 3, 4)) || s.Equal(NewShape(2, 3)) {
		t.Error("Equal broken")
	}
	tr := s.Transposed()
	if !tr.Equal(NewShape(2, 4, 3)) {
		t.Errorf("transposed = %v", tr)
	}
	if s.String() != "[2 3 4]" {
		t.Errorf("string = %q", s.String())
	}
	// Clone independence.
	c := s.Clone()
	c[0] = 9
	if s[0] != 2 {
		t.Error("clone aliases original")
	}
}

func TestShapeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive dim did not panic")
		}
	}()
	NewShape(2, 0)
}

func TestTensorBytes(t *testing.T) {
	x := New("x", NewShape(16, 1024), FP16, GPU)
	if x.Bytes() != units.Bytes(16*1024*2) {
		t.Errorf("bytes = %v", x.Bytes())
	}
	if x.Device() != GPU || x.IsCPU() {
		t.Error("device wrong")
	}
	if x.IsWeight() {
		t.Error("plain tensor marked weight")
	}
	w := NewWeight("w", NewShape(4, 4), FP16, GPU)
	if !w.IsWeight() {
		t.Error("weight not marked")
	}
}

func TestViewsShareStorage(t *testing.T) {
	x := New("x", NewShape(4, 8), FP16, GPU)
	v := x.View("v", NewShape(8, 4))
	if v.Storage() != x.Storage() {
		t.Error("view does not share storage")
	}
	tr := x.Transpose()
	if tr.Storage() != x.Storage() {
		t.Error("transpose does not share storage")
	}
	if !tr.Shape().Equal(NewShape(8, 4)) {
		t.Errorf("transpose shape = %v", tr.Shape())
	}
	// Weight flag propagates through views.
	w := NewWeight("w", NewShape(4, 8), FP16, GPU)
	if !w.Transpose().IsWeight() {
		t.Error("transposed weight lost its flag")
	}
}

func TestViewElemMismatchPanics(t *testing.T) {
	x := New("x", NewShape(4, 8), FP16, GPU)
	defer func() {
		if recover() == nil {
			t.Error("bad view did not panic")
		}
	}()
	x.View("bad", NewShape(3, 3))
}

func TestStorageRefcount(t *testing.T) {
	s := NewStorage(128, GPU)
	s.Retain()
	s.Retain()
	if s.Release() {
		t.Error("freed too early")
	}
	if !s.Release() {
		t.Error("not freed at zero")
	}
	if !s.Freed() {
		t.Error("Freed() false after free")
	}
	// Double release panics.
	defer func() {
		if recover() == nil {
			t.Error("release after free did not panic")
		}
	}()
	s.Release()
}

func TestStorageStamp(t *testing.T) {
	s := NewStorage(64, GPU)
	if s.Stamp() != 0 {
		t.Error("fresh storage has a stamp")
	}
	s.SetStamp(42)
	s.SetStamp(42) // idempotent
	if s.Stamp() != 42 {
		t.Errorf("stamp = %d", s.Stamp())
	}
	defer func() {
		if recover() == nil {
			t.Error("re-stamping did not panic")
		}
	}()
	s.SetStamp(43)
}

func TestMaterializeDeterministic(t *testing.T) {
	a := NewStorage(1024, GPU)
	b := NewStorage(1024, GPU)
	a.Materialize(7)
	b.Materialize(7)
	if a.Checksum() == 0 {
		t.Error("zero checksum")
	}
	if a.Checksum() != b.Checksum() {
		t.Error("same seed produced different payloads")
	}
	c := NewStorage(1024, GPU)
	c.Materialize(8)
	if c.Checksum() == a.Checksum() {
		t.Error("different seeds produced identical payloads")
	}
	// Idempotent.
	sum := a.Checksum()
	a.Materialize(99)
	if a.Checksum() != sum {
		t.Error("re-materialize overwrote payload")
	}
}

// TestFillMatchesWordCopy pins the payload bytes to the portable
// PutUint64 fill: every length up to a few words, so each tail length is
// covered, one large odd length, and every alignment of the payload, so
// both the word view and its unaligned fallback are checked.
func TestFillMatchesWordCopy(t *testing.T) {
	lengths := []int{1<<16 + 5}
	for n := 0; n <= 41; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for off := range 8 {
			for _, seed := range []uint64{0, 1, 7, 1 << 63} {
				got, want := make([]byte, n+off)[off:], make([]byte, n)
				fillDeterministic(got, seed)
				fillWords(want, seed|1)
				if !bytes.Equal(got, want) {
					t.Fatalf("length %d at offset %d, seed %d: fill differs from the portable form", n, off, seed)
				}
			}
		}
	}
}

func TestSetDataSizeMismatchPanics(t *testing.T) {
	s := NewStorage(16, GPU)
	defer func() {
		if recover() == nil {
			t.Error("size mismatch did not panic")
		}
	}()
	s.SetData(make([]byte, 8))
}

func TestWeakRef(t *testing.T) {
	x := New("x", NewShape(2, 2), FP16, GPU)
	x.Storage().Retain()
	w := Weak(x)
	if w.Get() != x {
		t.Error("weak ref lost live tensor")
	}
	x.Storage().Release()
	if w.Get() != nil {
		t.Error("weak ref survives free")
	}
}

// Property: NumElems is the product of dimensions; Bytes scales with
// dtype size.
func TestShapeElemsProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		d0, d1, d2 := int(a%7)+1, int(b%7)+1, int(c%7)+1
		s := NewShape(d0, d1, d2)
		if s.NumElems() != int64(d0*d1*d2) {
			return false
		}
		x := New("t", s, FP32, GPU)
		return x.Bytes() == units.Bytes(4*d0*d1*d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: transpose is an involution on shapes.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		s := NewShape(int(a%9)+1, int(b%9)+1, int(c%9)+1)
		return s.Transposed().Transposed().Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
