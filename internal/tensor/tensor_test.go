package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsZeroed(t *testing.T) {
	v := New(5)
	if len(v) != 5 {
		t.Fatalf("len = %d, want 5", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("v[%d] = %v, want 0", i, x)
		}
	}
}

func TestFromSliceCopies(t *testing.T) {
	src := []float64{1, 2, 3}
	v := FromSlice(src)
	src[0] = 99
	if v[0] != 1 {
		t.Errorf("FromSlice aliased its input: v[0] = %v", v[0])
	}
}

func TestCloneIndependent(t *testing.T) {
	v := FromSlice([]float64{1, 2, 3})
	c := v.Clone()
	c[1] = 42
	if v[1] != 2 {
		t.Errorf("Clone aliased original: v[1] = %v", v[1])
	}
}

func TestCopyFrom(t *testing.T) {
	dst := New(3)
	if err := dst.CopyFrom(FromSlice([]float64{4, 5, 6})); err != nil {
		t.Fatal(err)
	}
	if dst[2] != 6 {
		t.Errorf("dst[2] = %v, want 6", dst[2])
	}
	if err := dst.CopyFrom(New(2)); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("mismatched CopyFrom error = %v, want ErrShapeMismatch", err)
	}
}

func TestAddSubScale(t *testing.T) {
	v := FromSlice([]float64{1, 2, 3})
	if err := v.Add(FromSlice([]float64{10, 20, 30})); err != nil {
		t.Fatal(err)
	}
	want := FromSlice([]float64{11, 22, 33})
	if !v.Equal(want, 0) {
		t.Errorf("after Add, v = %v, want %v", v, want)
	}
	if err := v.Sub(FromSlice([]float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	want = FromSlice([]float64{10, 20, 30})
	if !v.Equal(want, 0) {
		t.Errorf("after Sub, v = %v, want %v", v, want)
	}
	v.Scale(0.5)
	want = FromSlice([]float64{5, 10, 15})
	if !v.Equal(want, 0) {
		t.Errorf("after Scale, v = %v, want %v", v, want)
	}
}

func TestAddShapeMismatch(t *testing.T) {
	v := New(3)
	if err := v.Add(New(4)); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("Add mismatch error = %v, want ErrShapeMismatch", err)
	}
	if err := v.Sub(New(4)); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("Sub mismatch error = %v, want ErrShapeMismatch", err)
	}
	if err := v.Axpy(1, New(4)); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("Axpy mismatch error = %v, want ErrShapeMismatch", err)
	}
	if _, err := v.Dot(New(4)); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("Dot mismatch error = %v, want ErrShapeMismatch", err)
	}
}

func TestAxpy(t *testing.T) {
	v := FromSlice([]float64{1, 1, 1})
	if err := v.Axpy(-2, FromSlice([]float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	want := FromSlice([]float64{-1, -3, -5})
	if !v.Equal(want, 1e-15) {
		t.Errorf("v = %v, want %v", v, want)
	}
}

func TestDotNormSum(t *testing.T) {
	v := FromSlice([]float64{3, 4})
	d, err := v.Dot(FromSlice([]float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if d != 11 {
		t.Errorf("Dot = %v, want 11", d)
	}
	if got := v.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := v.Sum(); got != 7 {
		t.Errorf("Sum = %v, want 7", got)
	}
	if got := FromSlice([]float64{-9, 2}).NormInf(); got != 9 {
		t.Errorf("NormInf = %v, want 9", got)
	}
}

func TestZeroFill(t *testing.T) {
	v := FromSlice([]float64{1, 2})
	v.Zero()
	if v[0] != 0 || v[1] != 0 {
		t.Errorf("after Zero, v = %v", v)
	}
	v.Fill(7)
	if v[0] != 7 || v[1] != 7 {
		t.Errorf("after Fill, v = %v", v)
	}
}

func TestIsFinite(t *testing.T) {
	if !FromSlice([]float64{1, 2}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if FromSlice([]float64{1, math.NaN()}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if FromSlice([]float64{math.Inf(1)}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestEqualTolerance(t *testing.T) {
	a := FromSlice([]float64{1, 2})
	b := FromSlice([]float64{1.0005, 2})
	if a.Equal(b, 1e-4) {
		t.Error("Equal too lenient")
	}
	if !a.Equal(b, 1e-3) {
		t.Error("Equal too strict")
	}
	if a.Equal(New(3), 1) {
		t.Error("Equal ignored length mismatch")
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([]Vector{
		FromSlice([]float64{1, 2}),
		FromSlice([]float64{3, 6}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(FromSlice([]float64{2, 4}), 1e-12) {
		t.Errorf("Mean = %v, want [2 4]", got)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) should error")
	}
	if _, err := Mean([]Vector{New(2), New(3)}); err == nil {
		t.Error("Mean with mismatched shapes should error")
	}
}

func TestPartitionCoversVector(t *testing.T) {
	for _, tc := range []struct{ total, n int }{
		{10, 3}, {10, 10}, {3, 5}, {0, 4}, {1, 1}, {100, 7},
	} {
		v := New(tc.total)
		for i := range v {
			v[i] = float64(i)
		}
		chunks, err := Partition(v, tc.n)
		if err != nil {
			t.Fatalf("Partition(%d,%d): %v", tc.total, tc.n, err)
		}
		if len(chunks) != tc.n {
			t.Fatalf("Partition(%d,%d) gave %d chunks", tc.total, tc.n, len(chunks))
		}
		covered := 0
		for i, c := range chunks {
			if c.Index != i {
				t.Errorf("chunk %d has Index %d", i, c.Index)
			}
			if c.Offset != covered {
				t.Errorf("chunk %d Offset = %d, want %d", i, c.Offset, covered)
			}
			covered += len(c.Data)
		}
		if covered != tc.total {
			t.Errorf("Partition(%d,%d) covered %d elements", tc.total, tc.n, covered)
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	chunks, err := Partition(New(10), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Sizes must differ by at most one: 4,3,3.
	sizes := []int{len(chunks[0].Data), len(chunks[1].Data), len(chunks[2].Data)}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Errorf("chunk sizes = %v, want [4 3 3]", sizes)
	}
}

func TestPartitionAliases(t *testing.T) {
	v := New(6)
	chunks, err := Partition(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunks[1].Data[0] = 42
	if v[3] != 42 {
		t.Error("Partition chunks do not alias the parent vector")
	}
}

func TestPartitionInvalid(t *testing.T) {
	if _, err := Partition(New(3), 0); err == nil {
		t.Error("Partition into 0 chunks should error")
	}
	if _, err := Partition(New(3), -1); err == nil {
		t.Error("Partition into -1 chunks should error")
	}
}

func TestChunkBoundsMatchPartition(t *testing.T) {
	for _, tc := range []struct{ total, n int }{{10, 3}, {25, 4}, {5, 8}, {0, 2}} {
		v := New(tc.total)
		chunks, err := Partition(v, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range chunks {
			start, end, err := ChunkBounds(tc.total, tc.n, i)
			if err != nil {
				t.Fatal(err)
			}
			if start != chunks[i].Offset || end != chunks[i].Offset+len(chunks[i].Data) {
				t.Errorf("ChunkBounds(%d,%d,%d) = [%d,%d), chunk at [%d,%d)",
					tc.total, tc.n, i, start, end,
					chunks[i].Offset, chunks[i].Offset+len(chunks[i].Data))
			}
		}
	}
}

func TestChunkBoundsInvalid(t *testing.T) {
	if _, _, err := ChunkBounds(10, 3, 3); err == nil {
		t.Error("out-of-range chunk index should error")
	}
	if _, _, err := ChunkBounds(10, 0, 0); err == nil {
		t.Error("zero chunk count should error")
	}
}

// Property: a+b == b+a element-wise (commutativity of Add).
func TestQuickAddCommutative(t *testing.T) {
	f := func(raw []float64) bool {
		a := FromSlice(raw)
		b := make(Vector, len(raw))
		for i := range b {
			b[i] = float64(i) * 0.5
		}
		ab := a.Clone()
		if err := ab.Add(b); err != nil {
			return false
		}
		ba := b.Clone()
		if err := ba.Add(a); err != nil {
			return false
		}
		return ab.Equal(ba, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Partition always covers the vector in order with contiguous
// non-overlapping chunks, for any sizes.
func TestQuickPartitionCoverage(t *testing.T) {
	f := func(totalRaw, nRaw uint8) bool {
		total := int(totalRaw)
		n := int(nRaw)%16 + 1
		v := New(total)
		chunks, err := Partition(v, n)
		if err != nil {
			return false
		}
		off := 0
		for _, c := range chunks {
			if c.Offset != off {
				return false
			}
			off += len(c.Data)
		}
		return off == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: scaling by c then 1/c is (approximately) the identity.
func TestQuickScaleInverse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(20) + 1
		v := New(n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		c := r.Float64()*10 + 0.1
		orig := v.Clone()
		v.Scale(c)
		v.Scale(1 / c)
		if !v.Equal(orig, 1e-9) {
			t.Fatalf("scale round-trip failed: %v != %v (c=%v)", v, orig, c)
		}
	}
}
