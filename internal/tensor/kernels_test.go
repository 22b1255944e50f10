package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The unrolled kernels perform exactly one FP op per element in index order,
// so everything except Dot (multi-accumulator) must be bit-identical to the
// obvious scalar loop. Lengths 0..17 cover every unroll tail; the large
// length exercises the steady-state body.

func randVec(rng *rand.Rand, n int) Vector {
	v := New(n)
	for i := range v {
		v[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return v
}

func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := make([]int, 0, 20)
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1000, 4097)
	for _, n := range lengths {
		a := randVec(rng, n)
		b := randVec(rng, n)
		c := rng.Float64() - 0.5

		add := a.Clone()
		addVec(add, b)
		sub := a.Clone()
		subVec(sub, b)
		scale := a.Clone()
		scaleVec(scale, c)
		axpy := a.Clone()
		axpyVec(axpy, c, b)
		avg := a.Clone()
		avgVec(avg, b)
		diff := New(n)
		if err := DiffInto(diff, a, b); err != nil {
			t.Fatal(err)
		}

		for i := 0; i < n; i++ {
			if got, want := add[i], a[i]+b[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("addVec n=%d i=%d: got %v, want %v", n, i, got, want)
			}
			if got, want := sub[i], a[i]-b[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("subVec n=%d i=%d: got %v, want %v", n, i, got, want)
			}
			if got, want := diff[i], a[i]-b[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("DiffInto n=%d i=%d: got %v, want %v", n, i, got, want)
			}
			if got, want := scale[i], a[i]*c; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("scaleVec n=%d i=%d: got %v, want %v", n, i, got, want)
			}
			if got, want := axpy[i], a[i]+c*b[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("axpyVec n=%d i=%d: got %v, want %v", n, i, got, want)
			}
			if got, want := avg[i], (a[i]+b[i])/2; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("avgVec n=%d i=%d: got %v, want %v", n, i, got, want)
			}
		}
	}
}

func TestDotMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 1000, 4097} {
		a := randVec(rng, n)
		b := randVec(rng, n)
		var want, scale float64
		for i := 0; i < n; i++ {
			want += a[i] * b[i]
			scale += math.Abs(a[i] * b[i])
		}
		got := dotVec(a, b)
		// The 4-accumulator sum reassociates, so compare with a tolerance
		// proportional to the magnitude of the terms.
		tol := 1e-12 * (scale + 1)
		if math.Abs(got-want) > tol {
			t.Fatalf("dotVec n=%d: got %v, want %v (tol %v)", n, got, want, tol)
		}
	}
}

// BenchmarkTensorKernels covers the hot kernels the ring, accumulator, and
// optimizer lean on.
func BenchmarkTensorKernels(b *testing.B) {
	const dim = 1 << 16
	rng := rand.New(rand.NewSource(3))
	x := randVec(rng, dim)
	y := randVec(rng, dim)
	b.Run("Add", func(b *testing.B) {
		b.SetBytes(dim * 8)
		for i := 0; i < b.N; i++ {
			addVec(x, y)
		}
	})
	b.Run("Scale", func(b *testing.B) {
		b.SetBytes(dim * 8)
		for i := 0; i < b.N; i++ {
			scaleVec(x, 1.0000001)
		}
	})
	b.Run("AddScaled", func(b *testing.B) {
		b.SetBytes(dim * 8)
		for i := 0; i < b.N; i++ {
			axpyVec(x, 0.999, y)
		}
	})
	b.Run("Dot", func(b *testing.B) {
		b.SetBytes(dim * 8)
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += dotVec(x, y)
		}
		_ = sink
	})
}
