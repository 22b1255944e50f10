package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
		if err := sub.Sub(b); err != nil {
			t.Fatal(err)
		}
		scale := a.Clone()
		scaleVec(scale, c)
		axpy := a.Clone()
		axpyVec(axpy, c, b)
		avg := New(n)
		if err := AverageInto(avg, a, b); err != nil {
			t.Fatal(err)
		}
		diff := New(n)
		if err := DiffInto(diff, a, b); err != nil {
			t.Fatal(err)
		}
		// SGDStep out of place with the mean c, and in place with mean 1,
		// whose g·1 must vanish from the bits.
		const mu, wd, lr = 0.9, 1e-4, 0.05
		vel, g := randVec(rng, n), randVec(rng, n)
		stepVel, stepDst := vel.Clone(), New(n)
		SGDStep(stepDst, a, stepVel, g, c, mu, wd, lr)
		inVel, inPlace := vel.Clone(), a.Clone()
		SGDStep(inPlace, inPlace, inVel, g, 1, mu, wd, lr)

		for i := 0; i < n; i++ {
			if got, want := add[i], a[i]+b[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("addVec n=%d i=%d: got %v, want %v", n, i, got, want)
			}
			if got, want := sub[i], a[i]-b[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Vector.Sub n=%d i=%d: got %v, want %v", n, i, got, want)
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
				t.Fatalf("AverageInto n=%d i=%d: got %v, want %v", n, i, got, want)
			}
			v := mu*vel[i] + g[i]*c + wd*a[i]
			if math.Float64bits(stepVel[i]) != math.Float64bits(v) || math.Float64bits(stepDst[i]) != math.Float64bits(a[i]-lr*v) {
				t.Fatalf("SGDStep n=%d i=%d: got v=%v x=%v, want v=%v x=%v", n, i, stepVel[i], stepDst[i], v, a[i]-lr*v)
			}
			v = mu*vel[i] + g[i] + wd*a[i]
			if math.Float64bits(inVel[i]) != math.Float64bits(v) || math.Float64bits(inPlace[i]) != math.Float64bits(a[i]-lr*v) {
				t.Fatalf("SGDStep in place, mean 1, n=%d i=%d: got v=%v x=%v, want v=%v x=%v", n, i, inVel[i], inPlace[i], v, a[i]-lr*v)
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

// kernelCases lists every vectorised element-wise kernel as (dispatcher, Go
// loop) over up to four equal-length operands and four scalars. Operand 0
// is always written; the comparison covers all of them, so a kernel that
// clobbers an input fails too.
var kernelCases = []struct {
	name     string
	operands int
	vec, ref func(v [4][]float64, s [4]float64)
}{
	{"addVec", 2,
		func(v [4][]float64, _ [4]float64) { addVec(v[0], v[1]) },
		func(v [4][]float64, _ [4]float64) { addVecGo(v[0], v[1]) }},
	{"scaleVec", 1,
		func(v [4][]float64, s [4]float64) { scaleVec(v[0], s[0]) },
		func(v [4][]float64, s [4]float64) { scaleVecGo(v[0], s[0]) }},
	{"axpyVec", 2,
		func(v [4][]float64, s [4]float64) { axpyVec(v[0], s[0], v[1]) },
		func(v [4][]float64, s [4]float64) { axpyVecGo(v[0], s[0], v[1]) }},
	{"sumTo", 3,
		func(v [4][]float64, _ [4]float64) { sumTo(v[0], v[1], v[2]) },
		func(v [4][]float64, _ [4]float64) { sumToGo(v[0], v[1], v[2]) }},
	{"diffTo", 3,
		func(v [4][]float64, _ [4]float64) { diffTo(v[0], v[1], v[2]) },
		func(v [4][]float64, _ [4]float64) { diffToGo(v[0], v[1], v[2]) }},
	{"SGDStep", 4,
		func(v [4][]float64, s [4]float64) { SGDStep(v[0], v[1], v[2], v[3], s[3], s[0], s[1], s[2]) },
		func(v [4][]float64, s [4]float64) { sgdStepGo(v[0], v[1], v[2], v[3], s[3], s[0], s[1], s[2]) }},
	// dst == src: the in-place step BSP and the owner of a span take.
	{"SGDStep/in-place", 3,
		func(v [4][]float64, s [4]float64) { SGDStep(v[0], v[0], v[1], v[2], s[3], s[0], s[1], s[2]) },
		func(v [4][]float64, s [4]float64) { sgdStepGo(v[0], v[0], v[1], v[2], s[3], s[0], s[1], s[2]) }},
}

// specials is the row of values every kernel must carry through exactly as
// the Go loop does: signed zeros, infinities, a NaN, both subnormal extremes
// and the largest finite value.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64,
}

// kernelValue draws a normal of varying magnitude, or one time in eight a
// special.
func kernelValue(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
}

// canaryPad is how many sentinel elements guard each end of an operand, and
// canary is their value: more than a YMM register's worth, so an assembly
// tail that runs lanes too far lands on them.
const canaryPad = 5

var canary = math.Float64frombits(0x7ff8_dead_beef_cafe)

// guarded returns a length-n operand that starts `offset` elements into its
// backing array (so 0-, 8-, 16- or 24-byte misaligned against a 32-byte
// vector) with canaries on both sides, and the whole backing array.
func guarded(rng *rand.Rand, n, offset int) (operand, backing []float64) {
	backing = make([]float64, offset+canaryPad+n+canaryPad)
	for i := range backing {
		backing[i] = canary
	}
	operand = backing[offset+canaryPad : offset+canaryPad+n : offset+canaryPad+n]
	for i := range operand {
		operand[i] = kernelValue(rng)
	}
	return operand, backing
}

// sameBits reports whether two results are the same float64, where any NaN
// equals any NaN: with two NaN operands x86 keeps the first one's payload
// and the Go compiler's operand order is not specified.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkKernels runs every kernel case, DotRows, LinComb and AddLE once,
// dispatched and through the Go loop on copies of the same operands, and
// compares whole backing arrays: results, untouched inputs and canaries
// alike.
func checkKernels(t testing.TB, n, offset int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	scalars := [4]float64{kernelValue(rng), kernelValue(rng), kernelValue(rng), kernelValue(rng)}
	if seed%2 == 0 { // the common case: plain finite coefficients
		scalars = [4]float64{0.9, 1e-4, 0.05, 0.5}
		if seed%4 == 0 {
			scalars[3] = 1 // one contributor's mean
		}
	}
	for _, kc := range kernelCases {
		var vec, ref [4][]float64
		var vecBack, refBack [4][]float64
		for j := 0; j < kc.operands; j++ {
			// Operand j sits j elements further into its array, so the
			// operands are also misaligned against each other.
			vec[j], vecBack[j] = guarded(rng, n, (offset+j)%4)
			refBack[j] = append([]float64(nil), vecBack[j]...)
			lo := (offset+j)%4 + canaryPad
			ref[j] = refBack[j][lo : lo+n : lo+n]
		}
		kc.vec(vec, scalars)
		kc.ref(ref, scalars)
		for j := 0; j < kc.operands; j++ {
			for i := range vecBack[j] {
				if !sameBits(vecBack[j][i], refBack[j][i]) {
					t.Fatalf("%s n=%d offset=%d seed=%d: operand %d backing[%d] = %x, Go loop %x (operand spans [%d,%d))",
						kc.name, n, offset, seed, j, i, math.Float64bits(vecBack[j][i]), math.Float64bits(refBack[j][i]),
						(offset+j)%4+canaryPad, (offset+j)%4+canaryPad+n)
				}
			}
		}
	}
	checkDotRows(t, rng, 1+int(uint64(seed)%9), n, n+int(uint64(seed)%3), offset)
	checkLinComb(t, rng, rng.Intn(10), n, offset, scalars)
	checkAddLE(t, rng, n, offset, int(uint64(seed)%8))
}

// checkLinComb compares LinComb over k sources with its Go loop: dst starts
// full of stale values (the kernel must not read them on its first pass),
// sources are misaligned against dst and each other and some are longer than
// dst, and 0–9 sources cover no pass, one pass, and passes that continue from
// dst with and without a remainder.
func checkLinComb(t testing.TB, rng *rand.Rand, k, n, offset int, scalars [4]float64) {
	t.Helper()
	xs := make([][]float64, k)
	xsBack := make([][]float64, k)
	c := make([]float64, k)
	for j := range xs {
		xs[j], xsBack[j] = guarded(rng, n+j%2, (offset+1+j)%4)
		xsBack[j] = append([]float64(nil), xsBack[j]...) // the inputs as they were
		c[j] = scalars[j%3]
		if j%4 == 3 {
			c[j] = kernelValue(rng)
		}
	}
	dst, dstBack := guarded(rng, n, offset)
	want := append([]float64(nil), dstBack...)
	lo := offset + canaryPad
	linCombGo(want[lo:lo+n:lo+n], c, xs)
	LinComb(dst, c, xs)
	for i := range dstBack {
		if !sameBits(dstBack[i], want[i]) {
			t.Fatalf("LinComb k=%d n=%d offset=%d: backing[%d] = %x, Go loop %x (dst spans [%d,%d))",
				k, n, offset, i, math.Float64bits(dstBack[i]), math.Float64bits(want[i]), lo, lo+n)
		}
	}
	for j := range xs {
		lo := (offset+1+j)%4 + canaryPad
		for i, x := range xs[j] {
			if math.Float64bits(x) != math.Float64bits(xsBack[j][lo+i]) {
				t.Fatalf("LinComb k=%d n=%d offset=%d: source %d elem %d clobbered", k, n, offset, j, i)
			}
		}
	}
}

// checkAddLE compares AddLE with its Go loop, the source bytes starting
// byteOff bytes into a byte array with canary bytes on both sides — wire
// bodies sit at any byte offset of the read window.
func checkAddLE(t testing.TB, rng *rand.Rand, n, offset, byteOff int) {
	t.Helper()
	src := make([]byte, byteOff+8*n+8*canaryPad)
	for i := range src {
		src[i] = 0xa5
	}
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(src[byteOff+8*i:], math.Float64bits(kernelValue(rng)))
	}
	srcBefore := append([]byte(nil), src...)
	body := src[byteOff : byteOff+8*n]
	dst, dstBack := guarded(rng, n, offset)
	want := append([]float64(nil), dstBack...)
	lo := offset + canaryPad
	addLEGo(want[lo:lo+n:lo+n], body)
	AddLE(dst, body)
	for i := range dstBack {
		if !sameBits(dstBack[i], want[i]) {
			t.Fatalf("AddLE n=%d offset=%d byteOff=%d: backing[%d] = %x, Go loop %x (dst spans [%d,%d))",
				n, offset, byteOff, i, math.Float64bits(dstBack[i]), math.Float64bits(want[i]), lo, lo+n)
		}
	}
	if !bytes.Equal(src, srcBefore) {
		t.Fatalf("AddLE n=%d byteOff=%d wrote to its source", n, byteOff)
	}
}

// checkDotRows compares DotRows with one dotVec call per row.
func checkDotRows(t testing.TB, rng *rand.Rand, rows, n, stride, offset int) {
	t.Helper()
	x, _ := guarded(rng, n, offset)
	w, _ := guarded(rng, (rows-1)*stride+n, (offset+1)%4)
	out, outBack := guarded(rng, rows, (offset+2)%4)
	want := append([]float64(nil), outBack...)
	for r := 0; r < rows; r++ {
		want[(offset+2)%4+canaryPad+r] = dotVec(w[r*stride:r*stride+n], x)
	}
	DotRows(out, w, stride, x)
	for i := range outBack {
		if !sameBits(outBack[i], want[i]) {
			t.Fatalf("DotRows rows=%d n=%d stride=%d offset=%d: backing[%d] = %x, dotVec %x (out spans [%d,%d))",
				rows, n, stride, offset, i, math.Float64bits(outBack[i]), math.Float64bits(want[i]),
				(offset+2)%4+canaryPad, (offset+2)%4+canaryPad+rows)
		}
	}
}

// kernelLengths covers every tier boundary of the assembly (1, 4, 8 and 16
// elements per pass) several times over, plus two steady-state lengths that
// are not multiples of four.
func kernelLengths() []int {
	lengths := make([]int, 0, 70)
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	return append(lengths, 1000, 4099)
}

// TestKernelsMatchGeneric holds the vectorised kernels to the bits of the Go
// loops. Where the assembly is off (other architectures, -tags purego,
// -race, no AVX2) both sides run the Go loop and the test is vacuous; the
// log line says which it was.
func TestKernelsMatchGeneric(t *testing.T) {
	t.Logf("useAVX2 = %v", useAVX2)
	for _, n := range kernelLengths() {
		for offset := 0; offset < 4; offset++ {
			for seed := int64(0); seed < 4; seed++ {
				checkKernels(t, n, offset, 100*int64(n)+seed)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for rows := 1; rows <= 9; rows++ {
		for stride := 1; stride <= 67; stride++ {
			checkDotRows(t, rng, rows, stride, stride, stride%4)
			checkDotRows(t, rng, rows, stride-stride/3, stride, rows%4) // rows shorter than the stride
		}
	}
}

func FuzzKernelsMatchGeneric(f *testing.F) {
	for _, n := range kernelLengths() {
		for offset := 0; offset < 4; offset++ {
			f.Add(uint16(n), uint8(offset), int64(n))
		}
	}
	f.Fuzz(func(t *testing.T, n uint16, offset uint8, seed int64) {
		checkKernels(t, int(n), int(offset%4), seed)
	})
}

// BenchmarkTensorKernels times every vectorised kernel as its Go loop and as
// dispatched, at one W1 row of the dense workloads (256 elements, L1), at
// 64 Ki elements (L2) and at 1 Mi (out of L2). MB/s counts one operand's
// bytes per call, so cells of one kernel compare directly. DotRows runs over
// rows of 256 elements against len(out) Dot calls; Dot itself has no
// assembly and is listed for reference.
func BenchmarkTensorKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{256, 1 << 16, 1 << 20}
	for _, kc := range kernelCases {
		for _, n := range sizes {
			v := [4][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)}
			s := [4]float64{0.9, 1e-4, 1e-3, 0.5}
			if kc.name == "scaleVec" {
				s[0] = 1.0000001
			}
			for _, impl := range []struct {
				name string
				run  func([4][]float64, [4]float64)
			}{{"go", kc.ref}, {"dispatched", kc.vec}} {
				b.Run(fmt.Sprintf("%s/%s/%d", kc.name, impl.name, n), func(b *testing.B) {
					b.SetBytes(int64(n) * 8)
					for i := 0; i < b.N; i++ {
						impl.run(v, s)
					}
				})
			}
		}
	}
	const row = 256
	for _, n := range []int{4 * row, 1 << 16, 1 << 20} {
		w, x, out := randVec(rng, n), randVec(rng, row), New(n/row)
		b.Run(fmt.Sprintf("DotRows/go/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				for r := range out {
					out[r] = dotVec(w[r*row:(r+1)*row], x)
				}
			}
		})
		b.Run(fmt.Sprintf("DotRows/dispatched/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				DotRows(out, w, row, x)
			}
		})
	}
	// LinComb at one W1 row of the dense workloads and their batch of 4,
	// against its Go loop (zero, then one Axpy per source); AddLE at one row
	// of wire bytes.
	dst := New(row)
	xs := [][]float64{randVec(rng, row), randVec(rng, row), randVec(rng, row), randVec(rng, row)}
	coef := []float64{0.1, -0.2, 0.3, 0.05}
	wire := make([]byte, 8*row+4) // a body at a non-element offset, as in a frame
	for i, v := range randVec(rng, row) {
		binary.LittleEndian.PutUint64(wire[4+8*i:], math.Float64bits(v))
	}
	for _, impl := range []struct {
		name  string
		comb  func(dst, c []float64, xs [][]float64)
		addLE func(dst []float64, src []byte)
	}{{"go", linCombGo, addLEGo}, {"dispatched", LinComb, AddLE}} {
		b.Run(fmt.Sprintf("LinComb/%s/%dx4", impl.name, row), func(b *testing.B) {
			b.SetBytes(row * 8)
			for i := 0; i < b.N; i++ {
				impl.comb(dst, coef, xs)
			}
		})
		b.Run(fmt.Sprintf("AddLE/%s/%d", impl.name, row), func(b *testing.B) {
			b.SetBytes(row * 8)
			for i := 0; i < b.N; i++ {
				impl.addLE(dst, wire[4:])
			}
		})
	}
	x, y := randVec(rng, 1<<16), randVec(rng, 1<<16)
	b.Run("Dot/go/65536", func(b *testing.B) {
		b.SetBytes(int64(len(x)) * 8)
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += dotVec(x, y)
		}
		_ = sink
	})
}
