package tensor

import (
	"fmt"
	"math"
)

// Wire dtypes for gradient compression. The collective layer reduces in
// float64 and optionally compresses the distribution phase (allgather /
// broadcast) to a narrower wire format; these are the encodings the
// transport codec understands.
//
// Every lossy encoding here is IDEMPOTENT: re-encoding an already-decoded
// vector reproduces the same bytes. That property is what lets a ring hop
// (or a tree broadcast relay) re-encode values it just decoded without
// drifting — it is the foundation of the cross-rank bit-identity contract
// for compressed collectives.
//
//   - F32: float64 → float32 → float64. float32 values are exactly
//     representable in float64, so the second conversion is exact.
//   - F16: IEEE 754 binary16 with round-to-nearest-even via float32.
//     Half-precision values round-trip exactly through float32/float64.
//   - I8: per-block linear quantization q = round(x/scale), scale a POWER
//     OF TWO chosen as the smallest 2^E with 127·2^E ≥ max|x| over the
//     block. Decoded values q·2^E sit on a power-of-two grid whose max
//     re-derives the same E (round(max|x|/2^E) ∈ [64,127] by construction),
//     so re-quantization is exact. A plain scale = max/127 would not have
//     this property: 127 is not a power of two and the division introduces
//     ulp drift on re-encode.

// Dtype identifies a payload wire encoding. The zero value is F64
// (passthrough), so existing Message literals and configs are unchanged.
type Dtype uint8

const (
	// F64 ships raw float64 bits — lossless passthrough.
	F64 Dtype = iota
	// F32 ships float32 (4 bytes/elem, ~2x compression).
	F32
	// F16 ships IEEE binary16 (2 bytes/elem, ~4x compression).
	F16
	// I8 ships per-block int8 linear quantization (1 byte/elem plus an
	// 8-byte power-of-two scale per I8BlockElems block, ~7.9x compression).
	I8

	dtypeCount
)

// I8BlockElems is the quantization block size of the I8 encoding: each run
// of up to 1024 elements shares one scale, bounding the wire overhead at
// 8/1024 bytes per element while keeping scales local enough to track the
// per-chunk dynamic range of gradients.
const I8BlockElems = 1024

// Valid reports whether d is a known wire dtype.
func (d Dtype) Valid() bool { return d < dtypeCount }

// Lossless reports whether encoding preserves float64 bits exactly.
func (d Dtype) Lossless() bool { return d == F64 }

// PerElement reports whether the encoding quantizes each element
// independently of its neighbors. F64/F32/F16 do; I8 does not (block
// scales), so schedules that re-encode I8 data must keep the encoded spans
// identical on sender and receiver for idempotence to hold.
func (d Dtype) PerElement() bool { return d != I8 }

func (d Dtype) String() string {
	switch d {
	case F64:
		return "f64"
	case F32:
		return "f32"
	case F16:
		return "f16"
	case I8:
		return "i8"
	}
	return fmt.Sprintf("Dtype(%d)", uint8(d))
}

// ParseDtype parses the String form.
func ParseDtype(s string) (Dtype, error) {
	switch s {
	case "f64", "fp64", "float64", "":
		return F64, nil
	case "f32", "fp32", "float32":
		return F32, nil
	case "f16", "fp16", "float16", "half":
		return F16, nil
	case "i8", "int8":
		return I8, nil
	}
	return F64, fmt.Errorf("tensor: unknown dtype %q", s)
}

// WireBytes returns the encoded size of n elements.
func (d Dtype) WireBytes(n int) int {
	switch d {
	case F32:
		return 4 * n
	case F16:
		return 2 * n
	case I8:
		if n == 0 {
			return 0
		}
		blocks := (n + I8BlockElems - 1) / I8BlockElems
		return n + 8*blocks
	}
	return 8 * n
}

// WireRatio returns the asymptotic wire bytes per element relative to raw
// float64 — the factor cost models scale their distribution-phase byte term
// by.
func (d Dtype) WireRatio() float64 {
	switch d {
	case F32:
		return 0.5
	case F16:
		return 0.25
	case I8:
		return (1 + 8.0/I8BlockElems) / 8
	}
	return 1
}

// Pack encodes src into dst, which must be exactly d.WireBytes(len(src))
// long. F64 is rejected: raw payloads take the transport's native path.
func Pack(d Dtype, dst []byte, src []float64) {
	if len(dst) != d.WireBytes(len(src)) {
		panic("tensor: Pack buffer size mismatch")
	}
	switch d {
	case F32:
		packF32(dst, src)
	case F16:
		packF16(dst, src)
	case I8:
		packI8(dst, src)
	default:
		panic("tensor: Pack called with non-compressing dtype")
	}
}

// Unpack decodes src (d.WireBytes(len(dst)) bytes) into dst.
func Unpack(d Dtype, dst []float64, src []byte) {
	if len(src) != d.WireBytes(len(dst)) {
		panic("tensor: Unpack buffer size mismatch")
	}
	switch d {
	case F32:
		unpackF32(dst, src)
	case F16:
		unpackF16(dst, src)
	case I8:
		unpackI8(dst, src)
	default:
		panic("tensor: Unpack called with non-compressing dtype")
	}
}

// RoundTrip replaces v in place with Unpack(Pack(v)) without materializing
// the wire bytes. It is exactly equivalent to the encode/decode pair (a
// property test pins this), which is how the in-memory mesh and the
// collectives' owner-side quantization stay bit-identical to the TCP path.
// F64 is a no-op.
func RoundTrip(d Dtype, v []float64) {
	switch d {
	case F64:
	case F32:
		i := 0
		for ; i+4 <= len(v); i += 4 {
			v[i] = float64(float32(v[i]))
			v[i+1] = float64(float32(v[i+1]))
			v[i+2] = float64(float32(v[i+2]))
			v[i+3] = float64(float32(v[i+3]))
		}
		for ; i < len(v); i++ {
			v[i] = float64(float32(v[i]))
		}
	case F16:
		// Same hand-inlined narrow as packF16 (the widen, f16ToF32, inlines
		// on its own): the owner-side quantization of every compressed
		// collective runs through here, so it gets the call-free loop too.
		for i, x := range v {
			b := math.Float32bits(float32(x))
			sign := uint16(b>>16) & 0x8000
			f := b & 0x7fffffff
			var h uint16
			if f-f16MinNormal < f16Max-f16MinNormal {
				f += 0xc8000fff + ((f >> 13) & 1)
				h = uint16(f >> 13)
			} else {
				h = f16PackCold(f)
			}
			v[i] = float64(f16ToF32(sign | h))
		}
	case I8:
		for len(v) > 0 {
			b := len(v)
			if b > I8BlockElems {
				b = I8BlockElems
			}
			scale := i8BlockScale(v[:b])
			i8RoundBlock(v[:b], scale)
			v = v[b:]
		}
	default:
		panic("tensor: RoundTrip called with unknown dtype")
	}
}

// RoundTripEF is RoundTrip with error feedback: residual[i] accumulates the
// quantization error pre−post of element i, so a training loop can fold the
// lost mass into its next contribution. residual must be at least len(v).
func RoundTripEF(d Dtype, v, residual []float64) {
	if d == F64 {
		return
	}
	residual = residual[:len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		residual[i] += v[i]
		residual[i+1] += v[i+1]
		residual[i+2] += v[i+2]
		residual[i+3] += v[i+3]
	}
	for ; i < len(v); i++ {
		residual[i] += v[i]
	}
	RoundTrip(d, v)
	subVec(residual, v)
}

// --- float32 ---

func packF32(dst []byte, src []float64) {
	i := 0
	for ; i+4 <= len(src); i += 4 {
		putU32(dst[4*i:], math.Float32bits(float32(src[i])))
		putU32(dst[4*i+4:], math.Float32bits(float32(src[i+1])))
		putU32(dst[4*i+8:], math.Float32bits(float32(src[i+2])))
		putU32(dst[4*i+12:], math.Float32bits(float32(src[i+3])))
	}
	for ; i < len(src); i++ {
		putU32(dst[4*i:], math.Float32bits(float32(src[i])))
	}
}

func unpackF32(dst []float64, src []byte) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = float64(math.Float32frombits(getU32(src[4*i:])))
		dst[i+1] = float64(math.Float32frombits(getU32(src[4*i+4:])))
		dst[i+2] = float64(math.Float32frombits(getU32(src[4*i+8:])))
		dst[i+3] = float64(math.Float32frombits(getU32(src[4*i+12:])))
	}
	for ; i < len(dst); i++ {
		dst[i] = float64(math.Float32frombits(getU32(src[4*i:])))
	}
}

// --- float16 ---

// packF16 writes the narrow conversion inline: f16FromF32's cost sits just
// over the compiler's inlining budget, and a per-element call roughly halves
// pack throughput, so the loop body repeats the normal-path arithmetic and
// only the rare magnitudes (overflow/subnormal) leave the loop via
// f16PackCold.
func packF16(dst []byte, src []float64) {
	if len(dst) < 2*len(src) {
		panic("tensor: packF16 short buffer")
	}
	for i, x := range src {
		b := math.Float32bits(float32(x))
		sign := uint16(b>>16) & 0x8000
		f := b & 0x7fffffff
		var h uint16
		if f-f16MinNormal < f16Max-f16MinNormal { // normal half: hot path
			f += 0xc8000fff + ((f >> 13) & 1)
			h = uint16(f >> 13)
		} else {
			h = f16PackCold(f)
		}
		putU16(dst[2*i:], sign|h)
	}
}

func unpackF16(dst []float64, src []byte) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = float64(f16ToF32(getU16(src[2*i:])))
		dst[i+1] = float64(f16ToF32(getU16(src[2*i+2:])))
		dst[i+2] = float64(f16ToF32(getU16(src[2*i+4:])))
		dst[i+3] = float64(f16ToF32(getU16(src[2*i+6:])))
	}
	for ; i < len(dst); i++ {
		dst[i] = float64(f16ToF32(getU16(src[2*i:])))
	}
}

// f16Round is the value round-trip float64 → binary16 → float64 without
// materializing the bits.
func f16Round(x float64) float64 {
	return float64(f16ToF32(f16FromF32(float32(x))))
}

// f16FromF32 converts to IEEE binary16 with round-to-nearest-even. NaN
// collapses to the canonical quiet NaN (sign preserved) so the conversion
// stays deterministic and idempotent; overflow goes to ±Inf.
func f16FromF32(x float32) uint16 {
	b := math.Float32bits(x)
	sign := uint16(b>>16) & 0x8000
	f := b & 0x7fffffff
	if f-f16MinNormal < f16Max-f16MinNormal {
		// Normal half: arithmetic RNE — add the sticky-bits bias plus the
		// kept lsb (ties go to even), rebias the exponent 127→15 (−112·2^23
		// two's-complement), shift. A rounding carry walks into the exponent
		// correctly: 0x7bff+1 = Inf. The single unsigned range compare
		// classifies normals in one branch (below-minimum wraps negative).
		f += 0xc8000fff + ((f >> 13) & 1)
		return sign | uint16(f>>13)
	}
	return sign | f16PackCold(f)
}

const (
	f32Infty = uint32(255) << 23
	// f16Max is the first magnitude that overflows half AFTER the RNE tie
	// at 65520 is resolved upward: 2^16.
	f16Max = uint32(127+16) << 23
	// f16MinNormal is 2^-14, the smallest normal half.
	f16MinNormal = uint32(113) << 23
	// denormMagic is 0.5f, the renormalization bias of the subnormal path.
	denormMagic = uint32((127-15)+(23-10)+1) << 23
)

// f16PackCold converts the magnitudes outside the normal-half range:
// overflow/Inf/NaN above, subnormals and zero below. Kept out of line (the
// pack loops inline only the normal case) and off the hot path — gradient
// traffic is normal-range by construction.
//
//go:noinline
func f16PackCold(f uint32) uint16 {
	if f >= f16Max { // overflow / Inf / NaN
		if f > f32Infty {
			return 0x7e00
		}
		return 0x7c00
	}
	// 0.5f magic add (denormMagic's value): it lands the half-subnormal
	// grid exactly on float32 mantissa lsbs, so the hardware float add
	// performs the round-to-nearest-even.
	return uint16(math.Float32bits(math.Float32frombits(f)+0.5) - denormMagic)
}

// f16ToF32 widens IEEE binary16 to float32 exactly.
func f16ToF32(h uint16) float32 {
	const (
		shiftedExp = uint32(0x7c00) << 13 // half exponent field, in f32 position
		magic      = uint32(113) << 23    // 2^-14: the smallest normal half
	)
	o := uint32(h&0x7fff) << 13
	exp := o & shiftedExp
	o += (127 - 15) << 23 // rebias exponent 15→127
	switch {
	case exp == shiftedExp: // Inf / NaN: exponent needs the rest of the way
		o += (128 - 16) << 23
	case exp == 0: // zero / subnormal: renormalize with a float subtract
		o += 1 << 23
		o = math.Float32bits(math.Float32frombits(o) - math.Float32frombits(magic))
	}
	return math.Float32frombits(o | uint32(h&0x8000)<<16)
}

// --- int8 block quantization ---

// i8BlockScale returns the power-of-two scale 2^E for a block: the smallest
// E with 127·2^E ≥ max|v|. A zero (or fully non-finite) block gets scale 0,
// the all-zeros marker. The power-of-two choice makes decode→re-encode
// exact: every decoded value q·2^E has |q| ≤ 127, its maximum re-derives
// round(max/2^E) = max|q| ∈ [1,127], and the smallest-E rule lands on the
// same E again.
func i8BlockScale(v []float64) float64 {
	maxabs := 0.0
	i := 0
	for ; i+4 <= len(v); i += 4 {
		m0 := math.Abs(v[i])
		m1 := math.Abs(v[i+1])
		m2 := math.Abs(v[i+2])
		m3 := math.Abs(v[i+3])
		if m1 > m0 {
			m0 = m1
		}
		if m3 > m2 {
			m2 = m3
		}
		if m2 > m0 {
			m0 = m2
		}
		if m0 > maxabs {
			maxabs = m0
		}
	}
	for ; i < len(v); i++ {
		if m := math.Abs(v[i]); m > maxabs {
			maxabs = m
		}
	}
	if maxabs == 0 || math.IsInf(maxabs, 1) || math.IsNaN(maxabs) {
		// NaN never wins the > comparisons above, so a NaN-only block also
		// reaches maxabs == 0 and quantizes to zeros — deterministic on
		// every rank.
		if maxabs == 0 {
			return 0
		}
		// Inf saturates to the largest finite grid.
		return math.Ldexp(1, 1024-7)
	}
	f, exp := math.Frexp(maxabs) // maxabs = f·2^exp, f ∈ [0.5, 1)
	e := exp - 7                 // 127·2^(exp-7) = (127/128)·2^exp ≥ maxabs iff f ≤ 127/128
	if f > 127.0/128.0 {
		e++
	}
	return math.Ldexp(1, e)
}

// i8Quant quantizes x onto the grid of scale (a power of two), clamped to
// the int8 range. Non-finite x maps to the clamp bounds (NaN → 0). The
// ±0.5-then-truncate is exactly math.Round (half away from zero) for every
// value that survives the clamp, but cheap enough to keep the function
// inlinable into the pack loops.
func i8Quant(x, invScale float64) int8 {
	q := x * invScale
	if q > 126.5 {
		return 127
	}
	if q < -126.5 {
		return -127
	}
	if q != q { // NaN
		return 0
	}
	if q >= 0 {
		return int8(q + 0.5)
	}
	return int8(q - 0.5)
}

// i8RoundBlock replaces v with its dequantized image under scale.
func i8RoundBlock(v []float64, scale float64) {
	if scale == 0 {
		for i := range v {
			v[i] = 0
		}
		return
	}
	inv := 1 / scale
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] = float64(i8Quant(v[i], inv)) * scale
		v[i+1] = float64(i8Quant(v[i+1], inv)) * scale
		v[i+2] = float64(i8Quant(v[i+2], inv)) * scale
		v[i+3] = float64(i8Quant(v[i+3], inv)) * scale
	}
	for ; i < len(v); i++ {
		v[i] = float64(i8Quant(v[i], inv)) * scale
	}
}

func packI8(dst []byte, src []float64) {
	for len(src) > 0 {
		b := len(src)
		if b > I8BlockElems {
			b = I8BlockElems
		}
		scale := i8BlockScale(src[:b])
		putU64(dst, math.Float64bits(scale))
		dst = dst[8:]
		if scale == 0 {
			for i := 0; i < b; i++ {
				dst[i] = 0
			}
		} else {
			inv := 1 / scale
			i := 0
			for ; i+4 <= b; i += 4 {
				dst[i] = byte(i8Quant(src[i], inv))
				dst[i+1] = byte(i8Quant(src[i+1], inv))
				dst[i+2] = byte(i8Quant(src[i+2], inv))
				dst[i+3] = byte(i8Quant(src[i+3], inv))
			}
			for ; i < b; i++ {
				dst[i] = byte(i8Quant(src[i], inv))
			}
		}
		dst = dst[b:]
		src = src[b:]
	}
}

func unpackI8(dst []float64, src []byte) {
	for len(dst) > 0 {
		b := len(dst)
		if b > I8BlockElems {
			b = I8BlockElems
		}
		scale := math.Float64frombits(getU64(src))
		src = src[8:]
		if scale == 0 {
			// Zero scale decodes the block to zeros regardless of payload
			// bytes, matching the encoder's all-zero marker. (A hostile
			// frame with scale 0 and nonzero bytes still decodes
			// deterministically.)
			for i := 0; i < b; i++ {
				dst[i] = 0
			}
		} else {
			i := 0
			for ; i+4 <= b; i += 4 {
				dst[i] = float64(int8(src[i])) * scale
				dst[i+1] = float64(int8(src[i+1])) * scale
				dst[i+2] = float64(int8(src[i+2])) * scale
				dst[i+3] = float64(int8(src[i+3])) * scale
			}
			for ; i < b; i++ {
				dst[i] = float64(int8(src[i])) * scale
			}
		}
		src = src[b:]
		dst = dst[b:]
	}
}

// Tiny local byte-order helpers; encoding/binary's functions are equivalent
// but these keep the kernels free of interface indirection in older
// toolchains.

func putU16(b []byte, v uint16) {
	_ = b[1]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
}

func getU16(b []byte) uint16 {
	_ = b[1]
	return uint16(b[0]) | uint16(b[1])<<8
}

func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
