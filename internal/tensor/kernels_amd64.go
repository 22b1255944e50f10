//go:build amd64 && !purego

package tensor

import "repro/internal/race"

// useAVX2 selects the assembly bodies of kernels_amd64.s. It stays false
// under the race detector, which cannot see an assembly routine's reads and
// writes of the ring, accumulator and snapshot buffers the kernels work on.
var useAVX2 = !race.Enabled && cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches.
func cpuHasAVX2() bool {
	const (
		osxsave = 1 << 27 // leaf 1 ECX: XGETBV is usable
		avx     = 1 << 28 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 EBX
		xmmYmm  = 0x6     // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&xmmYmm != xmmYmm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The AVX2 bodies. Each takes its length from its first argument and only
// base pointers from the rest; the dispatchers in kernels.go have re-sliced
// every operand to that length.

//go:noescape
func scaleVecAVX2(a []float64, c float64)

//go:noescape
func axpyVecAVX2(a []float64, c float64, b []float64)

//go:noescape
func sumToAVX2(dst, a, b []float64)

//go:noescape
func diffToAVX2(dst, a, b []float64)

// sumToLEAVX2 is sumToAVX2 with b read as little-endian wire bytes.
//
//go:noescape
func sumToLEAVX2(dst, a []float64, b []byte)

// linComb4AVX2 computes dst[i] = (((d + c[0]·x0[i]) + c[1]·x1[i]) +
// c[2]·x2[i]) + c[3]·x3[i], where d is dst[i] when cont is set and +0
// otherwise.
//
//go:noescape
func linComb4AVX2(dst, c, x0, x1, x2, x3 []float64, cont bool)

//go:noescape
func sgdStepAVX2(params, vel, grad []float64, mu, wd, lr float64)

// dotRowsAVX2 computes len(out) rows, a multiple of four, of len(x)
// elements each.
//
//go:noescape
func dotRowsAVX2(out, w []float64, stride int, x []float64)
