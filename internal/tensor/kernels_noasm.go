//go:build !amd64 || purego

package tensor

// useAVX2 is constant false where there is no assembly, so the compiler
// drops the dispatchers' branch and with it every call below; the
// declarations exist for kernels.go to type-check.
const useAVX2 = false

func scaleVecAVX2(a []float64, c float64)                      { panic("tensor: no assembly") }
func axpyVecAVX2(a []float64, c float64, b []float64)          { panic("tensor: no assembly") }
func sumToAVX2(dst, a, b []float64)                            { panic("tensor: no assembly") }
func diffToAVX2(dst, a, b []float64)                           { panic("tensor: no assembly") }
func sumToLEAVX2(dst, a []float64, b []byte)                   { panic("tensor: no assembly") }
func linComb4AVX2(dst, c, x0, x1, x2, x3 []float64, cont bool) { panic("tensor: no assembly") }
func sgdStepAVX2(dst, src, vel, grad []float64, mean, mu, wd, lr float64) {
	panic("tensor: no assembly")
}
func dotRowsAVX2(out, w []float64, stride int, x []float64) { panic("tensor: no assembly") }
