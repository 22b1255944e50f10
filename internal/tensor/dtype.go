package tensor

import "fmt"

// Dtype identifies a payload's wire encoding. Every payload ships raw
// float64 bits, so F64 is the only encoding; the type stays because the
// wire header keeps its dtype byte, which the decoder checks.
type Dtype uint8

// F64 ships raw float64 bits. It is the zero value.
const F64 Dtype = 0

// Valid reports whether d is a known wire dtype.
func (d Dtype) Valid() bool { return d == F64 }

func (d Dtype) String() string {
	if d == F64 {
		return "f64"
	}
	return fmt.Sprintf("Dtype(%d)", uint8(d))
}

// WireBytes returns the encoded size of n elements.
func (d Dtype) WireBytes(n int) int { return 8 * n }
