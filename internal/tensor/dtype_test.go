package tensor

import "testing"

// TestDtypeWireBytes pins the wire-size accounting the transport codec and
// cost model share, and that F64 is the only dtype the decoder accepts.
func TestDtypeWireBytes(t *testing.T) {
	for _, n := range []int{0, 1, 10, 1 << 20} {
		if got := F64.WireBytes(n); got != 8*n {
			t.Errorf("F64.WireBytes(%d) = %d, want %d", n, got, 8*n)
		}
	}
	if !F64.Valid() {
		t.Error("F64 is not valid")
	}
	for d := Dtype(1); d != 0; d++ {
		if d.Valid() {
			t.Fatalf("%v is valid", d)
		}
	}
}
